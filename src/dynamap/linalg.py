"""Dense complex matrix primitives used by every other module.

All functions are pure and operate on plain ``numpy`` arrays of complex
dtype.  Thresholding decisions (what counts as a zero eigenvalue, how much
residual is tolerated) are centralized in :class:`ToleranceConfig` so that
the whole pipeline shares one notion of "numerically zero".
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NotPSD


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared across the package, under one policy.

    Every spectral decision (sign, rank, support, PSD, singularity) uses
    :func:`zero_cut`: ``zero_eig_rel`` times the largest absolute eigenvalue
    of the same spectrum, so it is scale invariant.  ``residual_abs`` bounds
    Frobenius residuals.  A Hermiticity residual is bounded by it times
    ``max(1, ‖m‖)``, because its target is ``m`` itself.  Residuals against
    targets of fixed scale stay absolute, because rescaling the input
    cannot rescale the target: the identity in ``check_tp``, the unit norm
    of a joint state, Kraus completeness, unitarity, unit trace, and the
    sampled identities of normalized maps.
    """

    zero_eig_rel: float = 1e-10
    residual_abs: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.zero_eig_rel < 1.0:
            raise ValueError(f"zero_eig_rel must be in (0, 1), got {self.zero_eig_rel}")
        if not 0.0 < self.residual_abs < 1.0:
            raise ValueError(f"residual_abs must be in (0, 1), got {self.residual_abs}")


DEFAULT_TOL = ToleranceConfig()


def as_complex_stack(m) -> np.ndarray:
    """Coerce one matrix or a stack ``(..., rows, cols)`` of matrices to a
    complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return as_complex_stack(a)


def frob(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def max_frob(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a stack ``(..., rows, cols)``; 0.0 for an
    empty stack.  Each squared norm is the real dot product of the flattened
    entries, the sum ``np.linalg.norm`` forms, so one matrix gives
    :func:`frob` exactly."""
    size = stack.shape[-2] * stack.shape[-1]
    rows, cols = stack.reshape(-1, 1, size), stack.reshape(-1, size, 1)
    squares = rows.real @ cols.real + rows.imag @ cols.imag
    return float(np.sqrt(np.max(squares, initial=0.0)))


def hermiticity_residual(m: np.ndarray) -> float:
    return frob(m - m.conj().T)


def hermiticity_check(m: np.ndarray, tol: ToleranceConfig) -> tuple[bool, float]:
    """``(ok, residual)``: the Hermiticity residual of ``m`` against
    ``residual_abs`` scaled by ``max(1, ‖m‖)``."""
    residual = hermiticity_residual(m)
    return residual <= tol.residual_abs * max(1.0, frob(m)), residual


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    m = _require_square(m)
    ok, res = hermiticity_check(m, tol)
    if not ok:
        raise NonHermitianInput(f"Hermiticity residual {res:.3e} exceeds tolerance")
    return m


def hermitian_eig(m, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(values, vectors)`` with real eigenvalues sorted in descending
    order and orthonormal eigenvectors as the columns of ``vectors``.
    Raises :class:`NonHermitianInput` when the input fails the Hermiticity
    residual bound and :class:`DimensionMismatch` when it is not square.
    """
    values, vectors = np.linalg.eigh(_require_hermitian(m, tol))
    return values[::-1], vectors[:, ::-1]


def partial_trace(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``m`` acts on a space of dimension ``dims[0] * dims[1]`` with the first
    factor as the slow index.  ``which`` selects the factor to trace out:
    ``"a"`` (first) leaves a ``dims[1]`` square matrix, ``"b"`` (second)
    leaves a ``dims[0]`` square matrix.  The full trace is preserved.
    """
    d_a, d_b = dims
    m = _require_square(m)
    if d_a < 1 or d_b < 1 or m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix of side {m.shape[0]} is not compatible with factors {d_a}x{d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    if which == "a":
        return np.einsum("aiaj->ij", t)
    if which == "b":
        return np.einsum("iaja->ij", t)
    raise ValueError(f"which must be 'a' or 'b', got {which!r}")


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product with the first argument as the slow index."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def zero_cut(values, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Magnitude at or below which an eigenvalue of the spectrum ``values``
    counts as zero: ``zero_eig_rel * max|values|``, so every rank and sign
    decision is scale invariant."""
    values = np.asarray(values)
    return tol.zero_eig_rel * float(np.max(np.abs(values))) if values.size else 0.0


def spectral_power(values, vectors, power: float) -> np.ndarray:
    """``sum_i values[i]**power v_i v_i^dag`` over the given eigenpairs.

    ``vectors`` holds the orthonormal eigenvectors as columns; pass only the
    eigenpairs to keep (a pseudo-inverse or a clamped root drops the rest).
    """
    return (vectors * np.asarray(values, dtype=float) ** power) @ vectors.conj().T


def _psd_support(m, tol: ToleranceConfig):
    """Eigenpairs of a PSD matrix above the zero cut; raises :class:`NotPSD`
    for an eigenvalue below minus the cut."""
    values, vectors = hermitian_eig(m, tol)
    cut = zero_cut(values, tol)
    if values.size and values[-1] < -cut:
        raise NotPSD(f"eigenvalue {values[-1]:.3e} below PSD threshold")
    keep = values > cut
    return values[keep], vectors[:, keep]


def psd_sqrt(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues within the zero cut (:func:`zero_cut`) are clamped to zero;
    eigenvalues below minus the cut raise :class:`NotPSD`.
    """
    return spectral_power(*_psd_support(m, tol), 0.5)


def thresholded_pinv(m, tol: ToleranceConfig = DEFAULT_TOL):
    """Spectral pseudo-inverse and support projector of a PSD matrix.

    Eigenvalues above the zero cut (:func:`zero_cut`) are inverted; the rest
    are treated as exact zeros.  Returns ``(pinv, support)`` where
    ``support`` is the orthogonal projector onto the retained eigenspace, so
    that ``pinv @ m == support`` up to the residual tolerance.
    """
    values, vectors = _psd_support(m, tol)
    return spectral_power(values, vectors, -1.0), spectral_power(values, vectors, 0.0)

"""Dense complex matrix primitives used by every other module.

All functions are pure and operate on plain ``numpy`` arrays of complex
dtype.  What counts as a zero eigenvalue is decided by :func:`sign_counts`
alone, and what residual is tolerated by :class:`ToleranceConfig` alone, so
the whole pipeline, on the dense and the Gram route, shares one notion of
"numerically zero".
"""

import math

import numpy as np

from .errors import DimensionMismatch
from .tolerances import ToleranceConfig  # re-exported: the policy loads no numpy

DEFAULT_TOL = ToleranceConfig()


def as_complex_stack(m) -> np.ndarray:
    """Coerce one matrix or a stack ``(..., rows, cols)`` of matrices to a
    complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():  # a complex entry is finite when both its parts are
        raise ValueError("matrix contains non-finite entries")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return as_complex_stack(a)


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a norm below it had subnormal squares


def _unit_power(a: np.ndarray) -> float:
    """An exact power of two (a float even where its inverse is not) that
    scales the largest real or imaginary part of finite ``a`` into [2**-51, 1)."""
    scale = max(float(np.abs(a.real).max(initial=0.0)), float(np.abs(a.imag).max(initial=0.0)))
    return math.ldexp(1.0, -max(math.frexp(scale)[1], -1023))


def frob(m) -> float:
    """Frobenius norm; finite and nonzero for finite, nonzero entries with a
    finite norm.  A sum of squares that overflows, or underflows below the
    smallest normal float, is taken again on the entries scaled exactly by
    :func:`_unit_power`; other inputs keep the plain ``np.linalg.norm``."""
    a = np.asarray(m)
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.linalg.norm(a))
        if not _SQRT_TINY <= value < math.inf and np.isfinite(a).all():
            power = _unit_power(a)
            value = float(np.linalg.norm(a * power)) / power
    return value


def max_frob(stack) -> float:
    """Largest :func:`frob` over a stack ``(..., rows, cols)``; 0.0 if empty."""
    stack = np.asarray(stack)
    return float(np.max([frob(m) for m in stack.reshape(-1, *stack.shape[-2:])], initial=0.0))


def hermiticity_residual(m: np.ndarray) -> float:
    d = np.conjugate(m).T  # always a new array (``m.conj()`` is ``m`` when real)
    with np.errstate(over="ignore"):  # a difference too large for a float is inf
        np.subtract(m, d, out=d)
    return frob(d)


def isometry_residual(a: np.ndarray) -> float:
    """``‖a^dag a - 1‖_F``, the identity subtracted in place on the diagonal:
    Kraus completeness of a stacked isometry, or unitarity of a square ``a``.
    Finite entries too large to square give ``inf``, which no bound passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.conj().T @ a
    gram.reshape(-1)[:: len(gram) + 1] -= 1.0
    value = frob(gram)
    return math.inf if math.isnan(value) else value  # an overflowed product holds nan


def partial_trace(m, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``m`` acts on a space of dimension ``dims[0] * dims[1]`` with the first
    factor as the slow index.  ``which`` selects the factor to trace out:
    ``"a"`` (first) leaves a ``dims[1]`` square matrix, ``"b"`` (second)
    leaves a ``dims[0]`` square matrix.  The full trace is preserved.
    """
    d_a, d_b = dims
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
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


def zero_cut(values, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Magnitude at or below which a value of the spectrum ``values`` counts
    as zero: ``max|values| * max(zero_eig_rel, len(values) * eps)``, scale
    invariant and never below the rounding floor of a dense solve."""
    values = np.asarray(values)
    rel = max(tol.zero_eig_rel, values.size * np.finfo(float).eps)
    return rel * float(np.max(np.abs(values), initial=0.0))


def sign_counts(values, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, int]:
    """``(above, below)``: how many ``values`` lie above :func:`zero_cut` and
    how many below minus it; the rest are zero.  Every sign, rank, kernel,
    singularity and PSD decision on a spectrum is read from these counts."""
    values = np.asarray(values)
    cut = zero_cut(values, tol)
    return int(np.count_nonzero(values > cut)), int(np.count_nonzero(values < -cut))


_FLOOR = ToleranceConfig(zero_eig_rel=np.finfo(float).tiny)  # zero_cut is then its floor


def within_rounding(values, residual: float) -> bool:
    """Whether ``residual``, the norm of a perturbation of a matrix with
    spectrum ``values``, is within that spectrum's rounding floor: at most
    :func:`zero_cut` at its floor, ``len(values) * eps * max|values|``."""
    return residual <= zero_cut(values, _FLOOR)


def gram_eigensystem(rows: np.ndarray):
    """Eigensystem of ``C = sum_i v_i v_i^dag`` over the ``k`` rows ``v_i`` of
    ``rows`` (side ``n``, ``k < n``), solved on the ``k x k`` Gram matrix.

    With ``W = rows.T``, ``C = W W^dag`` and ``G = W^dag W`` has the same
    nonzero spectrum; an eigenpair ``(mu, u)`` of ``G`` gives the unit
    eigenvector ``W u / sqrt(mu)`` of ``C``.  A ``mu`` that is not above the
    rounding floor of :func:`zero_cut` over all ``n`` values becomes exactly
    ``0.0`` with no vector (no division by zero), as do the ``n - k`` values
    ``G`` lacks.  Returns all ``n`` values, descending, and as columns the
    vectors of the leading ``rank`` of them, a view of a ``(rank, n)`` array.
    """
    mu, u = np.linalg.eigh(rows.conj() @ rows.T)
    values = np.zeros(rows.shape[1])
    values[: len(mu)] = mu[::-1]
    rank = sign_counts(values, _FLOOR)[0]
    values[rank:] = 0.0
    return values, (u[:, ::-1][:, :rank].T @ rows / np.sqrt(values[:rank, None])).T


def spectral_power(values, vectors, power: float) -> np.ndarray:
    """``sum_i values[i]**power v_i v_i^dag`` over the given eigenpairs.

    ``vectors`` holds the orthonormal eigenvectors as columns; pass only the
    eigenpairs to keep (a pseudo-inverse or a clamped root drops the rest).
    """
    return (vectors * np.asarray(values, dtype=float) ** power) @ vectors.conj().T

"""Representations of linear maps on matrices and their physicality checks.

A map acting on ``N x N`` matrices is stored canonically through its Choi
matrix ``B`` (``N^2 x N^2``), indexed so that

    (map(rho))[r', s'] = sum_{r, s} B[(r', r), (s', s)] * rho[r, s]

with row multi-index ``(output row, input row)`` and column multi-index
``(output col, input col)``, both row-major.  Under this grouping:

* the map preserves Hermiticity iff ``B`` is Hermitian,
* it is trace preserving iff the partial trace of ``B`` over the output
  index is the identity,
* it is completely positive iff ``B`` is positive semidefinite,
* eigenvectors of ``B`` reshape (row-major) into canonical-decomposition
  operators ``L_i`` with ``map(rho) = sum_i lambda_i L_i rho L_i^dag``.

The superoperator acting on the row-major vectorized state (the "A form")
is related to the Choi form by the index reshuffle ``a_form``/``from_a_form``,
which is an exact involutive permutation of entries.
"""

import numpy as np

from .errors import DimensionMismatch, NonHermitianChoi, NotTracePreserving
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex_matrix,
    as_complex_stack,
    frob,
    hermiticity_check,
    zero_cut,
)


class LinearMap:
    """A linear map on ``dim x dim`` matrices, stored as its Choi matrix.

    Physicality verdicts (trace preserving, Hermiticity preserving,
    completely positive) are computed on demand by ``check_tp``,
    ``check_hermiticity_preserving`` and ``check_cp`` and cached per
    tolerance configuration; the Choi eigensystem is computed once, on first
    use.  ``choi`` is a read-only private copy, so neither cache can go
    stale.
    """

    def __init__(self, choi):
        choi = np.array(as_complex_matrix(choi))
        side = choi.shape[0]
        if choi.shape[0] != choi.shape[1]:
            raise DimensionMismatch(f"Choi matrix must be square, got {choi.shape}")
        dim = round(side ** 0.5)
        if dim * dim != side:
            raise DimensionMismatch(f"Choi side {side} is not a perfect square")
        choi.flags.writeable = False
        self.dim = dim
        self.choi = choi
        self._verdicts = {}
        self._eigensystem = None

    @property
    def eigensystem(self):
        """``(values, vectors)`` of the Choi matrix, eigenvalues descending
        and eigenvectors as columns, both read-only.

        Only the lower triangle is read, so callers that need a meaningful
        spectrum check Hermiticity preservation first.
        """
        if self._eigensystem is None:
            values, vectors = np.linalg.eigh(self.choi)
            values, vectors = values[::-1], vectors[:, ::-1]
            values.flags.writeable = vectors.flags.writeable = False
            self._eigensystem = (values, vectors)
        return self._eigensystem

    @property
    def choi4(self) -> np.ndarray:
        """Choi entries as a 4-tensor indexed ``[out_row, in_row, out_col, in_col]``."""
        n = self.dim
        return self.choi.reshape(n, n, n, n)

    def __repr__(self):
        return f"LinearMap(dim={self.dim})"


class DensityMatrix:
    """A Hermitian, positive semidefinite, unit-trace matrix; ``eigenvalues``
    holds its spectrum, ascending."""

    def __init__(self, matrix, tol: ToleranceConfig = DEFAULT_TOL):
        matrix = as_complex_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {matrix.shape}")
        if not hermiticity_check(matrix, tol)[0]:
            raise ValueError("density matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(matrix)
        if eigs[0] < -zero_cut(eigs, tol):
            raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        tr = complex(np.trace(matrix))
        if abs(tr - 1.0) > tol.residual_abs:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        self.matrix = matrix
        self.eigenvalues = eigs
        self.dim = matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class KrausSet:
    """A weighted family of same-sized operators realizing a CP map.

    ``operators`` is one complex ``(k, N, N)`` stack (``(0, N, N)`` keeps
    ``N`` for an empty set) and ``weights`` are positive reals (default all
    one); the induced map is ``rho -> sum_i w_i M_i rho M_i^dag``.  Completeness
    ``sum_i w_i M_i^dag M_i = 1`` holds exactly when that map is trace
    preserving; it is checked by consumers, never assumed here.
    """

    def __init__(self, operators, weights=None):
        try:
            ops = np.array(operators, dtype=complex)
        except ValueError:  # ragged nesting
            raise DimensionMismatch("Kraus operators must all have one square shape") from None
        ops = as_complex_stack(ops.reshape(0, 0, 0) if ops.shape == (0,) else ops)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatch(f"Kraus operators must be a (k, N, N) stack, got {ops.shape}")
        weights = np.ones(len(ops)) if weights is None else np.asarray(weights, dtype=float)
        if weights.shape != (len(ops),):
            raise DimensionMismatch("weights must match the number of operators")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.operators = ops
        self.weights = weights
        self.dim = ops.shape[1]

    def __len__(self):
        return len(self.operators)

    def folded_operators(self) -> np.ndarray:
        """The stack with the weights absorbed, ``sqrt(w_i) * M_i``."""
        return np.sqrt(self.weights)[:, None, None] * self.operators


def as_states(rho, dim: int) -> np.ndarray:
    """Coerce one ``dim x dim`` state or a stack ``(..., dim, dim)`` of them
    to a complex ndarray, rejecting NaN/Inf entries and other shapes."""
    rho = as_complex_stack(rho)
    if rho.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"state shape {rho.shape} does not match dim {dim}")
    return rho


def apply_map(m: LinearMap, rho) -> np.ndarray:
    """Apply a map through its Choi form to one matrix, or to each matrix of
    a stack ``(..., N, N)``."""
    return np.einsum("arbs,...rs->...ab", m.choi4, as_states(rho, m.dim))


def apply_kraus(kraus: KrausSet, rho, signs=None) -> np.ndarray:
    """Apply ``sum_i s_i w_i M_i rho M_i^dag`` directly (no Choi matrix)."""
    rho = as_complex_matrix(rho)
    if signs is None:
        signs = np.ones(len(kraus))
    out = np.zeros_like(rho)
    for s, w, op in zip(signs, kraus.weights, kraus.operators):
        out = out + s * w * (op @ rho @ op.conj().T)
    return out


def _reshuffle(m: np.ndarray) -> np.ndarray:
    """The exact index permutation relating the Choi form and the A form."""
    side = m.shape[0]
    n = round(side ** 0.5)
    if n * n != side or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix with square side, got {m.shape}")
    return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(side, side)


def a_form(m: LinearMap) -> np.ndarray:
    """Superoperator acting on the row-major vectorized state."""
    return _reshuffle(m.choi)


def from_a_form(a) -> LinearMap:
    """Build a map from its superoperator (A form) matrix."""
    return LinearMap(_reshuffle(as_complex_matrix(a)))


def weighted_choi(operators: np.ndarray, weights) -> np.ndarray:
    """``sum_i w_i vec(M_i) vec(M_i)^dag`` over a ``(k, N, N)`` stack as one
    matrix product; signed weights give a difference of CP maps."""
    k, n, _ = operators.shape
    v = operators.reshape(k, n * n)
    return (v.T * np.asarray(weights, dtype=float)) @ v.conj()


def kraus_to_map(kraus: KrausSet, signs=None) -> LinearMap:
    """Choi matrix of ``rho -> sum_i s_i w_i M_i rho M_i^dag``.

    ``signs`` (optional, one per operator, each +-1) admit the signed sums
    that arise when reassembling a map from its canonical decomposition.
    """
    if signs is None:
        signs = np.ones(len(kraus))
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (len(kraus),):
        raise DimensionMismatch("signs must match the number of operators")
    return LinearMap(weighted_choi(kraus.operators, signs * kraus.weights))


def sign_split(values, vectors, dim: int, tol: ToleranceConfig = DEFAULT_TOL):
    """Group a Choi eigensystem by sign into ``(positive, negative)`` Kraus sets.

    Eigenvectors with eigenvalue above the zero cut become
    Hilbert-Schmidt-orthonormal operators weighted by the eigenvalue, those
    below minus the cut are weighted by its absolute value, and eigenvalues
    within the cut are discarded from both.
    """
    values = np.asarray(values, dtype=float)
    ops = np.asarray(vectors, dtype=complex).T.reshape(-1, dim, dim)
    cut = zero_cut(values, tol)
    pos, neg = values > cut, values < -cut
    return KrausSet(ops[pos], values[pos]), KrausSet(ops[neg], -values[neg])


def require_hermiticity_preserving(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Raise :class:`NonHermitianChoi` unless the Choi matrix is Hermitian."""
    ok, res = check_hermiticity_preserving(m, tol)
    if not ok:
        raise NonHermitianChoi(f"Choi Hermiticity residual {res:.3e} exceeds tolerance")


def require_tp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Raise :class:`NonHermitianChoi` unless the map preserves Hermiticity,
    then :class:`NotTracePreserving` unless it preserves the trace."""
    require_hermiticity_preserving(m, tol)
    ok, res = check_tp(m, tol)
    if not ok:
        raise NotTracePreserving(f"trace-preservation residual {res:.3e} exceeds tolerance")


def map_to_kraus(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Canonical decomposition of a Hermiticity-preserving map: the
    :func:`sign_split` of its Choi eigensystem."""
    require_hermiticity_preserving(m, tol)
    return sign_split(*m.eigensystem, m.dim, tol)


def choi_eigenvalues(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of the Choi matrix of a Hermiticity-preserving map, descending."""
    require_hermiticity_preserving(m, tol)
    return m.eigensystem[0]


def check_tp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Trace preservation: partial trace of the Choi matrix over the output
    index must equal the identity.  Returns ``(verdict, residual)``."""
    key = ("tp", tol)
    if key not in m._verdicts:
        traced = np.einsum("aras->rs", m.choi4)
        residual = frob(traced - np.eye(m.dim))
        m._verdicts[key] = (residual <= tol.residual_abs, residual)
    return m._verdicts[key]


def check_hermiticity_preserving(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Hermiticity preservation: the Choi matrix must be Hermitian.
    Returns ``(verdict, residual)``; the bound scales with the Choi norm."""
    key = ("hp", tol)
    if key not in m._verdicts:
        m._verdicts[key] = hermiticity_check(m.choi, tol)
    return m._verdicts[key]


def check_cp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Complete positivity: the Choi matrix must be PSD.

    Requires a Hermiticity-preserving map (raises :class:`NonHermitianChoi`
    otherwise).  Returns ``(verdict, min_choi_eigenvalue)`` where the verdict
    allows eigenvalues down to ``-zero_eig_rel * max|eig|``.
    """
    key = ("cp", tol)
    if key not in m._verdicts:
        values = choi_eigenvalues(m, tol)
        min_eig = float(values[-1])
        m._verdicts[key] = (min_eig >= -zero_cut(values, tol), min_eig)
    return m._verdicts[key]

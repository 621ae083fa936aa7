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

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonHermitianChoi, NotTracePreserving
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex_matrix,
    as_complex_stack,
    frob,
    gram_eigensystem,
    hermiticity_residual,
    sign_counts,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, read-only, when it and every array whose memory it views
    are read-only already; else a read-only copy, so that no writable array
    shares the memory a holder keeps."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:  # a writable array, or memory numpy does not own
        a = a.copy()
        a.flags.writeable = False
    return a


class LinearMap:
    """A linear map on ``dim x dim`` matrices, stored as its Choi matrix.

    A map caches measurements, never verdicts: ``_hermiticity``,
    ``output_trace``, ``_tp_residual`` and the Choi spectrum are computed
    once, on first use, the spectrum only as far as it is read
    (``eigenvalues`` or ``eigensystem``), and each ``check_*`` judges one
    under its tolerance.
    ``choi`` is read-only and kept by :func:`_frozen`, so no cache can go
    stale; :func:`kraus_to_map`, :func:`from_a_form` and the document parser
    hand over the matrix they built uncopied.  ``kraus`` is a
    :class:`KrausSet` whose ``weighted_choi`` equals ``choi`` within
    rounding (kept by reference), or ``None``; below ``dim**2`` operators
    the spectrum is solved on its Gram matrix.
    """

    def __init__(self, choi, kraus=None):
        choi = _frozen(as_complex_matrix(choi))
        side = choi.shape[0]
        if choi.shape[0] != choi.shape[1]:
            raise DimensionMismatch(f"Choi matrix must be square, got {choi.shape}")
        dim = round(side ** 0.5)
        if dim * dim != side:
            raise DimensionMismatch(f"Choi side {side} is not a perfect square")
        self.dim = dim
        self.choi = choi
        self.kraus = kraus

    def _gram_route(self) -> bool:  # only then is the Gram matrix smaller than choi
        return self.kraus is not None and len(self.kraus) < len(self.choi)

    @cached_property
    def eigensystem(self):
        """``(values, vectors)`` of the Choi matrix, both read-only: all
        ``dim**2`` eigenvalues descending, and as contiguous columns (the
        transpose of a read-only array) the orthonormal eigenvectors of the
        leading ones, so that :func:`sign_split` reshapes them without a copy.

        A dense ``eigh`` gives a column for every eigenvalue.  A Kraus set
        of ``k < dim**2`` operators is solved on its ``k x k`` Gram matrix
        (:func:`~dynamap.linalg.gram_eigensystem`), which gives columns for
        the positive eigenvalues only; every eigenvalue past the last column
        is exactly ``0.0``.  Only the lower triangle of ``choi`` is read, so
        callers that need a meaningful spectrum check Hermiticity
        preservation first.
        """
        if not self._gram_route():
            values, vectors = np.linalg.eigh(self.choi)
            # one copy makes each column contiguous; eigh's array is freed
            values, vectors = values[::-1], np.ascontiguousarray(vectors[:, ::-1].T).T
        else:  # the Choi matrix is sum_i v_i v_i^dag over v_i = sqrt(w_i) vec(M_i)
            rows = self.kraus.folded_operators().reshape(-1, len(self.choi))
            values, vectors = gram_eigensystem(rows)
        values.flags.writeable = vectors.flags.writeable = vectors.base.flags.writeable = False
        return values, vectors

    @property
    def eigenvalues(self):
        """The eigensystem's values once it is cached (or cheap: the Gram
        route), else one ``eigvalsh`` without eigenvectors, cached;
        descending and read-only."""
        if "eigensystem" in vars(self) or self._gram_route():
            return self.eigensystem[0]
        return self._eigvalsh

    @cached_property
    def _eigvalsh(self):
        values = np.linalg.eigvalsh(self.choi)[::-1]
        values.flags.writeable = False
        return values

    @property
    def choi4(self) -> np.ndarray:
        """Choi entries as a 4-tensor indexed ``[out_row, in_row, out_col, in_col]``."""
        n = self.dim
        return self.choi.reshape(n, n, n, n)

    @cached_property
    def _hermiticity(self) -> tuple[float, float]:
        """``(‖B - B^dag‖_F, ‖B‖_F)`` of the Choi matrix ``B``."""
        return hermiticity_residual(self.choi), frob(self.choi)

    @cached_property
    def output_trace(self) -> np.ndarray:
        """``Tr_out B``, read-only, from ``choi4`` with no second validation."""
        traced = np.einsum("aiaj->ij", self.choi4)
        traced.flags.writeable = False
        return traced

    @cached_property
    def _tp_residual(self) -> float:
        """``‖Tr_out B - 1‖_F``."""
        return frob(self.output_trace - np.eye(self.dim))

    def __repr__(self):
        return f"LinearMap(dim={self.dim})"


class KrausSet:
    """A weighted family of same-sized operators realizing a CP map.

    ``operators`` is one complex ``(k, N, N)`` stack (``(0, N, N)`` keeps
    ``N`` for an empty set), read-only and kept by :func:`_frozen`, and
    ``weights`` are positive reals (default all one), a read-only copy; the
    induced map is ``rho -> sum_i w_i M_i rho M_i^dag``.  Completeness
    ``sum_i w_i M_i^dag M_i = 1`` holds exactly when that map is trace
    preserving; it is checked by consumers, never assumed here.
    """

    def __init__(self, operators, weights=None):
        try:
            ops = np.asarray(operators, dtype=complex)
        except ValueError:  # ragged nesting
            raise DimensionMismatch("Kraus operators must all have one square shape") from None
        ops = as_complex_stack(ops.reshape(0, 0, 0) if ops.shape == (0,) else ops)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatch(f"Kraus operators must be a (k, N, N) stack, got {ops.shape}")
        weights = np.ones(len(ops)) if weights is None else np.array(weights, dtype=float)
        if weights.shape != (len(ops),):
            raise DimensionMismatch("weights must match the number of operators")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        weights.flags.writeable = False  # a map may hold this set
        self.operators = _frozen(ops)
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
    """Apply a map to one matrix, or to each matrix of a stack ``(..., N, N)``.

    Each state is one vector-matrix product (GEMV) of its row-major
    vectorization with the transposed A form, so a state's result does not
    depend on the stack it is in; one matrix product over the whole stack
    would round differently with the stack size.
    """
    rho = as_states(rho, m.dim)
    n2 = m.dim * m.dim
    return (rho.reshape(-1, 1, n2) @ a_form(m).T).reshape(rho.shape)


def _reshuffle(m: np.ndarray) -> np.ndarray:
    """The exact index permutation relating the Choi form and the A form,
    as a new array that owns its data."""
    side = m.shape[0]
    n = round(side ** 0.5)
    if n * n != side or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix with square side, got {m.shape}")
    out = np.empty((side, side), dtype=m.dtype)
    out.reshape(n, n, n, n)[...] = m.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return out


def a_form(m: LinearMap) -> np.ndarray:
    """Superoperator acting on the row-major vectorized state."""
    return _reshuffle(m.choi)


def from_a_form(a) -> LinearMap:
    """Build a map from its superoperator (A form) matrix."""
    choi = _reshuffle(as_complex_matrix(a))
    choi.flags.writeable = False  # handed over: no one else holds it
    return LinearMap(choi)


def weighted_choi(operators: np.ndarray, weights) -> np.ndarray:
    """``sum_i w_i vec(M_i) vec(M_i)^dag`` over a ``(k, N, N)`` stack as one
    matrix product; signed weights give a difference of CP maps."""
    k, n, _ = operators.shape
    v = operators.reshape(k, n * n)
    return (v.T * np.asarray(weights, dtype=float)) @ v.conj()


def kraus_to_map(kraus: KrausSet) -> LinearMap:
    """Choi matrix of ``rho -> sum_i w_i M_i rho M_i^dag``.

    ``kraus`` is handed to the map by reference (no copy) as
    :attr:`LinearMap.kraus`.  A signed sum of CP maps is
    :func:`weighted_choi` with signed weights.
    """
    choi = weighted_choi(kraus.operators, kraus.weights)
    choi.flags.writeable = False  # handed over: no one else holds it
    return LinearMap(choi, kraus)


def sign_split(values, vectors, tol: ToleranceConfig = DEFAULT_TOL):
    """Group a Choi eigensystem by sign into ``(positive, negative)`` Kraus sets.

    ``values`` must be sorted descending, as :attr:`LinearMap.eigensystem`
    gives them, so each group is a slice.  ``vectors`` holds the
    eigenvectors of the leading values as columns of ``N^2`` rows (else
    :class:`DimensionMismatch`); it may lack the columns of trailing
    values that are exactly zero, as the Gram route of
    :attr:`LinearMap.eigensystem` does (any other shortfall leaves a group
    with fewer operators than weights, which :class:`KrausSet` refuses).
    Eigenvectors of the values that :func:`~dynamap.linalg.sign_counts`
    finds positive become Hilbert-Schmidt-orthonormal operators weighted by
    the value, those it finds negative are weighted by its absolute value,
    and the zero values are discarded from both.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values[1:] > values[:-1]):
        raise ValueError("eigenvalues must be sorted descending")
    dim = round(len(vectors) ** 0.5)
    if dim * dim != len(vectors):
        raise DimensionMismatch(f"eigenvector length {len(vectors)} is not a perfect square")
    # a view of the columns when they are contiguous, as in LinearMap.eigensystem
    ops = np.asarray(vectors, dtype=complex).T.reshape(-1, dim, dim)
    n_pos, n_neg = sign_counts(values, tol)
    neg = len(values) - n_neg
    return KrausSet(ops[:n_pos], values[:n_pos]), KrausSet(ops[neg:], -values[neg:])


def require_hermiticity_preserving(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Raise :class:`NonHermitianChoi` unless the Choi matrix is Hermitian."""
    tol.require(NonHermitianChoi, "Choi Hermiticity", *m._hermiticity)


def require_tp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Raise :class:`NonHermitianChoi` unless the map preserves Hermiticity,
    then :class:`NotTracePreserving` unless it preserves the trace."""
    require_hermiticity_preserving(m, tol)
    tol.require(NotTracePreserving, "trace-preservation", m._tp_residual)


def map_to_kraus(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Canonical decomposition of a Hermiticity-preserving map: the
    :func:`sign_split` of its Choi eigensystem."""
    require_hermiticity_preserving(m, tol)
    return sign_split(*m.eigensystem, tol)


def choi_eigenvalues(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of the Choi matrix of a Hermiticity-preserving map,
    descending: :attr:`LinearMap.eigenvalues`, so no eigenvector is solved
    for them unless the eigensystem is cached already."""
    require_hermiticity_preserving(m, tol)
    return m.eigenvalues


def check_tp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Trace preservation: partial trace of the Choi matrix over the output
    index must equal the identity.  Returns ``(verdict, residual)``."""
    return tol.passes(m._tp_residual), m._tp_residual


def check_hermiticity_preserving(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Hermiticity preservation: the Choi matrix must be Hermitian.
    Returns ``(verdict, residual)``; the bound scales with the Choi norm."""
    return tol.passes(*m._hermiticity), m._hermiticity[0]


def check_cp(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Complete positivity: the Choi matrix must be PSD.

    Requires a Hermiticity-preserving map (raises :class:`NonHermitianChoi`
    otherwise).  Returns ``(verdict, min_choi_eigenvalue)``; the verdict
    holds when no eigenvalue is negative by :func:`~dynamap.linalg.sign_counts`.
    """
    values = choi_eigenvalues(m, tol)
    return sign_counts(values, tol)[1] == 0, float(values[-1])

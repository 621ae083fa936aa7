"""Splitting a trace-preserving map into completely positive parts.

Any Hermiticity-preserving map decomposes through the eigensystem of its
Choi matrix into a difference of two completely positive maps,

    map = positive_part - negative_part,

by grouping eigenvalues by sign.  Two Hermitian matrices summarize the
traces of the parts:

    Tr[positive_part(X)] = Tr[plus_functional @ X]
    Tr[negative_part(X)] = Tr[minus_functional @ X]

with closed forms ``plus_functional = sum_i lambda_i L_i^dag L_i`` over the
positive eigenpairs and likewise (absolute values) for the minus side; each
is the transposed output partial trace of its part's Choi matrix.  For
a trace-preserving map ``plus_functional - minus_functional = 1``, which
forces ``plus_functional`` to be positive definite while
``minus_functional`` stays PSD and may be singular.

Vectors annihilated by ``minus_functional`` are annihilated by every
negative canonical operator, so the negative part destroys any input
supported on that kernel; consequently

    negative_part(rho) = negative_part(support_projector @ rho)

for every input.  ``verify_annihilation`` measures all of these statements
numerically and ``trace_functionals`` measures the trace identities.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SingularJ
from .linalg import (
    DEFAULT_TOL, ToleranceConfig, max_frob, sign_counts, spectral_power, within_rounding,
)
from .maps import LinearMap, apply_map, kraus_to_map, require_tp, sign_split
from .generators import random_complex, random_density_matrix, seeded_stack


@dataclass(frozen=True, eq=False)
class CPSplit:
    """The sign-split of a map: its ``source``, two CP part maps whose
    ``kraus`` are its two Kraus families, and the ``tol`` that made it, which
    judges every verdict on the split (:func:`verify_annihilation`,
    :func:`trace_functionals`, :func:`~dynamap.extension.sector_choi_report`).
    The negative part's Choi matrix is its Kraus sum.  The positive part's
    is ``source.choi + negative_part.choi`` (``source.choi`` itself, shared,
    when there is no negative part) when the eigenvalues cut as zero and
    the source's anti-Hermitian part are both at the rounding floor of the
    spectrum, else its Kraus sum; either way equal to its Kraus sum within
    rounding.

    The rest is derived from the parts on first use and cached.
    ``plus_functional`` and ``minus_functional`` are the transposed output
    traces of the parts, each solved by one ``eigh``: ``plus_eigenvalues``
    (ascending) and ``plus_eigenvectors``, and ``kernel_basis`` and
    ``support_basis``, orthonormal columns spanning the kernel and the range
    of ``minus_functional``.  ``plus_inv``, ``plus_sqrt`` and
    ``plus_inv_sqrt`` are the powers -1, 1/2 and -1/2 of ``plus_functional``
    and raise :class:`SingularJ` when it is singular; ``minus_pinv``,
    ``minus_sqrt``, ``minus_pinv_sqrt`` and ``support_projector`` are the
    powers -1, 1/2, -1/2 and 0 of ``minus_functional`` over the eigenpairs
    of its support, read from its eigensystem, not from ``support_basis``.
    """

    source: LinearMap
    positive_part: LinearMap
    negative_part: LinearMap
    tol: ToleranceConfig

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def n_positive(self) -> int:
        return len(self.positive_part.kraus)

    @property
    def n_negative(self) -> int:
        return len(self.negative_part.kraus)

    @property
    def has_negative_part(self) -> bool:
        return self.n_negative > 0

    # Tr[part(X)] = Tr[F X] makes F the transposed output trace of the part
    plus_functional = cached_property(lambda self: self.positive_part.output_trace.T)
    minus_functional = cached_property(lambda self: self.negative_part.output_trace.T)
    _plus_eigh = cached_property(lambda self: np.linalg.eigh(self.plus_functional))
    _minus_eigh = cached_property(lambda self: np.linalg.eigh(self.minus_functional))
    plus_eigenvalues = cached_property(lambda self: self._plus_eigh[0])
    plus_eigenvectors = cached_property(lambda self: self._plus_eigh[1])

    def _zeros(self, values) -> int:  # ascending, so the zeros are a leading slice
        return len(values) - sign_counts(values, self.tol)[0]

    _kernel_dim = cached_property(lambda self: self._zeros(self._minus_eigh[0]))
    kernel_basis = cached_property(lambda self: self._minus_eigh[1][:, : self._kernel_dim])
    support_basis = cached_property(lambda self: self._minus_eigh[1][:, self._kernel_dim :])

    def _power(self, power: float, minus: bool = False) -> np.ndarray:
        if minus:
            (values, vectors), k = self._minus_eigh, self._kernel_dim
        else:
            values, vectors = self.plus_eigenvalues, self.plus_eigenvectors
            if k := self._zeros(values):
                raise SingularJ(f"plus functional min eigenvalue {values[0]:.3e}")
        return spectral_power(values[k:], vectors[:, k:], power)

    plus_inv = cached_property(lambda self: self._power(-1.0))
    plus_sqrt = cached_property(lambda self: self._power(0.5))
    plus_inv_sqrt = cached_property(lambda self: self._power(-0.5))
    minus_pinv = cached_property(lambda self: self._power(-1.0, minus=True))
    minus_sqrt = cached_property(lambda self: self._power(0.5, minus=True))
    minus_pinv_sqrt = cached_property(lambda self: self._power(-0.5, minus=True))
    support_projector = cached_property(lambda self: self._power(0.0, minus=True))


@dataclass(frozen=True)
class AnnihilationReport:
    """Residuals of the kernel-annihilation identities (all should vanish).

    ``kernel_state_residual``: negative part applied to kernel projectors.
    ``kernel_cross_residual``: negative part applied to the kernel/support
    dyads ``|phi><psi|``; their adjoints ``|psi><phi|`` give the same norms
    for a Hermiticity-preserving negative part.
    ``mechanism_residual``: norms of negative canonical operators acting on
    kernel vectors (the reason the two previous families vanish).
    ``support_restriction_residual``: difference between the negative part
    applied to random states and to their support-projected versions.
    The fields are the ``annihilation`` section of a ``decompose`` report.
    """

    kernel_state_residual: float
    kernel_cross_residual: float
    mechanism_residual: float
    support_restriction_residual: float
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class TraceFunctionalReport:
    """Residuals of the trace-functional identities over random inputs;
    the ``trace_functionals`` section of a ``decompose`` report."""

    plus_residual: float
    minus_residual: float
    plus_inverse_residual: float
    minus_support_residual: float
    max_residual: float
    passed: bool


def cp_split(m: LinearMap, tol: ToleranceConfig = DEFAULT_TOL) -> CPSplit:
    """Split a TP Hermiticity-preserving map into its CP parts.

    Raises :class:`NonHermitianChoi` or :class:`NotTracePreserving` when the
    preconditions fail.
    """
    require_tp(m, tol)
    return split_from_eigensystem(m, *m.eigensystem, tol)


def split_from_eigensystem(
    m: LinearMap, values, vectors, tol: ToleranceConfig = DEFAULT_TOL
) -> CPSplit:
    """Assemble a :class:`CPSplit` from a given Choi eigensystem, eigenvalues
    descending as :attr:`LinearMap.eigensystem` gives them (:func:`sign_split`
    raises ``ValueError`` otherwise).

    Exposed separately so that basis invariance under eigenvalue degeneracy
    can be exercised: any orthonormal basis of each degenerate eigenspace
    must lead to a split with identical action.
    """
    if len(vectors) != m.dim ** 2:  # sign_split reads the operator side off this length
        raise DimensionMismatch(f"eigenvector length {len(vectors)} does not match dim {m.dim}")
    positive, negative = sign_split(values, vectors, tol)
    negative_part = kraus_to_map(negative)
    # source = positive - negative + (the values cut as zero) + (its
    # anti-Hermitian part, half of B - B^dag, which eigh does not read):
    # with both at the rounding floor, source + negative is the positive part
    band = values[len(positive) : len(values) - len(negative)]
    if not within_rounding(values, max(np.abs(band).max(initial=0.0), m._hermiticity[0] / 2)):
        return CPSplit(m, kraus_to_map(positive), negative_part, tol)
    choi = m.choi
    if len(negative):
        choi = m.choi + negative_part.choi
        choi.flags.writeable = False  # handed over: no one else holds it
    return CPSplit(m, LinearMap(choi, positive), negative_part, tol)


def verify_annihilation(split: CPSplit, samples: int = 20, seed: int = 0) -> AnnihilationReport:
    """Measure how exactly the negative part annihilates the kernel.

    All four residual families must pass ``split.tol``; they are
    vacuously zero when the kernel is empty (checks over empty index sets).
    """
    n, neg = split.dim, split.negative_part
    kernel, support = split.kernel_basis.T, split.support_basis.T  # one vector per row

    def dyads(kets, bras):  # |ket><bra| over the broadcast leading axes, as np.outer
        return kets[..., :, None] * bras[..., None, :].conj()

    kernel_state = max_frob(apply_map(neg, dyads(kernel, kernel)))
    # N(X^dag) = N(X)^dag, so the |support><kernel| dyads repeat these norms
    cross = max_frob(apply_map(neg, dyads(kernel[:, None], support)))
    # every negative operator on every kernel vector, as a stack of columns
    mechanism = max_frob(neg.kraus.operators[:, None] @ kernel[:, :, None])
    rhos = seeded_stack(random_density_matrix, n, samples, seed)
    restriction = max_frob(apply_map(neg, rhos) - apply_map(neg, split.support_projector @ rhos))

    worst = max(kernel_state, cross, mechanism, restriction)
    return AnnihilationReport(
        kernel_state_residual=kernel_state,
        kernel_cross_residual=cross,
        mechanism_residual=mechanism,
        support_restriction_residual=restriction,
        max_residual=worst,
        passed=split.tol.passes(worst),
    )


def trace_functionals(split: CPSplit, samples: int = 20, seed: int = 0) -> TraceFunctionalReport:
    """Measure the trace-functional identities on random matrices.

    Checks, for random ``X``: ``Tr[positive_part(X)] = Tr[plus_functional X]``
    and the minus-side analogue, plus the normalized forms
    ``Tr[positive_part(plus_functional^{-1} X)] = Tr[X]`` and
    ``Tr[negative_part(minus_pinv X)] = Tr[support_projector X]``.
    Raises :class:`SingularJ` when the plus functional is numerically
    singular, which cannot happen for a trace-preserving source.
    """
    j_inv = split.plus_inv
    xs = seeded_stack(lambda n, rng: random_complex((n, n), rng), split.dim, samples, seed)

    def gap(a, b):  # largest |Tr a - Tr b| over the stack; hypot is Python's abs
        diff = np.trace(a, axis1=-2, axis2=-1) - np.trace(b, axis1=-2, axis2=-1)
        return float(np.max(np.hypot(diff.real, diff.imag), initial=0.0))

    pos, neg = split.positive_part, split.negative_part
    plus_res = gap(apply_map(pos, xs), split.plus_functional @ xs)
    minus_res = gap(apply_map(neg, xs), split.minus_functional @ xs)
    plus_inv_res = gap(apply_map(pos, j_inv @ xs), xs)
    minus_sup_res = gap(apply_map(neg, split.minus_pinv @ xs), split.support_projector @ xs)
    worst = max(plus_res, minus_res, plus_inv_res, minus_sup_res)
    return TraceFunctionalReport(
        plus_residual=plus_res,
        minus_residual=minus_res,
        plus_inverse_residual=plus_inv_res,
        minus_support_residual=minus_sup_res,
        max_residual=worst,
        passed=split.tol.passes(worst),
    )

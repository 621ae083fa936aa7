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

from .errors import SingularJ
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    max_frob,
    partial_trace,
    spectral_power,
    zero_cut,
)
from .maps import KrausSet, LinearMap, apply_map, kraus_to_map, require_tp, sign_split
from .generators import random_complex, random_density_matrix, seeded_stack


@dataclass(frozen=True, eq=False)
class CPSplit:
    """The sign-split of a map together with its trace-functional data.

    ``plus_eigenvalues`` (ascending) and ``plus_eigenvectors`` are the
    eigensystem of ``plus_functional``.  ``kernel_basis`` and
    ``support_basis`` hold orthonormal column vectors spanning the kernel
    and the range of ``minus_functional``; ``minus_pinv @ minus_functional ==
    support_projector`` within tolerance, and ``minus_sqrt`` and
    ``minus_pinv_sqrt`` are the square roots of ``minus_functional`` and of
    ``minus_pinv``.  ``plus_inv``, ``plus_sqrt`` and ``plus_inv_sqrt`` are
    the powers -1, 1/2 and -1/2 of ``plus_functional``, each computed once,
    on first use; they raise :class:`SingularJ` when it is singular.
    """

    source: LinearMap
    positive_part: LinearMap
    negative_part: LinearMap
    positive_kraus: KrausSet
    negative_kraus: KrausSet
    plus_functional: np.ndarray
    minus_functional: np.ndarray
    plus_eigenvalues: np.ndarray
    plus_eigenvectors: np.ndarray
    minus_pinv: np.ndarray
    minus_sqrt: np.ndarray
    minus_pinv_sqrt: np.ndarray
    support_projector: np.ndarray
    kernel_basis: np.ndarray
    support_basis: np.ndarray
    n_positive: int
    n_negative: int
    tol: ToleranceConfig

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def has_negative_part(self) -> bool:
        return self.n_negative > 0

    def _plus_power(self, power: float) -> np.ndarray:
        w = self.plus_eigenvalues
        if w[0] <= zero_cut(w, self.tol):
            raise SingularJ(f"plus functional min eigenvalue {w[0]:.3e}")
        return spectral_power(w, self.plus_eigenvectors, power)

    plus_inv = cached_property(lambda self: self._plus_power(-1.0))
    plus_sqrt = cached_property(lambda self: self._plus_power(0.5))
    plus_inv_sqrt = cached_property(lambda self: self._plus_power(-0.5))


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
    """

    kernel_state_residual: float
    kernel_cross_residual: float
    mechanism_residual: float
    support_restriction_residual: float
    max_residual: float
    passed: bool
    kernel_dim: int
    support_dim: int
    samples: int
    seed: int


@dataclass(frozen=True)
class TraceFunctionalReport:
    """Residuals of the trace-functional identities over random inputs."""

    plus_residual: float
    minus_residual: float
    plus_inverse_residual: float
    minus_support_residual: float
    max_residual: float
    passed: bool
    samples: int
    seed: int


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
    """Assemble a :class:`CPSplit` from a given Choi eigensystem.

    Exposed separately so that basis invariance under eigenvalue degeneracy
    can be exercised: any orthonormal basis of each degenerate eigenspace
    must lead to a split with identical action.
    """
    n = m.dim
    positive_kraus, negative_kraus = sign_split(values, vectors, n, tol)
    positive_part, negative_part = (kraus_to_map(k) for k in (positive_kraus, negative_kraus))
    # Tr[part(X)] = Tr[F X] makes F the transposed output partial trace
    plus_functional, minus_functional = (
        partial_trace(part.choi, (n, n), "a").T for part in (positive_part, negative_part)
    )

    j_vals, j_vecs = np.linalg.eigh(plus_functional)
    k_vals, k_vecs = np.linalg.eigh(minus_functional)
    keep = k_vals > zero_cut(k_vals, tol)
    support_basis = k_vecs[:, keep]
    support_vals = k_vals[keep]

    return CPSplit(
        source=m,
        positive_part=positive_part,
        negative_part=negative_part,
        positive_kraus=positive_kraus,
        negative_kraus=negative_kraus,
        plus_functional=plus_functional,
        minus_functional=minus_functional,
        plus_eigenvalues=j_vals,
        plus_eigenvectors=j_vecs,
        minus_pinv=spectral_power(support_vals, support_basis, -1.0),
        minus_sqrt=spectral_power(support_vals, support_basis, 0.5),
        minus_pinv_sqrt=spectral_power(support_vals, support_basis, -0.5),
        support_projector=spectral_power(support_vals, support_basis, 0.0),
        kernel_basis=k_vecs[:, ~keep],
        support_basis=support_basis,
        n_positive=len(positive_kraus),
        n_negative=len(negative_kraus),
        tol=tol,
    )


def verify_annihilation(
    split: CPSplit,
    tol: ToleranceConfig = DEFAULT_TOL,
    samples: int = 20,
    seed: int = 0,
) -> AnnihilationReport:
    """Measure how exactly the negative part annihilates the kernel.

    All four residual families must stay below ``residual_abs``; they are
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
    mechanism = max_frob(split.negative_kraus.operators[:, None] @ kernel[:, :, None])
    rhos = seeded_stack(random_density_matrix, n, samples, seed)
    restriction = max_frob(apply_map(neg, rhos) - apply_map(neg, split.support_projector @ rhos))

    worst = max(kernel_state, cross, mechanism, restriction)
    return AnnihilationReport(
        kernel_state_residual=kernel_state,
        kernel_cross_residual=cross,
        mechanism_residual=mechanism,
        support_restriction_residual=restriction,
        max_residual=worst,
        passed=bool(worst <= tol.residual_abs),
        kernel_dim=len(kernel),
        support_dim=len(support),
        samples=samples,
        seed=seed,
    )


def trace_functionals(
    split: CPSplit,
    samples: int = 20,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TraceFunctionalReport:
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
        passed=bool(worst <= tol.residual_abs),
        samples=samples,
        seed=seed,
    )

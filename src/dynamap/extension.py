"""Extension maps and the sector evolution that reconstructs the source map.

An extension map embeds a system state into a system-plus-ancilla operator
whose ancilla partial trace returns the state unchanged.  For a completely
positive map the standard product extension ``rho -> rho (x) |0><0|``
suffices.  For a map with a genuine negative part the two-block extension

    E(rho) = plus_functional @ rho   on the "+" ancilla label,
           -(minus_functional @ rho) on the "-" ancilla label

still traces back to ``rho`` because the functionals differ by the identity
for any trace-preserving source.  The blocks are labels, never materialized
as ancilla kets; an :class:`ExtendedState` simply stores both blocks with
the minus sign folded in, so the ancilla partial trace is a plain block sum.

The sector evolution then divides the functional back out and applies the
matching CP part blockwise:

    plus block:   X -> positive_part(plus_functional^{-1} @ X)
    minus block:  X -> negative_part(minus_pinv @ X)

Tracing out the block label afterwards reproduces the source map exactly:
the pseudo-inverse only recovers the support projector, but the negative
part cannot see the difference (it annihilates the kernel).

Two variants are provided.  The ``literal`` variant above satisfies the
extension condition (block sum equals ``rho``) but its sector maps need not
even preserve Hermiticity, since left multiplication by a fixed matrix does
not.  The ``symmetric`` variant sandwiches the state between Hermitian
square roots instead (``sqrt(F) rho sqrt(F)`` and the matching inverse
roots), making both sector maps manifestly completely positive, at the
price of violating the extension condition whenever the functionals are not
scalar.  Both variants reconstruct the source map; ``sector_choi_report``
measures what each one satisfies instead of asserting it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cpsplit import CPSplit
from .errors import DimensionMismatch
from .linalg import DEFAULT_TOL, ToleranceConfig, as_complex_matrix, frob, kron, max_frob
from .maps import (
    DensityMatrix,
    KrausSet,
    a_form,
    apply_map,
    as_states,
    check_hermiticity_preserving,
    from_a_form,
)


@dataclass(frozen=True, eq=False)
class ExtendedState:
    """Two signed blocks of an extended system-plus-label operator, or of
    each operator of a stack when the blocks are stacks ``(..., dim, dim)``.

    ``minus_block`` is ``None`` when the source map has no negative part, in
    which case the extension needs no second label at all.
    """

    dim: int
    plus_block: np.ndarray
    minus_block: np.ndarray | None

    @property
    def has_minus(self) -> bool:
        return self.minus_block is not None

    def block_sum(self) -> np.ndarray:
        """Partial trace over the block label."""
        if self.minus_block is None:
            return self.plus_block
        return self.plus_block + self.minus_block


@dataclass(frozen=True)
class DimensionReport:
    """Sizes of the extended spaces required by the construction."""

    extension_dim: int
    dilation_dim: int
    n_squared_bound: int


def product_extension(rho, ancilla_dim: int) -> np.ndarray:
    """The standard product extension ``rho (x) |0><0|`` on a d-dim ancilla."""
    if ancilla_dim < 1:
        raise ValueError(f"ancilla_dim must be >= 1, got {ancilla_dim}")
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    rho = as_complex_matrix(rho)
    anc = np.zeros((ancilla_dim, ancilla_dim), dtype=complex)
    anc[0, 0] = 1.0
    return kron(rho, anc)


def _sector_factors(split: CPSplit, variant: str, inverse: bool):
    """``(left, right)`` factors of the plus and minus sectors of a variant.

    The extension puts ``left @ rho @ right`` in each sector; with
    ``inverse`` the factors are the (pseudo-)inverses the sector evolution
    applies.  ``right`` is the identity for ``literal``, which therefore
    never takes a root; the plus factors other than ``plus_functional``
    raise :class:`SingularJ` when it is singular.
    """
    if variant == "literal":
        eye = np.eye(split.dim)
        if inverse:
            return (split.plus_inv, eye), (split.minus_pinv, eye)
        return (split.plus_functional, eye), (split.minus_functional, eye)
    if variant == "symmetric":
        plus, minus = (
            (split.plus_inv_sqrt, split.minus_pinv_sqrt) if inverse
            else (split.plus_sqrt, split.minus_sqrt)
        )
        return (plus, plus), (minus, minus)
    raise ValueError(f"unknown variant {variant!r}")


def build_extension(split: CPSplit, rho, variant: str = "literal") -> ExtendedState:
    """Extend a state, or each state of a stack, into the two signed blocks
    for the given variant."""
    rho = as_states(rho, split.dim)
    (pl, pr), (ml, mr) = _sector_factors(split, variant, inverse=False)
    minus = -(ml @ rho @ mr) if split.has_negative_part else None
    return ExtendedState(dim=split.dim, plus_block=pl @ rho @ pr, minus_block=minus)


def apply_sector_map(split: CPSplit, state: ExtendedState, variant: str = "literal") -> ExtendedState:
    """Apply the blockwise CP evolution to an extended state.

    Acts independently on the two blocks; cross blocks are not represented.
    The minus sign stored in the state passes through linearly.
    """
    if state.dim != split.dim:
        raise DimensionMismatch(f"state dim {state.dim} does not match split dim {split.dim}")
    (pl, pr), (ml, mr) = _sector_factors(split, variant, inverse=True)
    plus = apply_map(split.positive_part, pl @ state.plus_block @ pr)
    minus = None
    if state.has_minus:
        minus = apply_map(split.negative_part, ml @ state.minus_block @ mr)
    return ExtendedState(dim=split.dim, plus_block=plus, minus_block=minus)


def reconstruct(split: CPSplit, rho, variant: str = "literal"):
    """Run extension -> sector evolution -> block sum and compare to the map.

    Returns ``(result, residual)`` where ``residual`` is the Frobenius
    distance between the chain output and the source map applied directly.
    For a stack of states ``(..., N, N)`` the result is the stack of chain
    outputs and the residual the largest per-state distance.
    """
    rho = as_states(rho, split.dim)
    chain = apply_sector_map(split, build_extension(split, rho, variant), variant)
    result = chain.block_sum()
    return result, max_frob(result - apply_map(split.source, rho))


def _sector_a_forms(split: CPSplit, variant: str):
    """A-form matrices of the plus and minus sector maps.

    Each is ``a_form(part) @ kron(left, right.T)``; row ``i`` of that
    product, read as an N x N matrix ``R_i``, is ``left.T @ R_i @ right.T``,
    so one stacked product builds it without the ``kron``.
    """
    n = split.dim
    factors = _sector_factors(split, variant, inverse=True)
    parts = (split.positive_part, split.negative_part)
    return tuple(
        (left.T @ a_form(part).reshape(-1, n, n) @ right.T).reshape(n * n, n * n)
        for part, (left, right) in zip(parts, factors)
    )


def _gram_min_eig(kraus: KrausSet, root: np.ndarray) -> float:
    """Minimum eigenvalue of the Choi matrix ``W W^dag`` of
    ``X -> sum_i w_i (M_i root) X (M_i root)^dag``.

    The columns of W are ``sqrt(w_i) vec(M_i root)``; the l x l Gram matrix
    ``W^dag W`` has the same nonzero spectrum, and the N^2 - l eigenvalues
    it lacks are zero.
    """
    w = np.sqrt(kraus.weights)[:, None, None] * (kraus.operators @ root)
    w = w.reshape(len(kraus), -1)
    eigs = np.linalg.eigvalsh(w.conj() @ w.T)
    return float(eigs[0] if len(eigs) == w.shape[1] else min(eigs[0], 0.0))


@dataclass(frozen=True)
class SectorChoiReport:
    """Hermiticity residual and minimum eigenvalue of the sector-map Choi
    matrices; ``min_eig`` entries are ``None`` when the Choi matrix is not
    Hermitian within tolerance (no spectral claim is meaningful then).

    The ``full_*`` fields describe the map on the extended space, sector
    maps on the diagonal blocks and zero on the cross blocks.  Its Choi
    matrix is the direct sum of the sector Choi matrices padded with zeros,
    so they follow from the sector statistics without building it.

    In the ``symmetric`` variant the minima come from the l x l Gram matrix
    of the sector's l Kraus operators, so they are exactly 0.0 when
    l < N^2."""

    variant: str
    plus_hermiticity_residual: float
    plus_min_eig: float | None
    minus_hermiticity_residual: float | None
    minus_min_eig: float | None
    full_dim: int
    full_hermiticity_residual: float
    full_min_eig: float | None


def sector_choi_report(
    split: CPSplit, variant: str, tol: ToleranceConfig = DEFAULT_TOL
) -> SectorChoiReport:
    """Measure Hermiticity and positivity of the sector maps for a variant."""
    a_forms = _sector_a_forms(split, variant)
    sectors = [from_a_form(a) for a in a_forms[: 2 if split.has_negative_part else 1]]
    oks, residuals = zip(*(check_hermiticity_preserving(m, tol) for m in sectors))
    full_res = math.hypot(*residuals)
    full_ok = full_res <= tol.residual_abs * max(1.0, math.hypot(*(frob(m.choi) for m in sectors)))
    # the eigensolver reads one triangle, so a sector that fails its own
    # Hermiticity verdict still has a spectrum inside a Hermitian full Choi
    spectral = [ok or full_ok for ok in oks]
    if variant == "symmetric":
        # a sector evolves by the Kraus operators L_i @ root, so its Choi is
        # W W^dag and the small Gram matrix W^dag W carries its spectrum
        factors = _sector_factors(split, variant, inverse=True)
        kraus = (split.positive_kraus, split.negative_kraus)
        min_eigs = [_gram_min_eig(k, root) if want else None
                    for want, k, (root, _) in zip(spectral, kraus, factors)]
    else:
        min_eigs = [float(m.eigensystem[0][-1]) if want else None
                    for want, m in zip(spectral, sectors)]
    full_min = None
    if full_ok:
        # two sectors leave zero rows and columns in the padded full Choi
        full_min = min(min_eigs + [0.0]) if len(sectors) == 2 else min_eigs[0]
    stats = [(res, eig if ok else None) for ok, res, eig in zip(oks, residuals, min_eigs)]
    (plus_res, plus_min), (minus_res, minus_min) = stats + [(None, None)] * (2 - len(stats))
    return SectorChoiReport(
        variant=variant,
        plus_hermiticity_residual=plus_res,
        plus_min_eig=plus_min,
        minus_hermiticity_residual=minus_res,
        minus_min_eig=minus_min,
        full_dim=len(sectors) * split.dim,
        full_hermiticity_residual=full_res,
        full_min_eig=full_min,
    )


def dimension_report(split: CPSplit) -> DimensionReport:
    """Extended-space dimensions: the extension needs one system copy per
    nonzero block; the unitary dilation of the sector evolution needs one
    copy per canonical operator of each block's CP part."""
    n = split.dim
    bound = n * n
    if split.n_positive + split.n_negative > bound:
        raise ValueError("canonical operator count exceeds the dimension bound")
    dim_plus = n
    dim_minus = n if split.has_negative_part else 0
    return DimensionReport(
        extension_dim=dim_plus + dim_minus,
        dilation_dim=dim_plus * split.n_positive + dim_minus * split.n_negative,
        n_squared_bound=bound,
    )

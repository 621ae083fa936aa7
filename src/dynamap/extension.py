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
from .linalg import ToleranceConfig, frob, hermiticity_residual, max_frob
from .maps import LinearMap, apply_map, as_states


@dataclass(frozen=True, eq=False)
class ExtendedState:
    """Two signed blocks of an extended system-plus-label operator, or of
    each operator of a stack when the blocks are stacks ``(..., dim, dim)``.

    ``minus_block`` is ``None`` when the source map has no negative part, in
    which case the extension needs no second label at all.
    """

    plus_block: np.ndarray
    minus_block: np.ndarray | None
    dim = property(lambda self: self.plus_block.shape[-1])

    def block_sum(self) -> np.ndarray:
        """Partial trace over the block label."""
        if self.minus_block is None:
            return self.plus_block
        return self.plus_block + self.minus_block


@dataclass(frozen=True)
class DimensionReport:
    """Extended-space sizes; the ``dimensions`` section of a ``decompose`` report."""

    extension_dim: int
    dilation_dim: int
    n_squared_bound: int


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
    return ExtendedState(plus_block=pl @ rho @ pr, minus_block=minus)


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
    if state.minus_block is not None:
        minus = apply_map(split.negative_part, ml @ state.minus_block @ mr)
    return ExtendedState(plus_block=plus, minus_block=minus)


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


def _sector_choi(part: LinearMap, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Choi matrix of the sector map ``X -> part(left @ X @ right)``.

    Its block ``[a, :, b, :]`` is ``left.T @ P_ab @ right.T`` for the block
    ``P_ab`` of the part's Choi matrix, so one stacked product over the
    blocks builds it without a ``kron``, and the last factor writes it
    straight into Choi order.
    """
    n = part.dim
    choi = np.empty((n, n, n, n), dtype=complex)
    blocks = part.choi4.transpose(0, 2, 1, 3)  # [a, b, :, :]
    np.matmul(left.T @ blocks, right.T, out=choi.transpose(0, 2, 1, 3))
    return choi.reshape(n * n, n * n)


@dataclass(frozen=True)
class SectorChoiReport:
    """Hermiticity residual and minimum eigenvalue of the sector-map Choi
    matrices; ``min_eig`` entries are ``None`` when the Choi matrix is not
    Hermitian within tolerance (no spectral claim is meaningful then).

    The ``full_*`` fields describe the map on the extended space, sector
    maps on the diagonal blocks and zero on the cross blocks.  Its Choi
    matrix is the direct sum of the sector Choi matrices padded with zeros,
    so they follow from the sector statistics without building it.

    A ``symmetric`` sector with l < N^2 Kraus operators is CP with a Choi
    matrix of rank at most l, so its minimum is exactly 0.0 with no solve.
    The fields are a ``sector_maps.<variant>`` report section."""

    plus_hermiticity_residual: float
    plus_min_eig: float | None
    minus_hermiticity_residual: float | None
    minus_min_eig: float | None
    full_dim: int
    full_hermiticity_residual: float
    full_min_eig: float | None


def _sector_min_eig(variant: str, part: LinearMap, left: np.ndarray, right: np.ndarray) -> float:
    """Minimum eigenvalue of the Choi matrix of ``X -> part(left @ X @ right)``."""
    if variant == "symmetric" and len(part.kraus) < part.dim ** 2:
        # a sum of one PSD rank-one term per operator M_i @ root: rank < N^2
        return 0.0
    return float(np.linalg.eigvalsh(_sector_choi(part, left, right))[0])


def sector_choi_report(
    split: CPSplit, variant: str, tol: ToleranceConfig | None = None
) -> SectorChoiReport:
    """Measure Hermiticity and positivity of the sector maps for a variant
    under ``split.tol``; a ``tol`` other than ``split.tol`` raises ``ValueError``.

    One sector's Choi matrix is alive at a time: each is built for its
    Hermiticity residual and norm, freed, and built again for its spectrum
    when one is wanted (an N^5 product beside the N^6 eigensolver).  The
    spectrum is solved for every ``literal`` sector and for a ``symmetric``
    sector only at full Kraus rank l = N^2; below it the minimum is 0.0.
    """
    if tol not in (None, split.tol):
        raise ValueError("a split is judged under the tolerance that made it")
    factors = _sector_factors(split, variant, inverse=True)
    sectors = list(zip((split.positive_part, split.negative_part), factors))
    sectors = sectors[: 2 if split.has_negative_part else 1]
    measured = []
    for part, (left, right) in sectors:
        choi = _sector_choi(part, left, right)
        measured.append((hermiticity_residual(choi), frob(choi)))
        del choi
    oks = [split.tol.passes(res, norm) for res, norm in measured]
    residuals, norms = zip(*measured)
    full_res = math.hypot(*residuals)
    full_ok = split.tol.passes(full_res, math.hypot(*norms))
    # the eigensolver reads one triangle, so a sector that fails its own
    # Hermiticity verdict still has a spectrum inside a Hermitian full Choi
    min_eigs = [_sector_min_eig(variant, part, left, right) if ok or full_ok else None
                for ok, (part, (left, right)) in zip(oks, sectors)]
    # two sectors leave zero rows and columns in the padded full Choi
    full_min = min(min_eigs + [0.0] * (len(sectors) - 1)) if full_ok else None
    stats = [(res, eig if ok else None) for ok, res, eig in zip(oks, residuals, min_eigs)]
    (plus_res, plus_min), (minus_res, minus_min) = stats + [(None, None)] * (2 - len(stats))
    return SectorChoiReport(
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
    return DimensionReport(
        extension_dim=n * (1 + split.has_negative_part),
        dilation_dim=n * (split.n_positive + split.n_negative),
        n_squared_bound=bound,
    )

"""Unitary dilation of CPTP maps from their Kraus operators.

A map given by complete Kraus operators ``{M_i}`` acts as conjugation by a
unitary on system (x) ancilla followed by tracing out the ancilla:

    map(rho) = Tr_anc[ U (rho (x) |0><0|) U^dag ]

The columns of ``U`` addressed by the ancilla reference index are the
stacked isometry ``x -> sum_i (M_i x) (x) |i>``; completeness makes those
columns orthonormal, and the remaining columns are the orthogonal complement
from one complete QR factorization of the isometry.  That completion is
deterministic for a given numpy/LAPACK build.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NotCompleteKraus
from .generators import random_density_matrix, seeded_stack
from .linalg import DEFAULT_TOL, ToleranceConfig, isometry_residual, max_frob
from .maps import KrausSet, LinearMap, apply_map, as_states


@dataclass(frozen=True, eq=False)
class UnitaryDilation:
    ancilla_dim: int
    unitary: np.ndarray
    ancilla_ref_index: ClassVar[int] = 0  # the isometry's columns are 0::ancilla_dim
    system_dim = property(lambda self: len(self.unitary) // self.ancilla_dim)

    def evolve(self, rho) -> np.ndarray:
        """Apply the dilation to a system state, or to each state of a stack
        ``(..., n, n)``, and trace out the ancilla.

        ``Tr_anc[U (rho (x) |ref><ref|) U^dag]`` is ``sum_a M_a rho M_a^dag``
        with ``M_a`` the rows of the reference columns of ``U`` that belong
        to ancilla row ``a``, so only those columns are used and no
        system-plus-ancilla matrix is formed.  The sum runs one operator at a
        time over the whole stack, so it holds no array of one term per
        operator and state, and each state's products are its own.
        """
        n, d = self.system_dim, self.ancilla_dim
        rho = as_states(rho, n)
        ops = self.unitary[:, self.ancilla_ref_index :: d].reshape(n, d, n).transpose(1, 0, 2)
        out = np.zeros(rho.shape, dtype=complex)
        for op in ops:
            out += op @ rho @ op.conj().T
        return out


@dataclass(frozen=True)
class RoundTripReport:
    max_residual: float
    passed: bool


def kraus_to_unitary(kraus: KrausSet, tol: ToleranceConfig = DEFAULT_TOL) -> UnitaryDilation:
    """Complete a stacked Kraus isometry to a unitary on system (x) ancilla.

    Weights are folded into the operators first.  Raises
    :class:`NotCompleteKraus` when ``sum_i w_i M_i^dag M_i`` is not the
    identity within tolerance; callers must not dilate maps that are not
    completely positive and trace preserving.
    """
    d, n, _ = kraus.operators.shape
    if not d:
        raise NotCompleteKraus("empty Kraus set")
    total = n * d
    # joint index (system row r, ancilla row i) -> r * d + i; ref ancilla 0
    isometry = kraus.folded_operators().transpose(1, 0, 2).reshape(total, n)
    tol.require(NotCompleteKraus, "completeness", isometry_residual(isometry))

    # joint column c * d + a: ancilla a = 0 holds isometry column c, and a >= 1
    # the complete factor's columns past its first n, which span the complement
    complement = np.linalg.qr(isometry, mode="complete")[0][:, n:].reshape(total, n, d - 1)
    unitary = np.concatenate((isometry[:, :, None], complement), axis=2).reshape(total, total)
    return UnitaryDilation(ancilla_dim=d, unitary=unitary)


def unitarity_residual(dilation: UnitaryDilation) -> float:
    """``‖U^dag U - 1‖_F`` (:func:`~dynamap.linalg.isometry_residual`)."""
    return isometry_residual(dilation.unitary)


def dilation_round_trip(
    dilation: UnitaryDilation,
    m: LinearMap,
    samples: int = 20,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RoundTripReport:
    """Compare the dilation against direct application on random states."""
    if m.dim != dilation.system_dim:
        raise DimensionMismatch(
            f"map dim {m.dim} does not match dilation system dim {dilation.system_dim}"
        )
    rhos = seeded_stack(random_density_matrix, m.dim, samples, seed)
    worst = max_frob(dilation.evolve(rhos) - apply_map(m, rhos))
    return RoundTripReport(max_residual=worst, passed=tol.passes(worst))

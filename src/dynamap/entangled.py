"""Entangled initial states: witness and induced subsystem dynamics.

The witness side formalizes why a linear extension map targeting an
entangled pure joint state cannot be positive: the reduced state of an
entangled pure state is mixed, so a linear extension would have to write a
convexly non-decomposable pure projector as a convex combination of images
of the reduced state's eigenprojectors, and every such image would itself
have to be the pure projector, whose ancilla trace is the mixed reduced
state rather than the eigenprojector.

The dynamics side fixes the simplest convention that turns one unitarily
evolved joint trajectory into a linear map on the whole system space: the
joint state is written as ``reduced_system (x) reduced_env + correlation``
with the correlation operator held fixed.  Varying the system state with
the environment block and correlation frozen gives an affine evolution

    sigma -> Tr_env[u (sigma (x) reduced_env) u^dag] + Tr_env[u chi u^dag]

whose constant term is traceless (the correlation operator is traceless on
both factors), so folding it onto the trace-one hyperplane yields a
trace-preserving, Hermiticity-preserving linear map.  For entangled inputs
that map is in general not completely positive.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import depolarizing_map, transpose_map
from .errors import DimensionMismatch, NotUnitary
from .linalg import DEFAULT_TOL, ToleranceConfig, frob, kron, partial_trace, zero_cut
from .maps import DensityMatrix, LinearMap, apply_map


@dataclass(frozen=True, eq=False)
class JointPureState:
    """A pure state of system (x) environment, system as the slow factor."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        ns, ne = self.dims
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (ns * ne,):
            raise DimensionMismatch(
                f"amplitude vector of length {amps.shape} does not match dims {self.dims}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > DEFAULT_TOL.residual_abs:
            raise ValueError(f"state norm {norm} differs from 1")
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def reduced_system(self) -> np.ndarray:
        ns, ne = self.dims
        a = self.amplitudes.reshape(ns, ne)
        return a @ a.conj().T

    def reduced_environment(self) -> np.ndarray:
        ns, ne = self.dims
        a = self.amplitudes.reshape(ns, ne)
        return a.T @ a.conj()


def bell_state() -> JointPureState:
    """The maximally entangled two-qubit state (|00> + |11>) / sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    return JointPureState((2, 2), amps)


class ExtensionVerdict(Enum):
    POSITIVE_EXTENSION_IMPOSSIBLE = "positive_extension_impossible"
    PRODUCT_STATE = "product_state"


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    reduced_state: DensityMatrix
    purity: float
    schmidt_rank: int
    verdict: ExtensionVerdict
    schmidt_weights: np.ndarray
    explanation: str


def extension_witness(
    phi: JointPureState, tol: ToleranceConfig = DEFAULT_TOL
) -> WitnessCertificate:
    """Decide whether any positive linear extension can target this state.

    Computes the reduced system state, its spectrum, purity and Schmidt
    rank; rank two or more certifies that no positive linear extension map
    can send the reduced state to the joint projector.
    """
    rho = phi.reduced_system()
    reduced = DensityMatrix(rho, tol)
    weights = np.clip(reduced.eigenvalues[::-1], 0.0, None)
    purity = float(np.real(np.trace(rho @ rho)))
    rank = int(np.sum(weights > zero_cut(weights, tol)))
    if rank >= 2:
        verdict = ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE
        explanation = (
            f"the reduced system state is mixed (purity {purity:.12g}, "
            f"Schmidt rank {rank}); a linear extension would expand into a convex "
            "combination of the eigenprojector images with weights "
            f"{np.round(weights[:rank], 12).tolist()}, each of which would have to "
            "equal the pure joint projector because a pure state admits no convex "
            "decomposition, yet tracing the environment from the joint projector "
            "returns the mixed reduced state instead of the eigenprojector, so the "
            "extension cannot be positive on every eigenstate"
        )
    else:
        verdict = ExtensionVerdict.PRODUCT_STATE
        explanation = (
            "the reduced system state is pure, the joint state is a product, and "
            "the standard product extension is positive on all states"
        )
    return WitnessCertificate(
        reduced_state=reduced,
        purity=purity,
        schmidt_rank=rank,
        verdict=verdict,
        schmidt_weights=weights,
        explanation=explanation,
    )


@dataclass(frozen=True, eq=False)
class AffineDynamics:
    """Induced subsystem dynamics split into linear and constant parts.

    ``tp_linear_form`` folds the constant part onto the trace-one hyperplane
    (``sigma -> linear_part(sigma) + Tr(sigma) * constant_part``), giving a
    TP Hermiticity-preserving linear map that agrees with the joint
    trajectory at the actual reduced state; ``consistency_residual`` records
    that agreement.
    """

    linear_part: LinearMap
    constant_part: np.ndarray
    tp_linear_form: LinearMap
    consistency_residual: float


def induced_dynamics(
    phi: JointPureState, u, tol: ToleranceConfig = DEFAULT_TOL
) -> AffineDynamics:
    """Extract the system dynamics induced by a joint unitary evolution."""
    ns, ne = phi.dims
    u = np.asarray(u, dtype=complex)
    if u.shape != (ns * ne, ns * ne):
        raise DimensionMismatch(f"unitary shape {u.shape} does not match dims {phi.dims}")
    res = frob(u.conj().T @ u - np.eye(ns * ne))
    if res > tol.residual_abs:
        raise NotUnitary(f"unitarity residual {res:.3e} exceeds tolerance")

    joint = phi.projector()
    rho_s = phi.reduced_system()
    rho_e = phi.reduced_environment()
    correlation = joint - kron(rho_s, rho_e)

    constant = partial_trace(u @ correlation @ u.conj().T, (ns, ne), "b")

    # Choi[(a, r), (b, s)] = Tr_env[u (|r><s| (x) rho_e) u^dag][a, b]
    u4 = u.reshape(ns, ne, ns, ne)
    choi4 = np.einsum("airj,jk,bisk->arbs", u4, rho_e, u4.conj(), optimize=True)
    linear_part = LinearMap(choi4.reshape(ns * ns, ns * ns))

    tp_choi = linear_part.choi + np.kron(constant, np.eye(ns))
    tp_linear_form = LinearMap(tp_choi)

    direct = partial_trace(u @ joint @ u.conj().T, (ns, ne), "b")
    consistency = frob(apply_map(tp_linear_form, rho_s) - direct)

    return AffineDynamics(
        linear_part=linear_part,
        constant_part=constant,
        tp_linear_form=tp_linear_form,
        consistency_residual=consistency,
    )


def ncp_family(p: float) -> LinearMap:
    """Qubit family ``rho -> (1 - p) Tr(rho) 1/2 + p rho^T``.

    Trace preserving and Hermiticity preserving for every ``p`` in [0, 1];
    completely positive exactly when the smallest Choi eigenvalue
    ``(1 - p)/2 - p`` is nonnegative, i.e. up to ``p = 1/3``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    choi = (1.0 - p) * depolarizing_map(1.0, 2).choi + p * transpose_map(2).choi
    return LinearMap(choi)

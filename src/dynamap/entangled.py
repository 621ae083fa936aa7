"""Entangled initial states: witness and induced subsystem dynamics.

The witness side formalizes why a linear extension map targeting an
entangled pure joint state cannot be positive: the reduced state of an
entangled pure state is mixed, so a linear extension would have to write a
convexly non-decomposable pure projector as a convex combination of images
of the reduced state's eigenprojectors, and every such image would itself
have to be the pure projector, whose ancilla trace is the mixed reduced
state rather than the eigenprojector.  The reduced state of a unit vector
is a density matrix by construction, so it is used as a plain matrix and
its spectrum read with one ``eigvalsh``, under any tolerance.

The dynamics side fixes the simplest convention that turns one unitarily
evolved joint trajectory into a linear map on the whole system space: the
joint state is written as ``reduced_system (x) reduced_env + correlation``
with the correlation operator held fixed.  Varying the system state with
the environment block and correlation frozen gives an affine evolution

    sigma -> Tr_env[u (sigma (x) reduced_env) u^dag] + Tr_env[u chi u^dag]

whose constant term is traceless (the correlation operator is traceless on
both factors), so folding it onto the trace-one hyperplane yields a
trace-preserving, Hermiticity-preserving linear map.  For entangled inputs
that map is in general not completely positive.  The joint unitary must pass
:func:`~dynamap.linalg.isometry_residual` within ``residual_abs``.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NotUnitary
from .linalg import DEFAULT_TOL, ToleranceConfig, frob, isometry_residual, partial_trace, sign_counts
from .maps import LinearMap, apply_map


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
        norm = frob(amps)
        if not DEFAULT_TOL.passes(abs(norm - 1.0)):  # NaN amplitudes never pass
            raise ValueError(f"state norm {norm} differs from 1")
        object.__setattr__(self, "amplitudes", amps)

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
    """A joint pure state's reduced system state, its spectrum (descending)
    and the Schmidt rank counted under a tolerance; the rest is read off these."""

    reduced_state: np.ndarray
    schmidt_weights: np.ndarray
    schmidt_rank: int

    @property
    def purity(self) -> float:
        rho = self.reduced_state
        return float(np.real(np.trace(rho @ rho)))

    @property
    def verdict(self) -> ExtensionVerdict:
        if self.schmidt_rank >= 2:
            return ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE
        return ExtensionVerdict.PRODUCT_STATE

    @property
    def explanation(self) -> str:
        if self.verdict is ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE:
            return (
                f"the reduced system state is mixed (purity {self.purity:.12g}, "
                f"Schmidt rank {self.schmidt_rank}); a linear extension would expand into "
                "a convex combination of the eigenprojector images with weights "
                f"{np.round(self.schmidt_weights[: self.schmidt_rank], 12).tolist()}, each of "
                "which would have to equal the pure joint projector because a pure state "
                "admits no convex decomposition, yet tracing the environment from the joint "
                "projector returns the mixed reduced state instead of the eigenprojector, so "
                "the extension cannot be positive on every eigenstate"
            )
        return (
            "the reduced system state is pure, the joint state is a product, and "
            "the standard product extension is positive on all states"
        )


def extension_witness(
    phi: JointPureState, tol: ToleranceConfig = DEFAULT_TOL
) -> WitnessCertificate:
    """Decide whether any positive linear extension can target this state.

    Computes the reduced system state, its spectrum and Schmidt rank; rank
    two or more certifies that no positive linear extension map can send
    the reduced state to the joint projector.
    """
    rho = phi.reduced_system()
    weights = np.clip(np.linalg.eigvalsh(rho)[::-1], 0.0, None)
    rank = sign_counts(weights, tol)[0]
    return WitnessCertificate(reduced_state=rho, schmidt_weights=weights, schmidt_rank=rank)


@dataclass(frozen=True, eq=False)
class AffineDynamics:
    """Induced subsystem dynamics, its constant part folded into one linear map.

    ``tp_linear_form`` folds the constant part onto the trace-one hyperplane
    (``sigma -> Tr_env[u (sigma (x) rho_e) u^dag] + Tr(sigma) * constant_part``),
    giving a TP Hermiticity-preserving linear map that agrees with the joint
    trajectory at the actual reduced state; ``consistency_residual`` records
    that agreement.  The linear part alone is ``tp_linear_form.choi -
    kron(constant_part, eye(ns))``.
    """

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
    tol.require(NotUnitary, "unitarity", isometry_residual(u))

    rho_s = phi.reduced_system()
    rho_e = phi.reduced_environment()
    # Tr_env[u |phi><phi| u^dag] is the reduced state of the evolved vector
    evolved = (u @ phi.amplitudes).reshape(ns, ne)
    direct = evolved @ evolved.conj().T
    constant = direct - partial_trace(u @ np.kron(rho_s, rho_e) @ u.conj().T, (ns, ne), "b")

    # Choi[(a, r), (b, s)] = Tr_env[u (|r><s| (x) rho_e) u^dag][a, b]
    u4 = u.reshape(ns, ne, ns, ne)
    choi = np.empty((ns * ns, ns * ns), dtype=complex)
    np.einsum("airj,jk,bisk->arbs", u4, rho_e, u4.conj(), out=choi.reshape((ns,) * 4),
              optimize=True)
    # constant (x) 1: constant[a, b] at each (a, r), (b, r), through a writable view
    np.einsum("arbr->rab", choi.reshape((ns,) * 4))[...] += constant
    choi.flags.writeable = False  # handed over: no one else holds it
    tp_linear_form = LinearMap(choi)

    consistency = frob(apply_map(tp_linear_form, rho_s) - direct)

    return AffineDynamics(
        constant_part=constant,
        tp_linear_form=tp_linear_form,
        consistency_residual=consistency,
    )

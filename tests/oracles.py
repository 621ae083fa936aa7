"""Independent reference implementations that tests compare the library to."""

import numpy as np


def apply_kraus(kraus, rho) -> np.ndarray:
    """``sum_i w_i M_i rho M_i^dag`` for a :class:`dynamap.maps.KrausSet`, one
    operator at a time and without a Choi matrix, so it shares no code with
    ``maps.weighted_choi`` or ``maps.apply_map``."""
    out = np.zeros(np.shape(rho), dtype=complex)
    for w, op in zip(kraus.weights, kraus.operators):
        out = out + w * (op @ rho @ op.conj().T)
    return out


def induced_constant_part(phi, u) -> np.ndarray:
    """``Tr_env[u chi u^dag]`` for the correlation operator ``chi = |phi><phi|
    - rho_s (x) rho_e`` of a :class:`dynamap.entangled.JointPureState`, with
    the joint density matrix formed by ``np.outer`` and conjugated by ``u``
    before ``partial_trace``, where ``induced_dynamics`` reads
    ``Tr_env[u |phi><phi| u^dag]`` off the evolved vector."""
    from dynamap.linalg import partial_trace

    ns, ne = phi.dims
    joint = np.outer(phi.amplitudes, phi.amplitudes.conj())
    correlation = joint - np.kron(phi.reduced_system(), phi.reduced_environment())
    return partial_trace(u @ correlation @ u.conj().T, (ns, ne), "b")

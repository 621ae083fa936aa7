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

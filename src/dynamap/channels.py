"""Standard maps and gates used throughout the tests and fixtures."""

import numpy as np

from .errors import DimensionMismatch
from .maps import KrausSet, LinearMap, kraus_to_map

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def identity_map(dim: int) -> LinearMap:
    """The map ``rho -> rho``."""
    v = np.eye(dim, dtype=complex).reshape(-1)
    return LinearMap(np.outer(v, v.conj()))


def unitary_map(u) -> LinearMap:
    """Unitary conjugation ``rho -> u rho u^dag``."""
    u = np.asarray(u, dtype=complex)
    v = u.reshape(-1)
    return LinearMap(np.outer(v, v.conj()))


def transpose_map(dim: int = 2) -> LinearMap:
    """The map ``rho -> rho^T``; its Choi matrix is the swap operator."""
    return LinearMap(swap_gate(dim))


def depolarizing_map(p: float, dim: int = 2) -> LinearMap:
    """``rho -> (1 - p) rho + p Tr(rho) 1/dim``; fully depolarizing at p=1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    full = np.eye(dim * dim, dtype=complex) / dim
    return LinearMap((1.0 - p) * identity_map(dim).choi + p * full)


def amplitude_damping_kraus(gamma: float) -> KrausSet:
    """The two-operator qubit amplitude damping set with decay ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    m0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    m1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet([m0, m1])


def amplitude_damping_map(gamma: float) -> LinearMap:
    return kraus_to_map(amplitude_damping_kraus(gamma))


def rotation_unitary(theta: float, axis=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Qubit rotation ``cos(t) 1 - i sin(t) (n . sigma)`` about unit axis n."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * ns

def swap_gate(dim: int = 2) -> np.ndarray:
    """Swap of two ``dim``-level factors."""
    s = np.zeros((dim,) * 4, dtype=complex)
    for i in range(dim):
        for j in range(dim):
            s[i, j, j, i] = 1.0
    return s.reshape(dim * dim, dim * dim)


def cnot_gate() -> np.ndarray:
    """Controlled-NOT on two qubits, first qubit controls."""
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = g[1, 1] = g[2, 3] = g[3, 2] = 1.0
    return g


def matrix_unit(dim: int, r: int, s: int) -> np.ndarray:
    """The elementary matrix with a single 1 at position (r, s)."""
    if not (0 <= r < dim and 0 <= s < dim):
        raise DimensionMismatch(f"indices ({r}, {s}) out of range for dim {dim}")
    e = np.zeros((dim, dim), dtype=complex)
    e[r, s] = 1.0
    return e

"""Seeded random generators for states, unitaries and maps.

Every draw function takes an explicit source of standard normals ``rng``,
an object with a ``standard_normal(shape)`` method, so that runs are
reproducible: a ``numpy.random.Generator``, or a ``SeededNormals``.
``seeded_stack`` takes the seed of a fresh ``SeededNormals``; it draws the
sampled states of the map commands, which thus never load ``numpy.random``.
Two generators deserve a note:

* ``random_tp_map`` draws trace-preserving, Hermiticity-preserving maps,
  most of them not completely positive: it mixes a low-rank PSD Choi block
  with a scaled indefinite Hermitian perturbation (the scale is capped so
  the output-traced matrix stays positive definite) and then conjugates the
  input index to make trace preservation exact.  The map is CP when the
  perturbation stays positive on the kernel of the block.  At dim 2 that
  kernel has dimension 2 and some draws are CP (13 of seeds 0-299, seed 16
  the first); at dim 3 and 4 none of those 300 seeds is.  A caller that
  needs a negative part checks for it.

* ``random_tp_map_with_kernel`` produces maps whose negative canonical
  operators all annihilate a common vector, so the minus-part trace
  functional is exactly singular.  This is arranged structurally: every
  operator in the construction either annihilates the chosen vector or has
  that vector as its sole row support, which block-diagonalizes the Choi
  matrix and confines its negative eigenspace to the annihilating block.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from .linalg import partial_trace
from .maps import KrausSet, LinearMap, weighted_choi

if TYPE_CHECKING:  # the map commands draw no joint states and never load entangled
    from .entangled import JointPureState


class SeededNormals:
    """Standard normals from the standard library's Mersenne Twister: the
    uniforms of ``random.Random(seed).random()``, whose stream Python keeps
    stable across versions, taken in pairs ``(u, v)`` through the Box–Muller
    transform to ``r cos(2 pi v)`` and ``r sin(2 pi v)``, ``r =
    sqrt(-2 ln(1 - u))``.  Each ``standard_normal`` call starts on fresh
    pairs, so an odd size drops its last sine.

    The ``n`` uniforms of a call are drawn at once: ``random()`` builds each
    from two 32-bit outputs ``(a, b)`` as ``((a >> 5) 2**26 + (b >> 6))
    2**-53``, and ``getrandbits(64 n)`` returns the same ``2 n`` outputs as
    little-endian words, leaving the generator where ``n`` calls of
    ``random()`` leave it."""

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def standard_normal(self, shape) -> np.ndarray:
        size = int(np.prod(shape))
        count = size + size % 2
        words = np.frombuffer(self._bits(64 * count).to_bytes(8 * count, "little"), dtype="<u4")
        a, b = words.reshape(-1, 2).T
        uniforms = ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
        u, v = uniforms.reshape(-1, 2).T
        radius, angle = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
        normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        return normals.ravel()[:size].reshape(shape)


def random_complex(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex((dim, dim), rng)
    return (g + g.conj().T) / 2.0


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = random_complex(dim, rng)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex((dim, dim), rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def seeded_stack(draw, dim: int, samples: int, seed: int) -> np.ndarray:
    """Stack ``(samples, dim, dim)`` of ``draw(dim, rng)`` matrices from
    ``SeededNormals(seed)``, one call per sample in order, so each matrix is
    the one a loop of single draws gives; no samples give an empty stack."""
    rng = SeededNormals(seed)
    draws = [draw(dim, rng) for _ in range(samples)]
    return np.array(draws, dtype=complex).reshape(samples, dim, dim)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(random_complex((dim, dim), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_tp_map(dim: int, rng: np.random.Generator) -> LinearMap:
    """Random trace-preserving Hermiticity-preserving map, usually NCP; at
    ``dim`` 2 some draws are CP (see the module docstring)."""
    while True:
        ops = np.array([random_complex((dim, dim), rng) for _ in range(dim)])
        base = weighted_choi(ops, np.ones(dim))
        g_base = partial_trace(base, (dim, dim), "a")
        lam = np.linalg.eigvalsh(g_base)
        if lam[-1] <= 0.0 or lam[0] < 1e-3 * lam[-1]:
            continue  # nearly singular output trace; redraw
        perturb = random_hermitian(dim * dim, rng)
        g_pert = partial_trace(perturb, (dim, dim), "a")
        eps = 0.5 * lam[0] / max(np.linalg.norm(g_pert, 2), 1e-300)
        choi = base + eps * perturb
        g = partial_trace(choi, (dim, dim), "a")
        w, v = np.linalg.eigh(g)
        x = (v / np.sqrt(w)) @ v.conj().T
        c = np.kron(np.eye(dim), x)
        return LinearMap(c @ choi @ c)


def random_cptp_kraus(dim: int, n_ops: int, rng: np.random.Generator) -> KrausSet:
    """Random CPTP map as Kraus operators sliced from a Haar isometry."""
    q, _ = np.linalg.qr(random_complex((dim * n_ops, dim), rng))
    return KrausSet(q.reshape(n_ops, dim, dim))


def random_tp_map_with_kernel(dim: int, rng: np.random.Generator) -> LinearMap:
    """Random TP map whose minus-part trace functional has a nontrivial kernel."""
    for _ in range(50):
        phi = random_pure_state(dim, rng)
        proj = np.eye(dim) - np.outer(phi, phi.conj())
        n_pos = dim * dim - 2
        pos_ops = np.array([random_complex((dim, dim), rng) @ proj for _ in range(n_pos)])
        neg_op = random_complex((dim, dim), rng) @ proj

        gram_pos = sum(op.conj().T @ op for op in pos_ops)
        s_vals = np.linalg.eigvalsh(gram_pos)
        neg_gram = neg_op.conj().T @ neg_op
        c = 0.4 * s_vals[1] / np.linalg.eigvalsh(neg_gram)[-1]
        gram = gram_pos - c * neg_gram

        w, v = np.linalg.eigh(gram)
        keep = w > 1e-12 * w[-1]
        x = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T

        # positive operators, one supported on phi, then the negative one
        ops = np.concatenate([
            pos_ops @ x,
            [np.outer(random_pure_state(dim, rng), phi.conj()), np.sqrt(c) * (neg_op @ x)],
        ])
        choi = weighted_choi(ops, np.r_[np.ones(n_pos + 1), -1.0])

        eigs = np.linalg.eigvalsh(choi)
        scale = np.abs(eigs).max()
        tp_res = np.linalg.norm(partial_trace(choi, (dim, dim), "a") - np.eye(dim))
        if eigs[0] < -1e-8 * scale and tp_res < 1e-12:
            return LinearMap(choi)
    raise RuntimeError("failed to generate a kernel-deficient map")


def random_joint_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> JointPureState:
    from .entangled import JointPureState

    ns, ne = dims
    return JointPureState(dims, random_pure_state(ns * ne, rng))


def random_product_joint_state(dims: tuple[int, int], rng: np.random.Generator) -> JointPureState:
    from .entangled import JointPureState

    ns, ne = dims
    amps = np.kron(random_pure_state(ns, rng), random_pure_state(ne, rng))
    return JointPureState(dims, amps)

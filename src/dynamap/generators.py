"""Seeded random generators for states, unitaries and maps.

Every function takes an explicit ``numpy.random.Generator`` so that runs are
reproducible, except ``seeded_stack``, which takes the seed of a fresh one.
Two generators deserve a note:

* ``random_tp_map`` draws trace-preserving, Hermiticity-preserving maps with
  full-measure coverage of the non-completely-positive region: it mixes a
  low-rank PSD Choi block with a scaled indefinite Hermitian perturbation
  (the scale is capped so the output-traced matrix stays positive definite)
  and then conjugates the input index to make trace preservation exact.

* ``random_tp_map_with_kernel`` produces maps whose negative canonical
  operators all annihilate a common vector, so the minus-part trace
  functional is exactly singular.  This is arranged structurally: every
  operator in the construction either annihilates the chosen vector or has
  that vector as its sole row support, which block-diagonalizes the Choi
  matrix and confines its negative eigenspace to the annihilating block.
"""

import numpy as np

from .entangled import JointPureState
from .linalg import partial_trace
from .maps import KrausSet, LinearMap, weighted_choi


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
    ``default_rng(seed)``, one call per sample in order, so each matrix is
    the one a loop of single draws gives; no samples give an empty stack."""
    rng = np.random.default_rng(seed)
    draws = [draw(dim, rng) for _ in range(samples)]
    return np.array(draws, dtype=complex).reshape(samples, dim, dim)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(random_complex((dim, dim), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_tp_map(dim: int, rng: np.random.Generator, n_kraus: int | None = None) -> LinearMap:
    """Random trace-preserving Hermiticity-preserving map (generically NCP)."""
    if n_kraus is None:
        n_kraus = dim
    while True:
        ops = np.array([random_complex((dim, dim), rng) for _ in range(n_kraus)])
        base = weighted_choi(ops, np.ones(n_kraus))
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
    ns, ne = dims
    return JointPureState(dims, random_pure_state(ns * ne, rng))


def random_product_joint_state(dims: tuple[int, int], rng: np.random.Generator) -> JointPureState:
    ns, ne = dims
    amps = np.kron(random_pure_state(ns, rng), random_pure_state(ne, rng))
    return JointPureState(dims, amps)

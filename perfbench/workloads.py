"""Seeded inputs of the benchmark: documents, the CLI calls made on them,
and the values the checks compare each report against.

The generators are ported from the package on purpose.  Parent and change
must be fed identical bytes even when a change edits ``dynamap.generators``
or ``tests/fixtures``, so nothing here imports ``dynamap``.  The error
documents under ``data/`` are byte copies of the test fixtures.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

# the package default; no generated document overrides its tolerances
RESIDUAL_ABS = 1e-9
ZERO_EIG_REL = 1e-10


def _complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pure_state(dim, rng):
    v = _complex(dim, rng)
    return v / np.linalg.norm(v)


def _haar_unitary(dim, rng):
    q, r = np.linalg.qr(_complex((dim, dim), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _output_trace(choi, dim):
    return np.einsum("aras->rs", choi.reshape(dim, dim, dim, dim))


def _outer_sum(vecs):
    """``sum_k v_k v_k^dag`` over the rows of ``vecs``."""
    return vecs.T @ vecs.conj()


def generic_tp_choi(dim, rng):
    """Trace-preserving Hermitian Choi matrix that is generically not PSD.

    A rank-``dim`` PSD block plus an indefinite perturbation, scaled so the
    output trace stays positive definite, then conjugated on the input index
    so that the output trace is exactly the identity.
    """
    while True:
        base = _outer_sum(_complex((dim, dim * dim), rng))
        lam = np.linalg.eigvalsh(_output_trace(base, dim))
        if lam[0] < 1e-3 * lam[-1]:
            continue  # nearly singular output trace; redraw
        g = _complex((dim * dim, dim * dim), rng)
        perturb = (g + g.conj().T) / 2.0
        eps = 0.5 * lam[0] / max(np.linalg.norm(_output_trace(perturb, dim), 2), 1e-300)
        choi = base + eps * perturb
        w, v = np.linalg.eigh(_output_trace(choi, dim))
        c = np.kron(np.eye(dim), (v / np.sqrt(w)) @ v.conj().T)
        return c @ choi @ c


def kernel_tp_choi(dim, rng):
    """Trace-preserving Choi matrix whose minus trace functional is exactly
    singular.

    Every operator either annihilates a chosen vector ``phi`` or has ``phi``
    as its only row support.  That block-diagonalizes the Choi matrix and
    keeps its negative eigenspace inside the block that annihilates ``phi``,
    so ``phi`` spans a kernel of the minus functional.
    """
    for _ in range(50):
        phi = _pure_state(dim, rng)
        proj = np.eye(dim) - np.outer(phi, phi.conj())
        pos = _complex((dim * dim - 2, dim, dim), rng) @ proj
        neg = _complex((dim, dim), rng) @ proj
        gram_pos = np.einsum("kar,kas->rs", pos.conj(), pos)
        neg_gram = neg.conj().T @ neg
        c = 0.4 * np.linalg.eigvalsh(gram_pos)[1] / np.linalg.eigvalsh(neg_gram)[-1]
        w, v = np.linalg.eigh(gram_pos - c * neg_gram)
        keep = w > 1e-12 * w[-1]
        x = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
        ops = np.concatenate([pos @ x, np.outer(_pure_state(dim, rng), phi.conj())[None]])
        choi = _outer_sum(ops.reshape(len(ops), -1))
        nv = (np.sqrt(c) * (neg @ x)).reshape(-1)
        choi -= np.outer(nv, nv.conj())
        eigs = np.linalg.eigvalsh(choi)
        tp_res = np.linalg.norm(_output_trace(choi, dim) - np.eye(dim))
        if eigs[0] < -1e-8 * np.abs(eigs).max() and tp_res < 1e-12:
            return choi
    raise RuntimeError("failed to generate a map with an exact kernel")


def cptp_kraus(dim, n_ops, rng):
    """Complete Kraus operators sliced from a Haar-random isometry."""
    q, _ = np.linalg.qr(_complex((dim * n_ops, dim), rng))
    return q.reshape(n_ops, dim, dim)


def expected_plus_functional(choi, dim):
    """``sum lambda_i L_i^dag L_i`` over the positive Choi eigenpairs."""
    values, vectors = np.linalg.eigh(choi)
    keep = values > ZERO_EIG_REL * np.abs(values).max()
    ops = vectors[:, keep].T.reshape(-1, dim, dim)
    return np.einsum("k,kar,kas->rs", values[keep], ops.conj(), ops)


def encode(m):
    """Nested ``[re, im]`` pairs, the document encoding of complex arrays."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


@dataclass
class Document:
    """Bytes sent to the CLI plus what the checks need to know about them."""

    name: str
    raw: bytes
    expect: dict
    path: str = ""

    @property
    def digest(self):
        return hashlib.sha256(self.raw).hexdigest()


@dataclass
class Call:
    """One CLI invocation: ``dynamap <command> <document> <flags>``."""

    command: str
    doc: Document
    flags: tuple = ()
    exit_code: int = 0

    @property
    def label(self):
        return " ".join((self.command, self.doc.name) + self.flags)

    def argv(self):
        return [self.command, self.doc.path, *self.flags]


@dataclass
class Workload:
    name: str
    docs: list
    calls: list  # one cycle; the loop repeats whole cycles


def _dump(doc):
    return json.dumps(doc, separators=(",", ":")).encode()


def map_doc(name, choi, dim, rng, kernel=False, seed=None):
    seed = int(rng.integers(0, 2**31)) if seed is None else seed
    raw = _dump({"kind": "choi", "dim": dim, "data": encode(choi), "seed": seed})
    expect = {"kind": "map", "dim": dim, "kernel": kernel,
              "plus": expected_plus_functional(choi, dim)}
    return Document(name, raw, expect)


def kraus_doc(name, dim, n_ops, rng):
    ops = cptp_kraus(dim, n_ops, rng)
    raw = _dump({"kind": "kraus", "dim": dim, "data": encode(ops),
                 "seed": int(rng.integers(0, 2**31))})
    return Document(name, raw, {"kind": "kraus", "dim": dim, "ops": ops})


def _joint_doc(name, dims, rng, product=False):
    ns, ne = dims
    if product:
        amps = np.kron(_pure_state(ns, rng), _pure_state(ne, rng))
    else:
        amps = _pure_state(ns * ne, rng)
    u = _haar_unitary(ns * ne, rng)
    raw = _dump({"kind": "joint_dynamics", "dims": [ns, ne],
                 "data": {"state": encode(amps), "unitary": encode(u)},
                 "seed": int(rng.integers(0, 2**31))})
    return Document(name, raw, {"kind": "joint", "dims": dims, "amps": amps, "unitary": u})


def _fixture(name):
    return Document(name, (DATA / f"{name}.json").read_bytes(), {"kind": "error"})


def ncp_split_n16(rng):
    gen = map_doc("generic16", generic_tp_choi(16, rng), 16, rng)
    ker = map_doc("kernel16", kernel_tp_choi(16, rng), 16, rng, kernel=True)
    lit, sym = ("--variant", "literal"), ("--variant", "symmetric")
    calls = [Call("decompose", gen), Call("verify", ker, lit), Call("verify", gen, sym),
             Call("decompose", ker), Call("verify", gen, lit), Call("verify", ker, sym)]
    return Workload("ncp_split_n16", [gen, ker], calls)


def dilate_extract_n16(rng):
    docs = [kraus_doc("kraus16a", 16, 16, rng), _joint_doc("joint16x8a", (16, 8), rng),
            kraus_doc("kraus16b", 16, 16, rng), _joint_doc("joint16x8b", (16, 8), rng)]
    calls = [Call("dilate" if d.expect["kind"] == "kraus" else "extract", d) for d in docs]
    return Workload("dilate_extract_n16", docs, calls)


def small_cli_mix(rng):
    gen2 = map_doc("generic2", generic_tp_choi(2, rng), 2, rng)
    gen3 = map_doc("generic3", generic_tp_choi(3, rng), 3, rng)
    ker3 = map_doc("kernel3", kernel_tp_choi(3, rng), 3, rng, kernel=True)
    ker4 = map_doc("kernel4", kernel_tp_choi(4, rng), 4, rng, kernel=True)
    # a negative document seed crashes the sampler at this commit
    neg_seed = map_doc("negseed3", generic_tp_choi(3, rng), 3, rng, seed=-3)
    kraus2 = kraus_doc("kraus2", 2, 3, rng)
    kraus4 = kraus_doc("kraus4", 4, 2, rng)
    ent = _joint_doc("joint2x2", (2, 2), rng)
    prod = _joint_doc("product2x2", (2, 2), rng, product=True)
    bad = {name: _fixture(name) for name in (
        "bad_complex", "bad_dim", "broken_tp_choi", "verify_fail_tight_tol",
        "nonunitary_joint", "product_joint", "transpose_choi")}
    calls = [
        Call("decompose", gen2),
        Call("verify", gen3, ("--variant", "literal")),
        Call("verify", ker3, ("--variant", "symmetric")),
        Call("decompose", ker4),
        Call("verify", ker4, ("--variant", "literal")),
        Call("dilate", kraus2),
        Call("dilate", kraus4),
        Call("witness", ent),
        Call("witness", prod),
        Call("extract", ent),
        Call("extract", prod),
        Call("decompose", bad["bad_complex"], exit_code=1),
        Call("decompose", bad["bad_dim"], exit_code=1),
        Call("decompose", bad["broken_tp_choi"], exit_code=2),
        Call("verify", bad["verify_fail_tight_tol"], exit_code=3),
        Call("extract", bad["nonunitary_joint"], exit_code=2),
        Call("extract", bad["product_joint"], exit_code=1),
        Call("dilate", bad["transpose_choi"], exit_code=2),
        Call("decompose", gen2, ("--seed", "-1"), exit_code=1),
        Call("decompose", neg_seed, exit_code=1),
    ]
    docs = [gen2, gen3, ker3, ker4, neg_seed, kraus2, kraus4, ent, prod, *bad.values()]
    return Workload("small_cli_mix", docs, calls)


WORKLOADS = {f.__name__: f for f in (ncp_split_n16, dilate_extract_n16, small_cli_mix)}


def build(name, seed):
    """The workload's documents and call cycle, a pure function of the seed."""
    rng = np.random.default_rng([seed % 2**63, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng)

"""Per-call correctness checks, computed by the benchmark itself.

A report's own ``passed`` flags are never trusted: every identity is
recomputed from the reported matrices and the inputs the benchmark made.

``check`` returns the names of the failed checks and whether any of them
found a wrong output.  A wrong exit code, a traceback or a missing
``error:`` line is a failed operation; a report that contradicts the
paper's identities or the input is a wrong output.
"""

import json

import numpy as np

from workloads import RESIDUAL_ABS, ZERO_EIG_REL


def _matrix(node):
    a = np.asarray(node, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _frob(m):
    return float(np.linalg.norm(m))


def _close(a, b, scale=1.0):
    return _frob(a - b) <= RESIDUAL_ABS * max(1.0, scale)


def _schmidt_rank(amps, dims):
    weights = np.linalg.svd(amps.reshape(dims), compute_uv=False) ** 2
    return int(np.sum(weights > ZERO_EIG_REL * weights[0]))


def _split_checks(call, report):
    expect = call.doc.expect
    n = expect["dim"]
    split, dims = report["split"], report["dimensions"]
    plus = _matrix(split["plus_functional"])
    minus = _matrix(split["minus_functional"])
    yield "functional_identity", _close(plus - minus, np.eye(n), _frob(plus))
    yield "plus_functional", _close(plus, expect["plus"], _frob(expect["plus"]))
    yield "n_squared_bound", (dims["n_squared_bound"] == n * n
                              and split["l_plus"] + split["l_minus"] <= n * n)
    if expect["kernel"]:
        yield "kernel_path", split["kernel_dim"] >= 1
    if call.command == "verify":
        yield "reconstruction_residual", report["reconstruction"]["max_residual"] <= RESIDUAL_ABS


def _dilate_checks(call, report, rng):
    ops = call.doc.expect["ops"]
    n = call.doc.expect["dim"]
    dil = report["dilation"]
    u = _matrix(dil["unitary"])
    k = dil["ancilla_dim"]
    yield "dilation_shape", dil["system_dim"] == n and u.shape == (n * k, n * k)
    yield "unitarity", _close(u.conj().T @ u, np.eye(n * k))
    # columns (x, ref) of U are the isometry rho -> U (rho (x) |ref><ref|) U^dag
    iso = u[:, dil["ancilla_ref_index"]::k]
    worst = 0.0
    for _ in range(3):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        traced = np.einsum("iaja->ij", (iso @ rho @ iso.conj().T).reshape(n, k, n, k))
        direct = (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
        worst = max(worst, _frob(traced - direct))
    yield "round_trip", worst <= RESIDUAL_ABS


def _joint_checks(call, report):
    expect = call.doc.expect
    ns, ne = expect["dims"]
    amps = expect["amps"]
    yield "schmidt_rank", report["witness"]["schmidt_rank"] == _schmidt_rank(amps, (ns, ne))
    if call.command != "extract":
        return
    emb = report["extraction"]["extracted_map"]
    choi = _matrix(emb["data"])
    yield "extracted_dim", emb["dim"] == ns and choi.shape == (ns * ns, ns * ns)
    yield "extracted_hermitian", _close(choi, choi.conj().T, _frob(choi))
    choi4 = choi.reshape(ns, ns, ns, ns)
    yield "extracted_tp", _close(np.einsum("aras->rs", choi4), np.eye(ns))
    a = amps.reshape(ns, ne)
    evolved = (expect["unitary"] @ amps).reshape(ns, ne)
    applied = np.einsum("arbs,rs->ab", choi4, a @ a.conj().T)
    yield "reproduces_partial_trace", _close(applied, evolved @ evolved.conj().T)


def _content_checks(call, report, rng):
    yield "input_digest", report.get("input_digest") == call.doc.digest
    if call.exit_code != 0:
        return
    if call.command in ("decompose", "verify"):
        yield from _split_checks(call, report)
    elif call.command == "dilate":
        yield from _dilate_checks(call, report, rng)
    else:
        yield from _joint_checks(call, report)


def check(call, code, out, err, rng):
    """Check one finished call; returns ``(failed_check_names, wrong_output)``."""
    stderr = err.decode("utf-8", "replace")
    failed = []
    if code != call.exit_code:
        failed.append("exit_code")
    if "Traceback" in stderr:
        failed.append("no_traceback")
    if call.exit_code != 0 and not any(ln.startswith("error:") for ln in stderr.splitlines()):
        failed.append("error_line")
    if failed or call.exit_code not in (0, 3):
        return failed, False
    try:
        report = json.loads(out)
        failed = [name for name, ok in _content_checks(call, report, rng) if not ok]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failed = [f"report_malformed ({type(exc).__name__})"]
    return failed, bool(failed)

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynamap import __version__
from dynamap.cli import main
from dynamap.maps import LinearMap, check_cp

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, (json.loads(out) if out else None), err


def fix(name: str) -> str:
    return str(FIXTURES / name)


def joined(render, value) -> str:
    """All that ``render`` (``canonical_json`` or ``canonical_text``) writes for ``value``."""
    chunks = []
    render(value, chunks.append)
    return "".join(chunks)


def test_decompose_transpose_golden(capsys):
    code, rep, _ = run_json(capsys, "decompose", fix("transpose_choi.json"))
    assert code == 0
    assert np.allclose(rep["map"]["choi_eigenvalues"], [1, 1, 1, -1], atol=1e-10)
    assert rep["split"]["l_plus"] == 3
    assert rep["split"]["l_minus"] == 1
    assert rep["map"]["is_cp"] is False
    assert rep["dimensions"] == {"extension_dim": 4, "dilation_dim": 8, "n_squared_bound": 4}
    # these sections are written field for field from the library result
    # dataclasses, so a new or renamed field would change every report
    assert set(rep["annihilation"]) == {
        "kernel_state_residual", "kernel_cross_residual", "mechanism_residual",
        "support_restriction_residual", "max_residual", "passed"}
    assert set(rep["trace_functionals"]) == {
        "plus_residual", "minus_residual", "plus_inverse_residual", "minus_support_residual",
        "max_residual", "passed"}
    assert set(rep["sector_maps"]) == {"literal", "symmetric"}
    for section in rep["sector_maps"].values():
        assert set(section) == {
            "plus_hermiticity_residual", "plus_min_eig", "minus_hermiticity_residual",
            "minus_min_eig", "full_dim", "full_hermiticity_residual", "full_min_eig"}


def test_decompose_identity_kraus(capsys):
    code, rep, _ = run_json(capsys, "decompose", fix("identity_kraus.json"))
    assert code == 0
    assert rep["map"]["is_cp"] is True
    assert rep["split"]["minus_functional_rank"] == 0
    assert rep["dimensions"]["extension_dim"] == 2


def test_decompose_superop_a_input(capsys):
    code, rep, _ = run_json(capsys, "decompose", fix("depolarizing_superop_a.json"))
    assert code == 0
    assert rep["map"]["is_cp"] is True
    assert rep["map"]["is_tp"] is True


def test_decompose_malformed_dim(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("bad_dim.json"))
    assert code == 1
    assert "$.data" in err


def test_decompose_bad_complex_encoding(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("bad_complex.json"))
    assert code == 1
    assert "$.data[0][0]" in err


def test_decompose_missing_file(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("no_such_file.json"))
    assert code == 1


def test_decompose_rejects_joint_document(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("bell_cnot_joint.json"))
    assert code == 1
    assert "$.kind" in err


def test_decompose_broken_tp(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("broken_tp_choi.json"))
    assert code == 2
    assert "trace-preservation" in err


def test_verify_transpose(capsys):
    code, rep, _ = run_json(
        capsys, "verify", fix("transpose_choi.json"), "--samples", "50", "--seed", "7"
    )
    assert code == 0
    assert rep["reconstruction"]["max_residual"] <= 1e-9
    assert rep["reconstruction"]["passed"] is True
    assert rep["reconstruction"]["seed"] == 7


def test_verify_identity(capsys):
    code, rep, _ = run_json(capsys, "verify", fix("identity_kraus.json"))
    assert code == 0
    assert rep["reconstruction"]["max_residual"] <= 1e-12


def test_verify_symmetric_variant(capsys):
    code, rep, _ = run_json(
        capsys, "verify", fix("ncp_family_05_choi.json"), "--variant", "symmetric"
    )
    assert code == 0
    assert rep["reconstruction"]["variant"] == "symmetric"
    assert rep["reconstruction"]["max_residual"] <= 1e-9


def test_verify_corrupted_choi_precondition(capsys):
    code, _, err = run_cli(capsys, "verify", fix("broken_tp_choi.json"))
    assert code == 2


def test_verify_unreachable_tolerance_exits_3(capsys):
    code, rep, err = run_json(
        capsys, "verify", fix("ncp_family_05_choi.json"), "--tol-residual", "1e-30"
    )
    assert code == 3
    assert rep["reconstruction"]["passed"] is False
    assert "exceeds tolerance" in err


def run_one_stream(*argv):
    """``(exit code, report, last line)`` of one in-process call whose stdout
    and stderr share one stream, so the order of their writes shows."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = main(list(argv))
    report, line = text.getvalue().rstrip("\n").rsplit("\n", 1)
    return code, json.loads(report), line  # the whole report precedes the line


def test_verify_fixture_with_embedded_tight_tolerance_exits_3():
    code, rep, line = run_one_stream("verify", fix("verify_fail_tight_tol.json"))
    assert code == 3
    assert rep["tolerances"]["residual_abs"] == 1e-30
    worst = rep["reconstruction"]["max_residual"]
    assert rep["reconstruction"]["passed"] is False and worst > 1e-30
    assert line == f"error: reconstruction residual {worst:.3e} exceeds tolerance 1.000e-30"


def test_dilate_amplitude_damping(capsys):
    code, rep, _ = run_json(capsys, "dilate", fix("amplitude_damping_kraus.json"))
    assert code == 0
    d = rep["dilation"]
    assert d["system_dim"] == 2 and d["ancilla_dim"] == 2
    assert len(d["unitary"]) == 4
    assert d["unitarity_residual"] <= 1e-10
    assert d["round_trip_max_residual"] <= 1e-9


def test_dilate_unitary_has_trivial_ancilla(capsys):
    code, rep, _ = run_json(capsys, "dilate", fix("unitary_kraus.json"))
    assert code == 0
    assert rep["dilation"]["ancilla_dim"] == 1


def test_dilate_refuses_ncp(capsys):
    code, _, err = run_cli(capsys, "dilate", fix("transpose_choi.json"))
    assert code == 2
    assert "-1.0" in err or "-1.000000e+00" in err


def test_witness_bell(capsys):
    code, rep, _ = run_json(capsys, "witness", fix("bell_cnot_joint.json"))
    assert code == 0
    w = rep["witness"]
    assert w["verdict"] == "positive_extension_impossible"
    assert abs(w["purity"] - 0.5) <= 1e-12
    assert w["schmidt_rank"] == 2


def test_witness_product_state(capsys):
    code, rep, _ = run_json(capsys, "witness", fix("product_joint.json"))
    assert code == 0
    assert rep["witness"]["verdict"] == "product_state"


def test_extract_requires_unitary(capsys):
    code, _, err = run_cli(capsys, "extract", fix("product_joint.json"))
    assert code == 1
    assert "$.data.unitary" in err


def test_extract_rejects_non_unitary(capsys):
    code, _, err = run_cli(capsys, "extract", fix("nonunitary_joint.json"))
    assert code == 2
    assert "unitarity" in err


def test_extract_bell_cnot_embeds_ncp_map(capsys, tmp_path):
    code, rep, _ = run_json(capsys, "extract", fix("bell_cnot_joint.json"))
    assert code == 0
    assert rep["map"]["is_cp"] is False
    embedded = rep["extraction"]["extracted_map"]
    assert embedded["kind"] == "superop_b"

    # re-feed the embedded document: decompose must see the same NCP map
    path = tmp_path / "extracted.json"
    path.write_text(json.dumps(embedded))
    code, rep2, _ = run_json(capsys, "decompose", str(path))
    assert code == 0
    assert rep2["map"]["is_cp"] is False
    assert rep2["map"]["min_choi_eigenvalue"] < -1e-6

    choi = np.array([[complex(re, im) for re, im in row] for row in embedded["data"]])
    ok, _ = check_cp(LinearMap(choi))
    assert not ok


def test_pipe_through_closure(capsys, tmp_path):
    for joint in ("bell_cnot_joint.json", "bell_swap_joint.json"):
        code, rep, _ = run_json(capsys, "extract", fix(joint))
        assert code == 0
        path = tmp_path / f"emb_{joint}"
        path.write_text(json.dumps(rep["extraction"]["extracted_map"]))
        code, _, _ = run_json(capsys, "decompose", str(path))
        assert code == 0
        code, rep3, _ = run_json(capsys, "verify", str(path), "--seed", "3")
        assert code == 0
        assert rep3["reconstruction"]["max_residual"] <= 1e-9


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", fix("transpose_choi.json"), "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", fix("transpose_choi.json"), "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "decompose", fix("ncp_family_05_choi.json"))
    _, out4, _ = run_cli(capsys, "decompose", fix("ncp_family_05_choi.json"))
    assert out3 == out4


def test_document_seed_used_unless_overridden(capsys):
    _, rep, _ = run_json(capsys, "decompose", fix("ncp_family_05_choi.json"))
    assert rep["seed"] == 11  # from the document
    _, rep, _ = run_json(capsys, "decompose", fix("ncp_family_05_choi.json"), "--seed", "4")
    assert rep["seed"] == 4


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "witness", fix("product_joint.json"), "--format", "text")
    assert code == 0
    assert "witness.verdict = \"product_state\"" in out


def _report_field(report, dotted):
    for key in dotted.split("."):
        report = report[key]
    return report


def _leaves(value):
    return sum(map(_leaves, value.values())) if isinstance(value, dict) else 1


@pytest.mark.parametrize("command,name", [("dilate", "amplitude_damping_kraus.json"),
                                          ("decompose", "transpose_choi.json")])
def test_text_format_lines_parse_back_to_json_fields(capsys, command, name):
    code, rep, _ = run_json(capsys, command, fix(name))
    assert code == 0
    code, out, _ = run_cli(capsys, command, fix(name), "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == _leaves(rep)
    for line in lines:
        key, value = line.split(" = ", 1)
        assert json.loads(value) == _report_field(rep, key), key


def _assert_clean_usage_error(code, err):
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_negative_seed_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "decompose", fix("transpose_choi.json"), "--seed", "-1")
    _assert_clean_usage_error(code, err)
    assert "--seed" in err

    doc = json.loads((FIXTURES / "transpose_choi.json").read_text())
    doc["seed"] = -3
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "decompose", str(path))
    _assert_clean_usage_error(code, err)
    assert "$.seed" in err


def test_samples_below_one_rejected(capsys):
    for samples in ("0", "-5"):
        code, out, err = run_cli(
            capsys, "verify", fix("transpose_choi.json"), "--samples", samples
        )
        _assert_clean_usage_error(code, err)
        assert "--samples" in err
        assert out == ""


@pytest.mark.parametrize("before, after", [
    (["--seed", "3", "--variant", "symmetric"], []),
    (["--format", "text", "--samples", "5"], ["--seed", "2"]),
    (["--tol-eig", "1e-9"], ["--variant", "literal", "--tol-residual", "1e-7"]),
], ids=["all-before", "split", "tolerances"])
def test_flags_before_the_command_give_the_same_report(capsys, before, after):
    path = fix("transpose_choi.json")
    first = run_cli(capsys, *before, "verify", path, *after)
    assert first[0] == 0
    assert first == run_cli(capsys, "verify", path, *after, *before)


def test_traced_call_records_the_span_of_its_command(capsys):
    # perfbench/tracing.py wraps the module attributes cmd_<name>, so main
    # must look its command up at call time for the benchmark to count it
    tracer = _fixture_reports().perfbench_module("tracing").Tracer()
    with tracer.installed():
        tracer.call_id = 0
        code, _, _ = run_cli(capsys, "witness", fix("bell_cnot_joint.json"))
        tracer.call_id = None
    assert code == 0
    assert [span[0] for span in tracer.spans if span[1] == "cli"] == ["cli.cmd_witness"]


def _record_solves(monkeypatch):
    """``(name, copy of the matrix)`` of every ``eigh`` / ``eigvalsh`` call
    from here on, in call order."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _solver=solver, _name=name, **kwargs):
            seen.append((_name, np.array(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _write_doc(tmp_path, doc):
    from dynamap.docio import canonical_json

    path = tmp_path / "doc.json"
    path.write_text(joined(canonical_json, doc))
    return str(path)


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_verify_fails_when_the_zero_cut_drops_eigenvalues(capsys, tmp_path, variant):
    # a --tol-eig that cuts the smallest eigenvalue of each sign truncates the
    # split, and the reconstruction sees the truncation
    from dynamap.generators import random_tp_map

    m = random_tp_map(3, np.random.default_rng(5))
    values = m.eigenvalues
    rel = 1.01 * max(values[values > 0].min(), -values[values < 0].max()) / np.abs(values).max()
    path = _write_doc(tmp_path, {"kind": "choi", "dim": 3, "data": m.choi})
    code, rep, err = run_json(capsys, "verify", path, "--tol-eig", repr(float(rel)),
                              "--variant", variant)
    assert code == 3 and err.startswith("error: reconstruction residual")
    assert rep["dimensions"]["dilation_dim"] <= 3 * 7
    assert rep["reconstruction"]["passed"] is False
    assert rep["reconstruction"]["max_residual"] > 1e-3


def test_decompose_eigendecomposes_source_choi_once(capsys, monkeypatch, tmp_path):
    from dynamap.generators import random_tp_map

    m = random_tp_map(3, np.random.default_rng(2))
    path = _write_doc(tmp_path, {"kind": "choi", "dim": 3, "data": m.choi})
    seen = _record_solves(monkeypatch)
    code, _, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    assert sum(a.shape == m.choi.shape and np.array_equal(a, m.choi) for _, a in seen) == 1
    assert all(a.shape[-1] != 36 for _, a in seen)


@pytest.mark.parametrize("command", [["decompose"], ["verify"],
                                     ["verify", "--variant", "symmetric"]])
def test_each_trace_functional_is_solved_once(capsys, monkeypatch, tmp_path, command):
    from dynamap.generators import random_tp_map_with_kernel

    m = random_tp_map_with_kernel(3, np.random.default_rng(3))
    path = _write_doc(tmp_path, {"kind": "choi", "dim": 3, "data": m.choi})
    seen = _record_solves(monkeypatch)
    code, rep, _ = run_json(capsys, *command, path)
    assert code == 0
    at_side = [(name, a) for name, a in seen if a.shape[-1] == 3]
    assert [name for name, _ in at_side] == ["eigh", "eigh"]
    for (_, a), key in zip(at_side, ("plus_functional", "minus_functional")):
        pairs = np.asarray(rep["split"][key])
        assert np.array_equal(a, pairs[..., 0] + 1j * pairs[..., 1])


def test_extract_solves_only_the_extracted_choi_eigenvalues(capsys, monkeypatch, tmp_path):
    from dynamap.generators import haar_unitary, random_joint_pure_state

    rng = np.random.default_rng(21)
    state = random_joint_pure_state((3, 2), rng)
    path = _write_doc(tmp_path, {
        "kind": "joint_dynamics", "dims": [3, 2],
        "data": {"state": state.amplitudes, "unitary": haar_unitary(6, rng)},
    })
    seen = _record_solves(monkeypatch)
    code, rep, _ = run_json(capsys, "extract", path)
    assert code == 0
    pairs = np.asarray(rep["extraction"]["extracted_map"]["data"])
    choi = pairs[..., 0] + 1j * pairs[..., 1]
    at_side = [(name, a) for name, a in seen if a.shape[-1] == 9]
    assert [name for name, _ in at_side] == ["eigvalsh"]
    assert np.array_equal(at_side[0][1], choi)


def test_dilate_kraus_document_solves_nothing_at_choi_side(capsys, monkeypatch, tmp_path):
    from dynamap.generators import random_cptp_kraus

    ops = random_cptp_kraus(3, 4, np.random.default_rng(22)).operators
    path = _write_doc(tmp_path, {"kind": "kraus", "dim": 3, "data": ops})
    seen = _record_solves(monkeypatch)
    code, rep, _ = run_json(capsys, "dilate", path)
    assert code == 0 and rep["dilation"]["ancilla_dim"] == 4
    assert [(name, a.shape) for name, a in seen] == [("eigh", (4, 4))]  # the Gram matrix
    assert rep["map"]["choi_eigenvalues"][4:] == [0.0] * 5


def test_dilate_choi_document_solves_one_eigh(capsys, monkeypatch, tmp_path):
    from dynamap.generators import random_cptp_kraus
    from dynamap.maps import kraus_to_map

    choi = kraus_to_map(random_cptp_kraus(3, 4, np.random.default_rng(23))).choi
    path = _write_doc(tmp_path, {"kind": "choi", "dim": 3, "data": choi})
    seen = _record_solves(monkeypatch)
    code, rep, _ = run_json(capsys, "dilate", path)
    assert code == 0 and rep["dilation"]["ancilla_dim"] == 4
    assert [name for name, a in seen if a.shape[-1] == 9] == ["eigh"]


def test_tolerance_flag_validation(capsys, tmp_path):
    # a bad flag names the flag; a bad tolerances object in the document names its path
    code, _, err = run_cli(capsys, "decompose", fix("transpose_choi.json"), "--tol-eig", "2.0")
    assert code == 1
    assert err == "error: invalid input: --tol-eig: zero_eig_rel must be in (0, 1), got 2.0\n"
    code, _, err = run_cli(capsys, "decompose", fix("transpose_choi.json"), "--tol-residual", "nan")
    assert code == 1
    assert err == "error: invalid input: --tol-residual: residual_abs must be in (0, 1), got nan\n"
    doc = json.loads((FIXTURES / "transpose_choi.json").read_text())
    doc["tolerances"] = {"zero_eig_rel": 2.0}
    path = tmp_path / "bad_tolerances.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "decompose", str(path))
    assert code == 1 and err.startswith("error: invalid input: $.tolerances")


def test_unknown_kind_rejected(capsys, tmp_path):
    path = tmp_path / "weird.json"
    path.write_text('{"kind": "chi", "dim": 2, "data": []}')
    code, _, err = run_cli(capsys, "decompose", str(path))
    assert code == 1
    assert "$.kind" in err


def test_stdin_input(capsys, monkeypatch):
    payload = (FIXTURES / "identity_kraus.json").read_bytes()

    class FakeStdin:
        buffer = None

    import io

    fake = FakeStdin()
    fake.buffer = io.BytesIO(payload)
    monkeypatch.setattr(sys, "stdin", fake)
    code, rep, _ = run_json(capsys, "decompose", "-")
    assert code == 0
    assert rep["map"]["is_cp"] is True
    assert rep["input_digest"] == hashlib.sha256(payload).hexdigest()


class _FailingStdin:
    class buffer:  # noqa: N801 - stands in for the ``sys.stdin.buffer`` attribute
        @staticmethod
        def read():
            raise OSError(5, "Input/output error")


@pytest.mark.parametrize("stdin,reason", [
    (None, "stdin is closed"),  # ``sys.stdin`` of a process started with stdin closed
    (_FailingStdin(), "[Errno 5] Input/output error"),
], ids=["closed", "read_error"])
def test_unreadable_stdin_is_invalid_input(capsys, monkeypatch, stdin, reason):
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "decompose", "-")
    assert code == 1 and out == ""
    assert err == f"error: invalid input: $: cannot read stdin: {reason}\n"


@pytest.mark.parametrize("command,name,stage,reason", [
    ("dilate", "amplitude_damping_kraus.json", "qr", "Unable to allocate 8.00 GiB"),
    ("decompose", "transpose_choi.json", "eigh", ""),
])
def test_out_of_memory_is_a_precondition_failure(capsys, monkeypatch, command, name, stage,
                                                 reason):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.setattr(np.linalg, stage, out_of_memory)
    code, out, err = run_cli(capsys, command, fix(name))
    assert code == 2 and out == ""
    assert err == ("error: numerical precondition failure: out of memory"
                   f"{': ' + reason if reason else ''}\n")


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["--help"],
    ["decompose", fix("transpose_choi.json")],
    ["decompose", fix("transpose_choi.json"), "--format", "text"],
], ids=["version", "help", "json", "text"])
def test_closed_stdout_is_a_failed_write(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", None)  # ``sys.stdout`` of a process started with it closed
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and err == "error: cannot write report: stdout is closed\n"


def test_closed_stdout_leaves_a_usage_error_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    code, _, err = run_cli(capsys, "decompose", fix("transpose_choi.json"), "--seed", "-1")
    assert code == 1 and err.startswith("usage: ")
    assert err.endswith("\nerror: argument --seed: must be nonnegative, got -1\n")


class _FailingStderr:
    def write(self, _):
        raise OSError(9, "Bad file descriptor")


def _failed_round_trip(*args, **kwargs):
    from dynamap.dilation import RoundTripReport

    return RoundTripReport(max_residual=1.0, passed=False)


def test_failed_dilation_round_trip_exits_3_after_its_report(monkeypatch):
    import dynamap.dilation

    monkeypatch.setattr(dynamap.dilation, "dilation_round_trip", _failed_round_trip)
    code, rep, line = run_one_stream("dilate", fix("amplitude_damping_kraus.json"))
    assert code == 3
    assert rep["dilation"]["round_trip_passed"] is False
    assert line == "error: dilation round-trip residual 1.000e+00 exceeds tolerance 1.000e-09"


@pytest.mark.parametrize("stderr", [None, _FailingStderr()], ids=["closed", "write_error"])
@pytest.mark.parametrize("argv, want", [
    (["decompose", fix("bad_dim.json")], 1),
    (["decompose", fix("transpose_choi.json"), "--samples", "0"], 1),
    (["decompose", fix("broken_tp_choi.json")], 2),
    (["verify", fix("verify_fail_tight_tol.json")], 3),
    (["dilate", fix("amplitude_damping_kraus.json")], 3),
], ids=["invalid", "usage", "precondition", "verify", "dilate"])
def test_unwritable_stderr_keeps_the_exit_code(capsys, monkeypatch, stderr, argv, want):
    import dynamap.dilation

    # no fixture fails its round trip; this one gives dilate its exit-3 line
    monkeypatch.setattr(dynamap.dilation, "dilation_round_trip", _failed_round_trip)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == want
    assert capsys.readouterr().out[:1] == ("{" if want == 3 else "")  # exit 3 follows a report


@pytest.mark.parametrize("command, want", [
    ("--version >&-", 1),
    (f"decompose {fix('transpose_choi.json')} >&-", 1),
    (f"decompose {fix('broken_tp_choi.json')} 2>&-", 2),
    (f"verify {fix('verify_fail_tight_tol.json')} >/dev/null 2>&-", 3),
], ids=["version", "report", "precondition", "verify"])
def test_closed_stream_of_a_child_keeps_the_exit_code(command, want):
    child = subprocess.run(["sh", "-c", f'"$0" -m dynamap {command}', sys.executable],
                           stderr=subprocess.PIPE, text=True, timeout=60)
    assert child.returncode == want
    want_err = "" if command.endswith("2>&-") else "error: cannot write report: stdout is closed\n"
    assert child.stderr == want_err


def test_console_entry_point_subprocess():
    # byte-level determinism through the real process boundary
    cmd = [sys.executable, "-m", "dynamap", "decompose", fix("transpose_choi.json")]
    p1 = subprocess.run(cmd, capture_output=True)
    p2 = subprocess.run(cmd, capture_output=True)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    assert p1.stdout.strip().startswith(b'{"annihilation"')


_BLAS_THREADS = """
import contextlib
import io
import runpy
import sys
sys.argv = ["dynamap", "--version"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("dynamap", run_name="__main__")
import ctypes
from pathlib import Path
import numpy as np
libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_", None) if libs else None
print("none" if get is None else get())
"""


def test_cli_runs_blas_on_one_thread_unless_environment_sets_it():
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    counts = [subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=extra, capture_output=True,
                             text=True, check=True).stdout.strip()
              for extra in (env, dict(env, OPENBLAS_NUM_THREADS="2"))]
    if counts[0] == "none":
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    assert counts == ["1", "2"]


@pytest.fixture(scope="module")
def large_choi(tmp_path_factory):
    """A compact Choi document of a generic N=8 map, at least the size from
    which a CLI process parses it in a forked helper.  Each number is written
    to 18 significant digits and then 160 zeros: up to N=8 a report does not
    depend on the BLAS thread count, which differs between this process and
    a CLI child."""
    from dynamap.cli import _HELPER_BYTES
    from dynamap.generators import random_tp_map

    numbers = random_tp_map(8, np.random.default_rng(36)).choi.view(float).reshape(64, 128)
    rows = ",".join("[%s]" % ",".join("[%s,%s]" % pair for pair in zip(row[::2], row[1::2]))
                    for row in (["%.17e" % x for x in line] for line in numbers))
    text = '{"kind":"choi","dim":8,"data":[%s],"seed":3}' % rows.replace("e", "0" * 160 + "e")
    path = tmp_path_factory.mktemp("large") / "large_choi.json"
    path.write_text(text)
    assert path.stat().st_size >= _HELPER_BYTES
    return path


# Runs dynamap.__main__.main, as ``python -m dynamap`` does, on argv[3:].  It
# then writes to the file argv[1] whether this process opened the document
# (the helper's opens are its own) and whether a child of it is left
# unreaped.  With argv[2] "vanishing", a forked child deletes the document
# before it does anything else; with "nowait", the process ignores SIGCHLD,
# so the kernel reaps its children.
_PROBED_CLI = """
import json, os, signal, sys
probe, mode = sys.argv.pop(1), sys.argv.pop(1)
vanish = mode == "vanishing"
if mode == "nowait":
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
document, parent, opened = os.path.abspath(sys.argv[2]), os.getpid(), []

def hook(event, args):
    if event == "open" and os.getpid() == parent and os.path.abspath(str(args[0])) == document:
        opened.append(args[0])

def fork(real=os.fork):
    pid = real()
    if pid == 0 and vanish:
        os.unlink(document)
    return pid

sys.addaudithook(hook)
os.fork = fork
from dynamap.__main__ import main
code = main()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
with open(probe, "w") as fh:
    json.dump({"read_here": bool(opened), "child_left": left}, fh)
sys.exit(code)
"""


def _edited(raw: bytes, case: str) -> bytes:
    """``raw`` with its first ``[re, im]`` pair edited for ``case``."""
    start = raw.index(b'"data":[[[') + 9
    end = raw.index(b"]", start) + 1
    re_text = raw[start + 1:raw.index(b",", start)]
    pair = {"whitespace": b"[%s, 0]" % re_text, "overflow": b"[1e400,0]",
            "short_row": b"[%s]" % re_text}[case]
    return raw[:start] + pair + raw[end:]


@pytest.mark.parametrize("case,argv", [
    ("regular", ["decompose"]),
    ("regular", ["verify", "--variant", "literal"]),
    ("regular", ["verify", "--variant", "symmetric"]),
    ("whitespace", ["decompose"]),  # irregular: the helper sends nothing
    ("overflow", ["decompose"]),  # the helper sends a matrix holding inf
    ("short_row", ["decompose"]),
    ("missing", ["decompose"]),
    ("vanishing", ["decompose"]),  # gone when the helper reads it
    ("nowait", ["decompose"]),  # a regular document, SIGCHLD ignored
])
def test_large_document_child_reports_as_in_process_main(capsys, tmp_path, large_choi, case,
                                                         argv):
    path = tmp_path / "doc.json"
    argv = [argv[0], str(path), *argv[1:]]
    if case in ("whitespace", "overflow", "short_row"):
        path.write_bytes(_edited(large_choi.read_bytes(), case))
    elif case in ("regular", "nowait"):
        path.write_bytes(large_choi.read_bytes())
    want = run_cli(capsys, *argv)  # in process, numpy loaded: never a helper
    if case == "vanishing":
        path.write_bytes(large_choi.read_bytes())
    probe = tmp_path / "probe.json"
    child = subprocess.run(
        [sys.executable, "-c", _PROBED_CLI, str(probe), case, *argv], capture_output=True,
        text=True, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == want
    assert json.loads(probe.read_text()) == {"read_here": case not in ("regular", "nowait"),
                                             "child_left": False}
    if case in ("overflow", "short_row"):
        assert want[0] == 1 and want[2].startswith("error: invalid input: $.data[0][0]")


def test_a_bad_tolerance_flag_is_judged_before_the_document_is_read(large_choi):
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "dynamap", "decompose",
                            str(large_choi), "--tol-eig", "2"], capture_output=True, text=True)
    loaded = {line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    rest = [line for line in child.stderr.splitlines() if not line.startswith("import time:")]
    assert (child.returncode, child.stdout) == (1, "")
    assert rest == ["error: invalid input: --tol-eig: zero_eig_rel must be in (0, 1), got 2.0"]
    # no numpy, and no helper: its module is imported only to fork one
    assert "dynamap.cli" in loaded and not loaded & {"numpy", "dynamap.docio", "dynamap.compact"}


_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
_JOINT_IDLE = ("numpy.random", "dynamap.cpsplit", "dynamap.extension", "dynamap.dilation",
               "dynamap.generators", "dynamap.channels")


@pytest.mark.parametrize("command,name,idle", [
    ("witness", "bell_cnot_joint.json", _JOINT_IDLE),
    ("extract", "bell_cnot_joint.json", _JOINT_IDLE),
    ("decompose", "transpose_choi.json", ("numpy.random", "dynamap.dilation",
                                          "dynamap.entangled", "dynamap.channels")),
    ("dilate", "amplitude_damping_kraus.json", ("numpy.random", "dynamap.cpsplit",
                                                "dynamap.extension", "dynamap.entangled",
                                                "dynamap.channels")),
    ("verify", "transpose_choi.json", ("numpy.random", "dynamap.dilation",
                                       "dynamap.entangled", "dynamap.channels")),
    # parsed by a helper while the child imports the layers of its command
    ("decompose", "large_choi", ("numpy.random", "dynamap.dilation", "dynamap.entangled",
                                 "dynamap.channels")),
    ("verify", "large_choi", ("numpy.random", "dynamap.dilation", "dynamap.entangled",
                              "dynamap.channels")),
])
def test_subcommand_child_loads_only_the_layers_it_uses(request, command, name, idle):
    # -X importtime names every module the child imports, on stderr
    path = request.getfixturevalue(name) if name == "large_choi" else fix(name)
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "dynamap", command,
                            str(path)], capture_output=True, text=True)
    assert child.returncode == 0
    loaded = {line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()
              if line.startswith("import time:")}
    assert "dynamap.maps" in loaded and not loaded & set(idle)
    if _BUILTIN_SHA256:  # else the digest needs hashlib, and with it OpenSSL
        assert not loaded & {"hashlib", "_hashlib"}


def test_digest_falls_back_to_hashlib_without_a_builtin_sha256(capsys):
    argv = ["decompose", fix("transpose_choi.json")]
    blocked = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
               "from dynamap.__main__ import main; code = main(); "
               "print('hashlib' in sys.modules, file=sys.stderr); sys.exit(code)")
    child = subprocess.run([sys.executable, "-c", blocked, *argv], capture_output=True,
                           text=True)
    assert (child.returncode, child.stderr) == (0, "True\n")
    raw = (FIXTURES / "transpose_choi.json").read_bytes()
    assert json.loads(child.stdout)["input_digest"] == hashlib.sha256(raw).hexdigest()
    assert child.stdout == run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("argv,code,last_line", [
    (["--version"], 0, None),
    (["decompose"], 1, "error: the following arguments are required: file"),
    (["decompose", "x.json", "--seed", "-1"], 1,
     "error: argument --seed: must be nonnegative, got -1"),
    (["decompose", "x.json", "--samples", "0"], 1,
     "error: argument --samples: must be at least 1, got 0"),
])
def test_version_and_usage_errors_load_no_numpy(argv, code, last_line):
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "dynamap", *argv],
                           capture_output=True, text=True)
    timings = [line for line in child.stderr.splitlines() if line.startswith("import time:")]
    loaded = {line.rsplit("|", 1)[-1].strip() for line in timings}
    rest = [line for line in child.stderr.splitlines() if not line.startswith("import time:")]
    assert "dynamap.cli" in loaded and "numpy" not in loaded
    assert child.returncode == code
    if last_line is None:
        assert child.stdout == f"dynamap {__version__}\n" and rest == []
    else:
        assert child.stdout == ""
        assert rest[0].startswith("usage: dynamap ") and rest[-1] == last_line


def test_help_names_the_commands_and_exit_codes_without_markup(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0 and err == ""
    description = out.split("\n\n")[1]  # after the usage lines, which list the choices anyway
    assert all(f"{command} " in description
               for command in ("decompose", "verify", "dilate", "witness", "extract"))
    text = " ".join(out.split())  # argparse wraps to the terminal width
    assert all(exit_code in text for exit_code in (
        "0 success", "1 invalid input", "2 numerical precondition failure", "3 verification failure"))
    assert not any(markup in out for markup in ("``", ":func:", ":mod:"))


def test_in_process_main_keeps_the_garbage_collector(capsys):
    import gc

    code, _, _ = run_cli(capsys, "witness", fix("bell_cnot_joint.json"))
    assert code == 0 and gc.isenabled()


def test_script_entry_is_the_function_python_m_calls():
    import importlib
    import re
    import runpy

    # the script line of [project.scripts]; tomllib needs Python 3.11
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    target = re.search(r'^dynamap = "(.+)"$', pyproject, re.MULTILINE).group(1)
    # run as "dynamap.__main__", the module defines main without calling it
    run_main = runpy.run_module("dynamap")["main"]
    module, _, attr = target.partition(":")
    script_main = getattr(importlib.import_module(module), attr)
    assert callable(script_main) and script_main.__code__ == run_main.__code__


_HUGE_INT = "1" + "0" * 309


@pytest.mark.parametrize("document,path", [
    ('{"kind": "kraus", "dim": 1, "data": [[[[%s, 0]]]]}' % _HUGE_INT, "$.data[0][0][0][0]"),
    ('{"kind": "kraus", "dim": 1, "data": [[[[1, 0]]]], "weights": [%s]}' % _HUGE_INT,
     "$.weights[0]"),
    ('{"kind": "kraus", "dim": 1, "data": [[[[1, 0]]]], "tolerances": {"residual_abs": %s}}'
     % _HUGE_INT, "$.tolerances.residual_abs"),
    ('{"kind": "kraus", "dim": 1, "data": [[[[%s, 0]]]]}' % ("7" * 5000), "$"),
    ('{"kind": "choi", "dim": 1, "data": %s%s}' % ("[" * 100000, "]" * 100000), "$"),
], ids=["overflow_data", "overflow_weights", "overflow_tolerances", "many_digits", "deep"])
def test_oversized_or_deep_json_is_invalid_input(capsys, tmp_path, document, path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(document)
    code, out, err = run_cli(capsys, "decompose", str(doc_path))
    _assert_clean_usage_error(code, err)
    assert err.startswith(f"error: invalid input: {path}: ")
    assert out == ""


def _json_error(text):
    try:
        json.loads(text)
    except ValueError as exc:
        return f"not valid JSON: {exc}"


_KRAUS = '"kind": "kraus", "dim": 1'
_ONE_OP = _KRAUS + ', "data": [[[[1, 0]]]]'
_JOINT = '"kind": "joint_dynamics", "dims": [1, 1]'
# a compact matrix document whose rest, with its data span as null, is not JSON
_TRAILING_COMMA = '{"kind":"choi","dim":1,"data":[[[1,0]]],}'


@pytest.mark.parametrize("command,document,path,message", [
    ("decompose", '{%s, "tolerances": [1e-9]}' % _ONE_OP, "$.tolerances",
     "tolerances must be an object"),
    ("decompose", '{%s, "tolerances": {"zero_eig": 1e-9}}' % _ONE_OP, "$.tolerances.zero_eig",
     "unknown tolerance field"),
    ("decompose", "[1, 2]", "$", "document must be a JSON object"),
    ("witness", '{"kind": "joint_dynamics", "dims": [1], "data": {"state": [[1, 0]]}}', "$.dims",
     "joint_dynamics requires dims = [n_system, n_env]"),
    ("witness", '{%s, "data": [[1, 0]]}' % _JOINT, "$.data",
     "joint_dynamics data must be an object"),
    ("witness", '{%s, "data": {"unitary": [[[1, 0]]]}}' % _JOINT, "$.data.state",
     "missing state amplitudes"),
    ("decompose", '{%s, "data": []}' % _KRAUS, "$.data",
     "kraus data must be a nonempty list of matrices"),
    ("decompose", '{%s, "data": {"0": [[[1, 0]]]}}' % _KRAUS, "$.data",
     "kraus data must be a nonempty list of matrices"),
    ("decompose", '{%s, "weights": [1, 1]}' % _ONE_OP, "$.weights",
     "weights must match the number of operators"),
    ("decompose", '{%s, "weights": 1}' % _ONE_OP, "$.weights",
     "weights must match the number of operators"),
    ("decompose", '{%s, "weights": [0]}' % _ONE_OP, "$.weights", "weights must be positive"),
    ("decompose", '{%s, "weights": [-1.5]}' % _ONE_OP, "$.weights", "weights must be positive"),
    ("decompose", _TRAILING_COMMA, "$", _json_error(_TRAILING_COMMA)),
], ids=["tolerances_not_object", "unknown_tolerance", "not_object", "bad_dims",
        "joint_data_not_object", "missing_state", "empty_kraus", "kraus_not_list",
        "weights_length", "weights_not_list", "zero_weight", "negative_weight",
        "compact_rest_not_json"])
def test_each_document_error_is_one_invalid_input_line(capsys, tmp_path, command, document,
                                                       path, message):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(document)
    code, out, err = run_cli(capsys, command, str(doc_path))
    assert (code, out) == (1, "")
    assert err == f"error: invalid input: {path}: {message}\n"


def test_weighted_kraus_document(capsys, tmp_path):
    from dynamap.docio import parse_document
    from dynamap.maps import weighted_choi

    gamma, weights = 0.3, np.array([2.0, 0.5])
    damping = np.array([[[1, 0], [0, np.sqrt(1 - gamma)]], [[0, np.sqrt(gamma)], [0, 0]]])
    ops = damping / np.sqrt(weights)[:, None, None]  # so that sum_i w_i M_i^dag M_i = 1
    path = _write_doc(tmp_path, {"kind": "kraus", "dim": 2, "data": ops.astype(complex),
                                 "weights": weights})
    with open(path, "rb") as fh:
        m = parse_document(fh.read()).linear_map
    assert np.array_equal(m.choi, weighted_choi(ops.astype(complex), weights))
    assert run_cli(capsys, "decompose", path)[0] == 0
    code, rep, _ = run_json(capsys, "dilate", path)
    assert code == 0 and rep["dilation"]["round_trip_passed"] is True


def _identity_choi_with(entries):
    """The N=2 identity-map Choi document, ``vec(1) vec(1)^dag``, with the
    given ``{(row, col): value}`` entries set."""
    choi = np.zeros((4, 4))
    choi[np.ix_([0, 3], [0, 3])] = 1.0
    for (i, j), value in entries.items():
        choi[i, j] = value
    return {"kind": "choi", "dim": 2, "data": [[[v, 0.0] for v in row] for row in choi.tolist()]}


_NON_HERMITIAN = {
    "plain": ({(0, 2): 0.5}, "7.071e-01"),
    # outside what the output trace reads, so only the Hermiticity check can
    # refuse it; its residual overflows to inf, as does its norm
    "overflowing": ({(0, 2): 1.5e308, (2, 0): -1.5e308}, "inf"),
}


@pytest.mark.parametrize("case", sorted(_NON_HERMITIAN))
@pytest.mark.parametrize("command", ["decompose", "verify", "dilate"])
def test_non_hermitian_choi_is_a_precondition_failure(capsys, tmp_path, command, case):
    entries, residual = _NON_HERMITIAN[case]
    path = _write_doc(tmp_path, _identity_choi_with(entries))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command, path)
    assert not caught and code == 2 and out == ""
    assert err == ("error: numerical precondition failure: "
                   f"Choi Hermiticity residual {residual} exceeds tolerance\n")


@pytest.mark.parametrize("command", ["decompose", "verify", "dilate"])
def test_kraus_document_whose_choi_overflows_is_invalid_input(capsys, tmp_path, command):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text('{"kind": "kraus", "dim": 1, "data": [[[[1e200, 0]]]]}')
    code, out, err = run_cli(capsys, command, str(doc_path))
    _assert_clean_usage_error(code, err)
    assert err.startswith("error: invalid input: $.data: ")
    assert err.count("\n") == 1 and out == ""


def test_kraus_document_whose_norms_overflow_reports_a_finite_residual(tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text('{"kind":"kraus","dim":2,"data":[[[[1e150,0],[0,0]],[[0,0],[1,0]]]]}')
    child = subprocess.run([sys.executable, "-m", "dynamap", "decompose", str(doc_path)],
                           capture_output=True, text=True)
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr.count("\n") == 1
    assert child.stderr.startswith("error: numerical precondition failure: "
                                   "trace-preservation residual 1.000e+300 ")


def test_witness_eigendecomposes_reduced_state_once(capsys, monkeypatch):
    from dynamap.docio import parse_document

    doc = parse_document((FIXTURES / "bell_cnot_joint.json").read_bytes())
    reduced = doc.state.reduced_system()
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _solver=solver, **kwargs):
            seen.append(np.array(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    code, _, _ = run_cli(capsys, "witness", fix("bell_cnot_joint.json"))
    assert code == 0
    assert len(seen) == 1 and np.array_equal(seen[0], reduced)


def _fixture_reports():
    sys.path.insert(0, str(Path(__file__).parent))
    try:
        import fixture_reports
    finally:
        sys.path.pop(0)
    return fixture_reports


def test_fixture_reports_cover_every_fixture_and_command(tmp_path):
    fixture_reports = _fixture_reports()
    codes = fixture_reports.write_reports(tmp_path)
    assert len(codes) == len(list(FIXTURES.glob("*.json"))) * len(fixture_reports.COMMANDS)
    assert set(codes.values()) <= {0, 1, 2, 3}
    argv_codes = fixture_reports.write_argv_reports(tmp_path)
    assert argv_codes == {f"argv.{name}.txt": 0 if "help" in name or name == "version" else 1
                          for name in fixture_reports.ARGV_RUNS}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(codes | argv_codes)
    report = (tmp_path / "argv.version.txt").read_text()
    assert report == f"exit: 0\n--- stderr\n--- stdout\ndynamap {__version__}\n"
    report = (tmp_path / "argv.tol-eig-2.txt").read_text()
    assert report.startswith("exit: 1\n--- stderr\nerror: invalid input: --tol-eig: ")
    report = (tmp_path / "transpose_choi.decompose.txt").read_text()
    assert report.startswith("exit: 0\n--- stderr\n--- stdout\n{")
    report = (tmp_path / "transpose_choi.decompose-text.txt").read_text()
    assert report.startswith("exit: 0\n--- stderr\n--- stdout\nannihilation.")


def test_fixture_reports_bench_runs_each_call_with_its_expected_exit_code(tmp_path):
    fixture_reports = _fixture_reports()
    codes = fixture_reports.write_bench_reports(1, tmp_path, ["small_cli_mix"])
    assert len(codes) == 2 * 20  # the workload's 20 calls, in JSON and in text
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(codes)
    for target, (code, expected) in codes.items():
        assert code == expected, target
        assert (tmp_path / target).read_text().startswith(f"exit: {code}\n--- stderr\n")
    assert {expected for _, expected in codes.values()} == {0, 1, 2, 3}


def test_benchmark_checks_pass_on_every_workload_call():
    # perfbench/checks.py on each call of every workload at seed 1, in
    # process: a report field the benchmark reads breaks here first
    fixture_reports = _fixture_reports()
    checks = fixture_reports.perfbench_module("checks")
    rng = np.random.default_rng(1)
    failed, workloads = {}, set()
    with contextlib.closing(fixture_reports.bench_calls(1)) as calls:
        for stem, argv, call in calls:
            code, out, err = fixture_reports.run(argv)
            names, _ = checks.check(call, code, out.encode(), err.encode(), rng)
            if names:
                failed[stem] = names
            workloads.add(stem.split(".")[0])
    assert failed == {}
    assert workloads == set(fixture_reports.perfbench_module("workloads").WORKLOADS)


def test_fixture_reports_diff_names_what_moved(tmp_path):
    fixture_reports = _fixture_reports()
    old, new = tmp_path / "old", tmp_path / "new"
    for directory in (old, new):
        directory.mkdir()
    head = "exit: 0\n--- stderr\n--- stdout\n"
    (old / "same.txt").write_text(head + '{"a":{"b":1}}')
    (new / "same.txt").write_text(head + '{"a":{"b":1}}')
    (old / "m.json.txt").write_text(head + '{"a":{"b":1,"c":[1,2]},"d":true,"gone":0}')
    (new / "m.json.txt").write_text(head + '{"a":{"b":1,"c":[1,3]},"d":false,"added":0}')
    (old / "m.text.txt").write_text(head + "a.b = 1\na.c = 2\n")
    (new / "m.text.txt").write_text("exit: 3\n--- stderr\nerror: x\n--- stdout\na.b = 1\na.c = 5\n")
    (old / "spaced.txt").write_text(head + '{"a":1}')
    (new / "spaced.txt").write_text(head + '{"a": 1}')
    (new / "extra.txt").write_text(head)
    assert fixture_reports.diff_reports(old, new) == [
        f"extra.txt: ! only in {new}",
        "m.json.txt: ! a.c", f"m.json.txt: ! added (only in {new})",
        "m.json.txt: ! d", f"m.json.txt: ! gone (only in {old})",
        "m.text.txt: ! - exit: 0", "m.text.txt: ! + exit: 3", "m.text.txt: ! + error: x",
        "m.text.txt: ! - a.c = 2", "m.text.txt: ! + a.c = 5",
        "spaced.txt: ! (same values, different bytes)",
        "4 report files moved; 0 numeric moves, largest |change| none; 11 marked !",
    ]
    assert fixture_reports.diff_reports(old, old) == []


def test_fixture_reports_diff_gives_the_size_of_numeric_moves(tmp_path):
    fixture_reports = _fixture_reports()
    old, new = tmp_path / "old", tmp_path / "new"
    for directory in (old, new):
        directory.mkdir()
    head = "exit: 0\n--- stderr\n--- stdout\n"
    (old / "r.json.txt").write_text(head + json.dumps({
        "a": {"x": 0.5, "m": [[1, 0.25], [0, 2]], "n": 3, "s": "u", "z": None},
        "f": 1.0000000000000002, "v": [1.5, 2], "w": [0.5], "same": 7,
    }))
    (new / "r.json.txt").write_text(head + json.dumps({
        "a": {"x": 0.75, "m": [[1, 0.125], [1e-16, 2]], "n": 4, "s": "v", "z": 0.5},
        "f": 1, "v": [1.5, 2, 3], "w": 0.5, "same": 7,
    }))
    assert fixture_reports.diff_reports(old, new) == [
        "r.json.txt: a.m max |change| 0.12",
        "r.json.txt: ! a.n", "r.json.txt: ! a.s",
        "r.json.txt: a.x max |change| 0.25",
        "r.json.txt: ! a.z",
        "r.json.txt: f max |change| 2.2e-16",
        "r.json.txt: ! v", "r.json.txt: ! w",
        "1 report files moved; 3 numeric moves, largest |change| 0.25; 5 marked !",
    ]


def test_compact_fixtures_report_as_their_pretty_originals(tmp_path, monkeypatch):
    # the fixtures are pretty-printed, so only their compact copies, as
    # ``fixture_reports.py --compact`` writes them, take the list-light
    # parse of matrix documents
    import hashlib

    from dynamap import docio

    fixture_reports = _fixture_reports()
    pretty = fixture_reports.write_reports(tmp_path / "pretty")
    list_light = []
    real = docio._matrix_document

    def recording(raw):
        parsed = real(raw)
        list_light.append(parsed is not None)
        return parsed

    monkeypatch.setattr(docio, "_matrix_document", recording)
    assert fixture_reports.write_reports(tmp_path / "compact", compact=True) == pretty
    for fixture in sorted(FIXTURES.glob("*.json")):
        compact = json.dumps(json.loads(fixture.read_bytes()), separators=(",", ":")).encode()
        digests = [hashlib.sha256(raw).hexdigest() for raw in (compact, fixture.read_bytes())]
        for name in fixture_reports.COMMANDS:
            target = f"{fixture.stem}.{name}.txt"
            got = (tmp_path / "compact" / target).read_text()
            assert got.replace(*digests) == (tmp_path / "pretty" / target).read_text(), target
    # the compact copies of the six matrix fixtures take it, under every command
    assert list_light.count(True) == 6 * len(fixture_reports.COMMANDS)


def test_weighted_and_cut_fixtures_take_their_routes(monkeypatch):
    # the only fixtures whose reports run the walker's success path, Kraus
    # weights and a split's positive part summed from its Kraus operators
    from dynamap import cpsplit, docio

    walked, summed = [], []
    walk, kraus_to_map = docio._walk, cpsplit.kraus_to_map
    monkeypatch.setattr(docio, "_walk", lambda node, path, shape: (
        walked.append(path), walk(node, path, shape))[1])
    monkeypatch.setattr(cpsplit, "kraus_to_map", lambda kraus: (
        summed.append(len(kraus.operators)), kraus_to_map(kraus))[1])
    raw = (FIXTURES / "weighted_dephasing_kraus.json").read_bytes()
    assert b"true" in raw
    doc = docio.parse_document(raw)
    assert walked[0] == "$.data"  # the literal true sends the operators to the walker
    assert doc.kraus.weights.tolist() == [0.75, 0.25]
    assert np.array_equal(doc.linear_map.choi, [[1, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0],
                                                [0.5, 0, 0, 1]])
    doc = docio.parse_document((FIXTURES / "ncp_family_05_cut_choi.json").read_bytes())
    split = cpsplit.cp_split(doc.linear_map, doc.tol)
    # zero_eig_rel 0.5 cuts the -0.25 eigenvalue: no negative part, and the
    # positive part is the sum of its three Kraus operators
    assert np.allclose(doc.linear_map.eigenvalues, [0.75, 0.75, 0.75, -0.25], atol=1e-15)
    assert summed == [0, 3] and (split.n_positive, split.n_negative) == (3, 0)


_EXTREME_FLAGS = {
    "residual_1e-300": ["--tol-residual", "1e-300"],
    "eig_1e-300": ["--tol-eig", "1e-300"],
    "eig_0.9999999": ["--tol-eig", "0.9999999"],
}


@pytest.mark.parametrize("fixture,tolerance", [
    *((path.name, flags) for path in sorted(FIXTURES.glob("*.json")) for flags in _EXTREME_FLAGS),
    ("bell_cnot_joint.json", "document_residual_1e-300"),
])
def test_extreme_tolerances_end_in_an_exit_code(tmp_path, fixture, tolerance):
    # every command on every fixture, at tolerances no input meets or every input meets
    fixture_reports = _fixture_reports()
    path, flags = FIXTURES / fixture, _EXTREME_FLAGS.get(tolerance)
    if flags is None:  # the same bound, set by the document's tolerances object
        doc = json.loads(path.read_bytes())
        doc["tolerances"] = {"residual_abs": 1e-300}
        path, flags = tmp_path / fixture, []
        path.write_text(json.dumps(doc))
    codes = {name: fixture_reports.run([args[0], str(path), *args[1:], *flags])[0]
             for name, args in fixture_reports.COMMANDS.items()}
    assert set(codes.values()) <= {0, 1, 2, 3}, codes


def _scaled(node, scale):
    if isinstance(node, list):
        return [_scaled(entry, scale) for entry in node]
    return node * scale


_DIM1_CHOI = "identity_choi_dim1.json"  # no file: the 1 x 1 Choi matrix [[1]]

_MAGNITUDES = [
    *((name, "data", scale) for name in ("transpose_choi.json", "ncp_family_05_choi.json",
                                         "amplitude_damping_kraus.json")
      for scale in (1e300, 1e-300)),
    *(("bell_cnot_joint.json", "state", scale)
      for scale in (2.0 ** -60, 2.0 ** 600, 2.0 ** -600, 1e-310)),
    *(("bell_cnot_joint.json", "unitary", scale) for scale in (1e200, 1e300)),
    (_DIM1_CHOI, "data", 1e-320),
]


@pytest.mark.parametrize("fixture,key,scale", _MAGNITUDES)
def test_scaled_documents_end_in_an_exit_code(tmp_path, fixture, key, scale):
    # every command on documents scaled toward the ends of the float range,
    # subnormal entries included
    fixture_reports = _fixture_reports()
    if fixture == _DIM1_CHOI:
        doc = {"kind": "choi", "dim": 1, "data": [[[1.0, 0.0]]]}
    else:
        doc = json.loads((FIXTURES / fixture).read_bytes())
    if key == "unitary":  # a finite joint matrix that is not unitary
        doc["data"]["unitary"] = [[[scale * (i == j), 0.0] for j in range(4)] for i in range(4)]
    elif key == "state":
        doc["data"]["state"] = _scaled(doc["data"]["state"], scale)
    else:
        doc["data"] = _scaled(doc["data"], scale)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = {name: fixture_reports.run([args[0], str(path), *args[1:]])
                for name, args in fixture_reports.COMMANDS.items()}
    assert not caught and {code for code, _, _ in runs.values()} <= {0, 1, 2, 3}
    assert not any("Warning" in err for _, _, err in runs.values())
    if key == "unitary":
        assert runs["extract"][0] == 2 and runs["extract"][2].count("\n") == 1
        assert "unitarity residual inf exceeds" in runs["extract"][2]  # not nan
    if key != "state":
        return
    for name in ("witness", "extract"):  # the state is normalized: same verdicts
        code, out, err = runs[name]
        reference = fixture_reports.run([name, str(FIXTURES / fixture)])[1]
        got, want = json.loads(out), json.loads(reference)
        assert code == 0 and err == ""
        for field in ("verdict", "schmidt_rank"):
            assert got["witness"][field] == want["witness"][field]
        if scale == 2.0 ** -60:  # exact in binary: the same bytes but for the digest
            assert out.replace(got["input_digest"], want["input_digest"]) == reference
    extracted = [np.array(r["extraction"]["extracted_map"]["data"]) for r in (got, want)]
    assert np.abs(extracted[0] - extracted[1]).max() <= want["tolerances"]["residual_abs"]


@pytest.mark.parametrize("command", ["witness", "extract"])
def test_joint_commands_report_at_a_residual_tolerance_of_1e_300(capsys, command):
    code, rep, err = run_json(capsys, command, fix("bell_cnot_joint.json"),
                              "--tol-residual", "1e-300")
    assert code == 0 and err == ""
    assert rep["tolerances"]["residual_abs"] == 1e-300
    assert rep["witness"]["schmidt_rank"] == 2


def test_child_process_stdout_matches_in_process_main():
    # the real file descriptor behind stdout writes the same bytes as StringIO
    from concurrent.futures import ThreadPoolExecutor

    fixture_reports = _fixture_reports()
    runs = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        for args in fixture_reports.COMMANDS.values():
            argv = [args[0], str(fixture), *args[1:]]
            code, out, _ = fixture_reports.run(argv)
            if "[[" in out:  # the report holds an array
                runs.append((argv, code, out))
    assert {"--format" in argv for argv, _, _ in runs} == {False, True}

    def child(argv):
        done = subprocess.run([sys.executable, "-m", "dynamap", *argv], capture_output=True,
                              text=True)
        return done.returncode, done.stdout

    with ThreadPoolExecutor(2) as pool:
        for (argv, code, out), got in zip(runs, pool.map(child, [run[0] for run in runs])):
            assert got == (code, out), argv


# stdout buffered as by default, so a failed flush leaves bytes that interpreter
# shutdown would retry
_BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
# stdout unbuffered, so each write fails at once, inside argparse for --version and --help
_UNBUFFERED = {**_BUFFERED, "PYTHONUNBUFFERED": "1"}


def _assert_clean_write_failure(code, err):
    assert code == 1
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1, err


def test_report_into_a_pipe_closed_early_ends_in_an_error_line(tmp_path):
    from dynamap.docio import canonical_json
    from dynamap.generators import random_cptp_kraus

    # a 64-side dilation unitary: a report far larger than a pipe's buffer
    kraus = random_cptp_kraus(4, 16, np.random.default_rng(0))
    doc_path = tmp_path / "kraus.json"
    doc_path.write_text(joined(canonical_json, {"kind": "kraus", "dim": 4,
                                                "data": kraus.operators}))
    child = subprocess.Popen([sys.executable, "-m", "dynamap", "dilate", str(doc_path)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_BUFFERED)
    assert child.stdout.read(20) == b'{"command":"dilate",'
    child.stdout.close()
    err = child.stderr.read().decode()
    _assert_clean_write_failure(child.wait(timeout=60), err)
    assert "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, env", [
    (["dilate", fix("amplitude_damping_kraus.json"), "--format", "json"], _BUFFERED),
    (["dilate", fix("amplitude_damping_kraus.json"), "--format", "text"], _BUFFERED),
    (["--version"], _BUFFERED),
    (["--version"], _UNBUFFERED),
    (["--help"], _BUFFERED),
    (["--help"], _UNBUFFERED),
    (["decompose", "--help"], _UNBUFFERED),
], ids=["json", "text", "version", "version-unbuffered", "help", "help-unbuffered",
        "subcommand-help-unbuffered"])
def test_stdout_onto_a_full_device_ends_in_an_error_line(argv, env):
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-m", "dynamap", *argv], stdout=full,
                               stderr=subprocess.PIPE, text=True, env=env)
    _assert_clean_write_failure(child.returncode, child.stderr)


_EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 2.0 ** 52 + 1.0]


def test_canonical_json_arrays_match_nested_python_floats():
    from dynamap.docio import canonical_json

    rng = np.random.default_rng(8)
    cplx = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    cplx.real.flat[:len(_EDGE_FLOATS)] = _EDGE_FLOATS
    cplx.imag.flat[-len(_EDGE_FLOATS):] = _EDGE_FLOATS
    nested = [[[float(z.real), float(z.imag)] for z in row] for row in cplx]
    assert joined(canonical_json, cplx) == joined(canonical_json, nested)
    real = np.array(_EDGE_FLOATS + list(rng.standard_normal(5)))
    assert joined(canonical_json, real) == joined(canonical_json, [float(x) for x in real])
    for x in _EDGE_FLOATS:
        assert (joined(canonical_json, np.array(x)) == joined(canonical_json, x)
                == format(x, ".17g") + "\n")
    assert (joined(canonical_json, {"a": cplx, "b": [real]})
            == joined(canonical_json, {"a": nested, "b": [real.tolist()]}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_json_rejects_non_finite_array_entries(bad):
    from dynamap.docio import canonical_json

    for array in (np.zeros(4), np.zeros((2, 3), dtype=complex)):
        for index in (0, array.size - 1):
            poisoned = array.copy()
            poisoned.flat[index] = bad
            with pytest.raises(ValueError):
                joined(canonical_json, poisoned)
        poisoned = np.zeros((2, 2), dtype=complex)
        poisoned[1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError):
            joined(canonical_json, poisoned)
    with pytest.raises(ValueError):
        joined(canonical_json, np.array(bad))


def _nested_floats(array):
    """``array`` as nested lists of Python floats, complex entries as ``[re, im]``."""
    if array.ndim:
        return [_nested_floats(sub) for sub in array]
    z = array.item()
    return [z.real, z.imag] if isinstance(z, complex) else float(z)


def _rendered(nested):
    if isinstance(nested, list):
        return "[" + ",".join(map(_rendered, nested)) + "]"
    return format(nested, ".17g")


_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False,
                                                             allow_infinity=False))


@st.composite
def _report_arrays(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3))
    real = draw(hnp.arrays(float, shape, elements=_FINITE))
    if not draw(st.booleans()):
        return real
    array = np.empty(shape, dtype=complex)
    array.real = real
    array.imag = draw(hnp.arrays(float, shape, elements=_FINITE))
    return array


@given(_report_arrays())
def test_streamed_chunks_join_to_the_canonical_string(array):
    from dynamap.docio import canonical_json, canonical_text

    text = _rendered(_nested_floats(array))
    assert joined(canonical_json, array) == joined(canonical_json, _nested_floats(array)) == (
        text + "\n")
    report = {"b": [array, "s", 1, None], "a": {"m": array, "x": 0.5}}
    assert joined(canonical_json, report) == (
        f"{{\"a\":{{\"m\":{text},\"x\":0.5}},\"b\":[{text},\"s\",1,null]}}\n")
    assert joined(canonical_text, report) == (
        f"a.m = {text}\na.x = 0.5\nb = [{text},\"s\",1,null]\n")


def test_serialization_checks_the_whole_report_before_the_first_write():
    from dynamap.docio import canonical_json, canonical_text

    matrix = np.ones((8, 8), dtype=complex)
    poisoned = matrix.copy()
    poisoned[-1, -1] = complex(0.0, np.nan)
    for report, error in (({"a": matrix, "b": [matrix], "z": poisoned}, ValueError),
                          ({"a": matrix, "z": {1: 0.5}}, TypeError),
                          ({"a": matrix, "z": [matrix, object()]}, TypeError)):
        for render in (canonical_json, canonical_text):
            chunks = []
            with pytest.raises(error):
                render(report, chunks.append)
            assert chunks == []


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_is_exactly_what_the_docio_writer_writes(capsys, monkeypatch, fmt):
    # main calls the docio writer it finds at call time, as perfbench's tracer
    # wraps it, and writes nothing of its own: the line end comes from docio
    from dynamap import docio

    name = "canonical_json" if fmt == "json" else "canonical_text"
    render, written = getattr(docio, name), []

    def recording(report, write):
        with pytest.raises(TypeError):  # no string-returning mode without write
            render(report)
        chunks = []
        assert render(report, chunks.append) is None
        written.append("".join(chunks))
        return render(report, write)

    monkeypatch.setattr(docio, name, recording)
    code, out, err = run_cli(capsys, "dilate", fix("amplitude_damping_kraus.json"), "--format", fmt)
    assert code == 0 and err == ""
    assert written == [out]
    assert out.endswith("\n") and not out.endswith("\n\n")
    if fmt == "json":
        assert out.count("\n") == 1


@pytest.mark.parametrize("render", ["json", "text"])
@pytest.mark.parametrize("entries", ["complex", "real"])
def test_canonical_json_writes_a_matrix_one_row_at_a_time(entries, render):
    from dynamap.docio import canonical_json, canonical_text

    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((64, 64))
    if entries == "complex":
        matrix = matrix + 1j * rng.standard_normal((64, 64))
    renderer, value, key = ((canonical_json, matrix, "") if render == "json"
                            else (canonical_text, {"m": matrix}, "m = "))
    chunks = []
    renderer(value, chunks.append)
    assert len(chunks) > 64 and "".join(chunks) == key + _rendered(_nested_floats(matrix)) + "\n"
    # each chunk is at most one row's text, the bracket or comma before it and the key
    assert max(map(len, chunks)) <= len(key) + 1 + max(
        len(_rendered(_nested_floats(row))) for row in matrix)


def test_kraus_and_choi_documents_of_one_map_decide_alike_at_the_rounding_floor(
        capsys, tmp_path):
    # at --tol-eig 1e-300 the cut is its floor, len·eps·max|λ|: the dense
    # route's rounding noise counts as zero, as the Gram route's exact zeros do
    from dynamap.generators import random_cptp_kraus
    from dynamap.maps import kraus_to_map

    kraus = random_cptp_kraus(4, 3, np.random.default_rng(1))
    decisions = []
    for kind, data in (("kraus", kraus.operators), ("choi", kraus_to_map(kraus).choi)):
        path = _write_doc(tmp_path, {"kind": kind, "dim": 4, "data": data})
        code, rep, _ = run_json(capsys, "decompose", path, "--tol-eig", "1e-300")
        assert code == 0
        dilate_code, _, _ = run_cli(capsys, "dilate", path, "--tol-eig", "1e-300")
        decisions.append((rep["split"]["l_plus"], rep["split"]["l_minus"], rep["map"]["is_cp"],
                          rep["dimensions"], dilate_code))
    assert decisions[0] == decisions[1]
    assert decisions[0][:3] == (3, 0, True) and decisions[0][4] == 0

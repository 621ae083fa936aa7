import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_decompose_transpose_golden(capsys):
    code, rep, _ = run_json(capsys, "decompose", fix("transpose_choi.json"))
    assert code == 0
    assert np.allclose(rep["map"]["choi_eigenvalues"], [1, 1, 1, -1], atol=1e-10)
    assert rep["split"]["l_plus"] == 3
    assert rep["split"]["l_minus"] == 1
    assert rep["map"]["is_cp"] is False
    assert rep["dimensions"] == {"extension_dim": 4, "dilation_dim": 8, "n_squared_bound": 4}


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


def test_verify_fixture_with_embedded_tight_tolerance_exits_3(capsys):
    code, rep, _ = run_json(capsys, "verify", fix("verify_fail_tight_tol.json"))
    assert code == 3
    assert rep["tolerances"]["residual_abs"] == 1e-30


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


def test_decompose_eigendecomposes_source_choi_once(capsys, monkeypatch, tmp_path):
    from dynamap.docio import canonical_json
    from dynamap.generators import random_tp_map

    m = random_tp_map(3, np.random.default_rng(2))
    path = tmp_path / "n3.json"
    path.write_text(canonical_json({"kind": "choi", "dim": 3, "data": m.choi}))
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _solver=solver, **kwargs):
            seen.append(np.array(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    code, _, _ = run_cli(capsys, "decompose", str(path))
    assert code == 0
    assert sum(a.shape == m.choi.shape and np.array_equal(a, m.choi) for a in seen) == 1
    assert all(a.shape[-1] != 36 for a in seen)


def test_tolerance_flag_validation(capsys):
    code, _, err = run_cli(capsys, "decompose", fix("transpose_choi.json"), "--tol-eig", "2.0")
    assert code == 1


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


def test_console_entry_point_subprocess():
    # byte-level determinism through the real process boundary
    cmd = [sys.executable, "-m", "dynamap", "decompose", fix("transpose_choi.json")]
    p1 = subprocess.run(cmd, capture_output=True)
    p2 = subprocess.run(cmd, capture_output=True)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    assert p1.stdout.strip().startswith(b'{"annihilation"')


_BLAS_THREADS = """
import ctypes
from pathlib import Path
import numpy as np
import pytest
from dynamap.cli import _one_blas_thread
libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_", None) if libs else None
if get is None:
    print("none")
else:
    _one_blas_thread()
    print(get())
"""


def test_cli_runs_blas_on_one_thread_unless_environment_sets_it():
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    counts = [subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=extra, capture_output=True,
                             text=True, check=True).stdout.strip()
              for extra in (env, dict(env, OPENBLAS_NUM_THREADS="2"))]
    if counts[0] == "none":
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    assert counts == ["1", "2"]


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


@pytest.mark.parametrize("command", ["decompose", "verify", "dilate"])
def test_kraus_document_whose_choi_overflows_is_invalid_input(capsys, tmp_path, command):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text('{"kind": "kraus", "dim": 1, "data": [[[[1e200, 0]]]]}')
    code, out, err = run_cli(capsys, command, str(doc_path))
    _assert_clean_usage_error(code, err)
    assert err.startswith("error: invalid input: $.data: ")
    assert err.count("\n") == 1 and out == ""


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


def test_fixture_reports_cover_every_fixture_and_command(tmp_path):
    sys.path.insert(0, str(Path(__file__).parent))
    try:
        import fixture_reports
    finally:
        sys.path.pop(0)
    codes = fixture_reports.write_reports(tmp_path)
    assert len(codes) == len(list(FIXTURES.glob("*.json"))) * len(fixture_reports.COMMANDS)
    assert set(codes.values()) <= {0, 1, 2, 3}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(codes)
    report = (tmp_path / "transpose_choi.decompose.txt").read_text()
    assert report.startswith("exit: 0\n--- stderr\n--- stdout\n{")


_EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 2.0 ** 52 + 1.0]


def test_canonical_json_arrays_match_nested_python_floats():
    from dynamap.docio import canonical_json

    rng = np.random.default_rng(8)
    cplx = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    cplx.real.flat[:len(_EDGE_FLOATS)] = _EDGE_FLOATS
    cplx.imag.flat[-len(_EDGE_FLOATS):] = _EDGE_FLOATS
    nested = [[[float(z.real), float(z.imag)] for z in row] for row in cplx]
    assert canonical_json(cplx) == canonical_json(nested)
    real = np.array(_EDGE_FLOATS + list(rng.standard_normal(5)))
    assert canonical_json(real) == canonical_json([float(x) for x in real])
    for x in _EDGE_FLOATS:
        assert canonical_json(np.array(x)) == canonical_json(x) == format(x, ".17g")
    assert canonical_json({"a": cplx, "b": [real]}) == canonical_json({"a": nested,
                                                                     "b": [real.tolist()]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_json_rejects_non_finite_array_entries(bad):
    from dynamap.docio import canonical_json

    for array in (np.zeros(4), np.zeros((2, 3), dtype=complex)):
        for index in (0, array.size - 1):
            poisoned = array.copy()
            poisoned.flat[index] = bad
            with pytest.raises(ValueError):
                canonical_json(poisoned)
        poisoned = np.zeros((2, 2), dtype=complex)
        poisoned[1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError):
            canonical_json(poisoned)
    with pytest.raises(ValueError):
        canonical_json(np.array(bad))

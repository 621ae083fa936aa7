import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import dynamap

# the public names of the package, as its eager imports once exported them
PUBLIC = {
    "errors": "DynamapError DimensionMismatch NonHermitianChoi NotTracePreserving SingularJ "
              "NotCompleteKraus NotUnitary",
    "linalg": "ToleranceConfig DEFAULT_TOL partial_trace",
    "maps": "LinearMap KrausSet apply_map a_form from_a_form "
            "kraus_to_map map_to_kraus choi_eigenvalues check_tp check_hermiticity_preserving "
            "check_cp",
    "channels": "identity_map unitary_map transpose_map depolarizing_map "
                "amplitude_damping_kraus amplitude_damping_map ncp_family",
    "cpsplit": "CPSplit AnnihilationReport TraceFunctionalReport cp_split split_from_eigensystem "
               "verify_annihilation trace_functionals",
    "extension": "ExtendedState DimensionReport SectorChoiReport build_extension "
                 "apply_sector_map reconstruct sector_choi_report dimension_report",
    "dilation": "UnitaryDilation RoundTripReport kraus_to_unitary unitarity_residual "
                "dilation_round_trip",
    "entangled": "JointPureState WitnessCertificate AffineDynamics ExtensionVerdict bell_state "
                 "extension_witness induced_dynamics",
}


def test_import_dynamap_loads_no_numpy():
    child = subprocess.run(
        [sys.executable, "-c", "import sys, dynamap; print(sorted(m for m in sys.modules "
                               "if m.split('.')[0] in ('numpy', 'dynamap')))"],
        capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "['dynamap']"


def test_every_public_name_resolves_to_its_submodule_object():
    names = {name for names in PUBLIC.values() for name in names.split()}
    assert set(dynamap.__all__) == names | {"__version__"}
    assert len(dynamap.__all__) == len(set(dynamap.__all__))
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"dynamap.{module}")
        for name in names.split():
            assert getattr(dynamap, name) is getattr(sub, name)


def test_no_public_verdict_on_a_split_takes_a_second_tolerance():
    # a split is judged under split.tol; sector_choi_report keeps a third positional
    # slot, filled by perfbench's size sweep, that refuses any other tolerance
    from dynamap.cpsplit import CPSplit
    from dynamap.linalg import ToleranceConfig

    on_split, takes_tol = set(), set()
    for name in dynamap.__all__:
        fn = getattr(dynamap, name)
        if not inspect.isfunction(fn):
            continue
        hints = typing.get_type_hints(fn)
        params = list(inspect.signature(fn).parameters)
        if not params or hints.get(params[0]) is not CPSplit:
            continue
        on_split.add(name)
        if any(ToleranceConfig in (hints.get(p), *typing.get_args(hints.get(p)))
               for p in params[1:]):
            takes_tol.add(name)
    assert {"verify_annihilation", "trace_functionals", "sector_choi_report"} <= on_split
    assert takes_tol <= {"sector_choi_report"}
    split = dynamap.cp_split(dynamap.transpose_map(2))
    with pytest.raises(ValueError, match="tolerance that made it"):
        dynamap.sector_choi_report(split, "literal", ToleranceConfig(residual_abs=1e-6))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dynamap.no_such_name
    from dynamap import cli  # submodules still import through the package

    assert callable(cli.main)


def test_submodules_are_package_attributes_in_a_fresh_interpreter():
    # the package import once loaded these eagerly, so `dynamap.linalg.partial_trace`
    # worked after a bare `import dynamap`
    modules = [*PUBLIC, "generators"]
    child = subprocess.run(
        [sys.executable, "-c", "import dynamap; print([getattr(dynamap, m).__name__ for m in "
                               f"{modules!r}])"],
        capture_output=True, text=True, check=True)
    assert child.stdout.strip() == repr([f"dynamap.{m}" for m in modules])


def test_result_types_keep_only_their_inputs():
    # every other value is derived from these on first use
    from dynamap.cpsplit import CPSplit
    from dynamap.dilation import UnitaryDilation
    from dynamap.entangled import AffineDynamics, WitnessCertificate

    kept = {
        CPSplit: ["source", "positive_part", "negative_part", "tol"],
        WitnessCertificate: ["reduced_state", "schmidt_weights", "schmidt_rank"],
        UnitaryDilation: ["ancilla_dim", "unitary"],
        AffineDynamics: ["constant_part", "tp_linear_form", "consistency_residual"],
    }
    for cls, names in kept.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls


def test_only_linalg_names_the_zero_cut():
    # every other module decides what is numerically zero by linalg.sign_counts
    package = Path(dynamap.__file__).parent
    naming = sorted(path.name for path in package.glob("*.py") if "zero_cut" in path.read_text())
    assert naming == ["linalg.py"]


def test_every_traced_layer_function_resolves():
    # perfbench/tracing.py wraps these functions by name and reports a missing one as zero
    # calls, so a rename would silently zero its per-layer metrics; read without importing
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    assert "cmd_decompose" in layers["cli"]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"dynamap.{layer}"), name, None))]
    # deleted from docio; the benchmark's layer list drops it when the benchmark next changes
    assert set(missing) <= {"docio.encode_matrix"}

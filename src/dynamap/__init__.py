"""Decomposition of trace-preserving dynamical maps into completely
positive parts, extension maps, reconstruction, unitary dilation, and
entangled-initial-state diagnostics.

The public names below are re-exported lazily (PEP 562): ``import dynamap``
loads no submodule and no numpy, and the first use of a name imports the
submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DynamapError", "DimensionMismatch", "NonHermitianChoi", "NotTracePreserving", "SingularJ",
        "NotCompleteKraus", "NotUnitary",
    ),
    "linalg": ("ToleranceConfig", "DEFAULT_TOL", "partial_trace"),
    "maps": (
        "LinearMap", "KrausSet", "apply_map", "a_form", "from_a_form",
        "kraus_to_map", "map_to_kraus", "choi_eigenvalues", "check_tp",
        "check_hermiticity_preserving", "check_cp",
    ),
    "channels": (
        "identity_map", "unitary_map", "transpose_map", "depolarizing_map",
        "amplitude_damping_kraus", "amplitude_damping_map", "ncp_family",
    ),
    "cpsplit": (
        "CPSplit", "AnnihilationReport", "TraceFunctionalReport", "cp_split",
        "split_from_eigensystem", "verify_annihilation", "trace_functionals",
    ),
    "extension": (
        "ExtendedState", "DimensionReport", "SectorChoiReport", "build_extension",
        "apply_sector_map", "reconstruct", "sector_choi_report", "dimension_report",
    ),
    "dilation": (
        "UnitaryDilation", "RoundTripReport", "kraus_to_unitary", "unitarity_residual",
        "dilation_round_trip",
    ),
    "entangled": (
        "JointPureState", "WitnessCertificate", "AffineDynamics", "ExtensionVerdict",
        "bell_state", "extension_witness", "induced_dynamics",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that the package import once loaded stay package attributes
_SUBMODULES = {*_EXPORTS, "generators"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

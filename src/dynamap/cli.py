"""Command-line front end.

Subcommands: ``decompose`` (CP split, functionals, annihilation, sector and
dimension reports), ``verify`` (reconstruction identity on sampled states),
``dilate`` (unitary dilation of CPTP maps), ``witness`` (positive-extension
witness for joint pure states) and ``extract`` (induced subsystem dynamics
from a joint state and unitary, re-emittable as a map document).

Exit codes: 0 success, 1 invalid input, 2 numerical precondition failure,
3 verification failure.  Reports go to stdout, diagnostics to stderr.
"""

import argparse
import ctypes
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cpsplit import cp_split, trace_functionals, verify_annihilation
from .dilation import dilation_round_trip, kraus_to_unitary, unitarity_residual
from .docio import DocumentError, canonical_json, parse_document
from .entangled import extension_witness, induced_dynamics
from .errors import DynamapError, NotCompleteKraus
from .extension import dimension_report, reconstruct, sector_choi_report
from .generators import random_density_matrix, seeded_stack
from .linalg import ToleranceConfig
from .maps import (
    check_cp,
    check_hermiticity_preserving,
    check_tp,
    choi_eigenvalues,
    map_to_kraus,
    require_tp,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors count as invalid input, not precondition failures
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynamap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynamap {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="input document path, or - for stdin")
    common.add_argument("--tol-eig", type=float, default=None,
                        help="override the relative zero-eigenvalue threshold")
    common.add_argument("--tol-residual", type=float, default=None,
                        help="override the absolute residual tolerance")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--variant", choices=("literal", "symmetric"), default="literal",
                        help="extension construction used where applicable")
    common.add_argument("--samples", type=int, default=20,
                        help="number of sampled states for randomized checks (at least 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="nonnegative seed for sampled states (overrides the document seed)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("decompose", cmd_decompose),
        ("verify", cmd_verify),
        ("dilate", cmd_dilate),
        ("witness", cmd_witness),
        ("extract", cmd_extract),
    ):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func)
    return parser


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError("$", f"cannot read {path}: {exc}") from None


def _resolve(args):
    doc = parse_document(_read_input(args.file))
    tol_kwargs = {
        "zero_eig_rel": doc.tol.zero_eig_rel,
        "residual_abs": doc.tol.residual_abs,
    }
    if args.tol_eig is not None:
        tol_kwargs["zero_eig_rel"] = args.tol_eig
    if args.tol_residual is not None:
        tol_kwargs["residual_abs"] = args.tol_residual
    try:
        tol = ToleranceConfig(**tol_kwargs)
    except ValueError as exc:
        raise DocumentError("$.tolerances", str(exc)) from None
    seed = args.seed if args.seed is not None else (doc.seed if doc.seed is not None else 0)
    return doc, tol, seed


def _require_map_document(doc, command):
    if doc.linear_map is None:
        raise DocumentError("$.kind", f"{command} expects a map document, got {doc.kind!r}")


def _require_joint_document(doc, command):
    if doc.state is None:
        raise DocumentError("$.kind", f"{command} expects a joint_dynamics document")


def _map_section(m, tol) -> dict:
    hp_ok, hp_res = check_hermiticity_preserving(m, tol)
    tp_ok, tp_res = check_tp(m, tol)
    section = {
        "dim": m.dim,
        "is_hermiticity_preserving": hp_ok,
        "hermiticity_residual": hp_res,
        "is_tp": tp_ok,
        "tp_residual": tp_res,
        "is_cp": None,
        "min_choi_eigenvalue": None,
        "choi_eigenvalues": None,
    }
    if hp_ok:
        cp_ok, min_eig = check_cp(m, tol)
        section["is_cp"] = cp_ok
        section["min_choi_eigenvalue"] = min_eig
        section["choi_eigenvalues"] = choi_eigenvalues(m, tol)
    return section


def _sector_section(report) -> dict:
    return {
        "plus_hermiticity_residual": report.plus_hermiticity_residual,
        "plus_min_eig": report.plus_min_eig,
        "minus_hermiticity_residual": report.minus_hermiticity_residual,
        "minus_min_eig": report.minus_min_eig,
        "full_dim": report.full_dim,
        "full_hermiticity_residual": report.full_hermiticity_residual,
        "full_min_eig": report.full_min_eig,
    }


def _base_report(command, doc, tol, seed, args) -> dict:
    return {
        "command": command,
        "input_digest": doc.digest,
        "tool_version": __version__,
        "seed": seed,
        "samples": args.samples,
        "variant": args.variant,
        "tolerances": {"zero_eig_rel": tol.zero_eig_rel, "residual_abs": tol.residual_abs},
    }


def _decomposition_report(command, args):
    """Resolve a map document, split it and build the ``decompose`` report;
    returns ``(report, split, tol, seed)``."""
    doc, tol, seed = _resolve(args)
    _require_map_document(doc, command)
    split = cp_split(doc.linear_map, tol)
    ann = verify_annihilation(split, tol, samples=args.samples, seed=seed)
    tf = trace_functionals(split, samples=args.samples, seed=seed, tol=tol)
    dims = dimension_report(split)
    report = _base_report(command, doc, tol, seed, args)
    report["map"] = _map_section(doc.linear_map, tol)
    report.update({
        "split": {
            "l_plus": split.n_positive,
            "l_minus": split.n_negative,
            "plus_functional": split.plus_functional,
            "minus_functional": split.minus_functional,
            "plus_functional_min_eig": split.plus_eigenvalues[0],
            "minus_functional_rank": split.support_basis.shape[1],
            "kernel_dim": split.kernel_basis.shape[1],
        },
        "dimensions": {
            "extension_dim": dims.extension_dim,
            "dilation_dim": dims.dilation_dim,
            "n_squared_bound": dims.n_squared_bound,
        },
        "annihilation": {
            "kernel_state_residual": ann.kernel_state_residual,
            "kernel_cross_residual": ann.kernel_cross_residual,
            "mechanism_residual": ann.mechanism_residual,
            "support_restriction_residual": ann.support_restriction_residual,
            "max_residual": ann.max_residual,
            "passed": ann.passed,
        },
        "trace_functionals": {
            "plus_residual": tf.plus_residual,
            "minus_residual": tf.minus_residual,
            "plus_inverse_residual": tf.plus_inverse_residual,
            "minus_support_residual": tf.minus_support_residual,
            "max_residual": tf.max_residual,
            "passed": tf.passed,
        },
        "sector_maps": {
            "literal": _sector_section(sector_choi_report(split, "literal", tol)),
            "symmetric": _sector_section(sector_choi_report(split, "symmetric", tol)),
        },
    })
    return report, split, tol, seed


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(canonical_json(report))
        return

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            print(f"{prefix} = {canonical_json(value)}")

    walk("", report)


def cmd_decompose(args) -> int:
    report = _decomposition_report("decompose", args)[0]
    _emit(report, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    report, split, tol, seed = _decomposition_report("verify", args)
    states = seeded_stack(random_density_matrix, split.dim, args.samples, seed)
    worst = reconstruct(split, states, args.variant)[1]
    passed = worst <= tol.residual_abs
    report["reconstruction"] = {
        "variant": args.variant,
        "samples": args.samples,
        "seed": seed,
        "max_residual": worst,
        "passed": passed,
    }
    _emit(report, args.format)
    if not passed:
        print(f"error: reconstruction residual {worst:.3e} exceeds tolerance "
              f"{tol.residual_abs:.3e}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_dilate(args) -> int:
    doc, tol, seed = _resolve(args)
    _require_map_document(doc, "dilate")
    m = doc.linear_map
    require_tp(m, tol)
    cp_ok, min_eig = check_cp(m, tol)
    if not cp_ok:
        raise NotCompleteKraus(
            f"map is not completely positive (min Choi eigenvalue {min_eig:.6e}); "
            "only CPTP maps admit a unitary dilation"
        )
    positive, _ = map_to_kraus(m, tol)
    dil = kraus_to_unitary(positive, tol)
    trip = dilation_round_trip(dil, m, samples=args.samples, seed=seed, tol=tol)
    report = _base_report("dilate", doc, tol, seed, args)
    report["map"] = _map_section(m, tol)
    report["dilation"] = {
        "system_dim": dil.system_dim,
        "ancilla_dim": dil.ancilla_dim,
        "ancilla_ref_index": dil.ancilla_ref_index,
        "unitary": dil.unitary,
        "unitarity_residual": unitarity_residual(dil),
        "round_trip_max_residual": trip.max_residual,
        "round_trip_passed": trip.passed,
    }
    _emit(report, args.format)
    if not trip.passed:
        print(f"error: dilation round-trip residual {trip.max_residual:.3e} exceeds "
              f"tolerance {tol.residual_abs:.3e}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_witness(args) -> int:
    doc, tol, seed = _resolve(args)
    _require_joint_document(doc, "witness")
    cert = extension_witness(doc.state, tol)
    report = _base_report("witness", doc, tol, seed, args)
    report["witness"] = {
        "dims": list(doc.state.dims),
        "purity": cert.purity,
        "schmidt_rank": cert.schmidt_rank,
        "verdict": cert.verdict.value,
        "schmidt_weights": cert.schmidt_weights,
        "reduced_state": cert.reduced_state.matrix,
        "explanation": cert.explanation,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_extract(args) -> int:
    doc, tol, seed = _resolve(args)
    _require_joint_document(doc, "extract")
    if doc.unitary is None:
        raise DocumentError("$.data.unitary", "extract requires a joint unitary")
    dynamics = induced_dynamics(doc.state, doc.unitary, tol)
    cert = extension_witness(doc.state, tol)
    m = dynamics.tp_linear_form
    report = _base_report("extract", doc, tol, seed, args)
    report["map"] = _map_section(m, tol)
    report["witness"] = {
        "dims": list(doc.state.dims),
        "purity": cert.purity,
        "schmidt_rank": cert.schmidt_rank,
        "verdict": cert.verdict.value,
    }
    report["extraction"] = {
        "consistency_residual": dynamics.consistency_residual,
        "constant_part": dynamics.constant_part,
        "constant_part_trace": np.trace(dynamics.constant_part).real,
        "extracted_map": {
            "kind": "superop_b",
            "dim": m.dim,
            "data": m.choi,
        },
    }
    _emit(report, args.format)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.samples < 1:
            parser.error(f"argument --samples: must be at least 1, got {args.samples}")
        if args.seed is not None and args.seed < 0:
            parser.error(f"argument --seed: must be nonnegative, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except DynamapError as exc:
        print(f"error: numerical precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def _one_blas_thread():
    """Run the OpenBLAS that numpy wheels bundle on one thread unless the
    environment sets a count: at these sizes a second thread saves nothing,
    and its spin-waits slow every solve whenever other work shares the cores."""
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


def run():
    _one_blas_thread()
    raise SystemExit(main())

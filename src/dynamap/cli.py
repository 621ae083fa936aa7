"""Command-line front end.

The five subcommands and the exit codes are described for users by
:func:`_build_parser` (``dynamap --help``); running out of memory is a
numerical precondition failure (exit 2).  Reports go to stdout,
diagnostics to stderr.  :func:`main` decides every exit code and stderr
line; a ``cmd_<name>`` only adds its sections to the report and returns
``None`` or the message of its failed verification (exit 3, written after
the report).

A report is written while it is formatted, one matrix row at a time, so
its text is never held whole in memory; it is checked in full before the
first byte, so stdout holds the complete report or, when it cannot be
serialized, nothing.  A write that stdout refuses (a closed stdout or
pipe, a full disk) ends in one ``error: cannot write report:`` line and
exit code 1.  A closed or failing stderr drops the diagnostic line and
keeps the exit code.

The ``dimensions``, ``annihilation``, ``trace_functionals`` and
``sector_maps.<variant>`` report sections are the library result
dataclasses, written by ``dataclasses.asdict``; the sections that hold
arrays or renamed keys are built here.

Only the numpy-free :mod:`dynamap.errors` is imported here, so
``--version`` and usage errors load no numpy.  Each subcommand imports a
layer when it first uses it, so a process loads no module its subcommand
leaves idle.  The process entry (BLAS threads, garbage collector) is
:mod:`dynamap.__main__`.

:func:`_resolve` judges ``--tol-eig`` and ``--tol-residual`` before it
reads anything.  A map command's document file of at least
``_HELPER_BYTES`` is then read, hashed and parsed by a helper process
forked before numpy loads (:func:`_helper`), while this process imports
numpy and the layer of its command.  Measured on a 2-vCPU host, on the
compact Choi document of a generic map, the helper cost a ``decompose``
child about 6 ms at 57 kB, saved about 2 ms, inside the spread of one
call, at 0.45 and 0.65 MB, and saved 13 ms at 0.93 MB and 32 ms at 1.7 MB
of a 0.13-0.17 s call.  The fork is paid on a document of another kind
too, for which the helper sends nothing.
"""

import argparse
import importlib
import os
import sys

from . import __version__
from .errors import DocumentError, DynamapError, NotCompleteKraus

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

# the smallest document file that a helper parses (see _helper): 768 KiB, between
# the largest size measured with no clear gain and the smallest with one
_HELPER_BYTES = 3 << 18
# the layer each map command imports, and with it the layers it uses, while a helper
# parses; witness and extract read joint_dynamics documents, which a helper never parses
_LAYER = {"decompose": "extension", "verify": "extension", "dilate": "dilation"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors count as invalid input, not precondition failures
        _say(f"{self.format_usage()}error: {message}")
        raise SystemExit(EXIT_INVALID_INPUT)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; on stdout (--version, --help) it is a failed report
        if file is not sys.stdout:
            return super()._print_message(message, file)
        _stdout().write(message)


def _build_parser(commands) -> _Parser:
    parser = _Parser(prog="dynamap", description=(
        "Read one JSON document from file (- for stdin) and write its report to stdout. "
        "decompose splits a trace-preserving, Hermiticity-preserving map into two completely "
        "positive parts; verify rebuilds the map from them on sampled states; dilate writes a "
        "CPTP map as a unitary on the system and an ancilla; witness tells whether a joint pure "
        "state admits a positive linear extension; extract writes the map that a joint unitary "
        "evolution induces on the system."), epilog=(
        "exit codes: 0 success; 1 invalid input or a failed write to stdout; 2 numerical "
        "precondition failure; 3 verification failure"))
    parser.add_argument("--version", action="version", version=f"dynamap {__version__}")
    parser.add_argument("command", choices=commands, help="the subcommand to run")
    parser.add_argument("file", help="input document path, or - for stdin")
    parser.add_argument("--tol-eig", type=float, default=None,
                        help="override the relative zero-eigenvalue threshold")
    parser.add_argument("--tol-residual", type=float, default=None,
                        help="override the absolute residual tolerance")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default: json)")
    parser.add_argument("--variant", choices=("literal", "symmetric"), default="literal",
                        help="extension construction used where applicable")
    parser.add_argument("--samples", type=int, default=20,
                        help="number of sampled states for randomized checks (at least 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="nonnegative seed for sampled states (overrides the document seed)")
    return parser


def _read_input(path: str) -> bytes:
    try:
        if path != "-":
            with open(path, "rb") as fh:
                return fh.read()
        if sys.stdin is None:  # the process was started with stdin closed
            raise OSError("stdin is closed")
        return sys.stdin.buffer.read()
    except OSError as exc:
        source = "stdin" if path == "-" else path
        raise DocumentError("$", f"cannot read {source}: {exc}") from None


def _helper(path: str):
    """A :class:`dynamap.compact.Helper` reading, hashing and parsing the
    file ``path``, or ``None``.  It runs only where the overlap can pay: on
    a file of at least ``_HELPER_BYTES``, where ``os.fork`` exists, and
    before numpy is loaded.  Numpy loaded means an in-process caller (a
    test, a traced benchmark pass, a library user), whose import is paid
    already and whose whole heap a fork would share."""
    if path == "-" or not hasattr(os, "fork") or "numpy" in sys.modules:
        return None
    try:
        if os.stat(path).st_size < _HELPER_BYTES:
            return None
        from .compact import Helper

        return Helper(path)
    except OSError:  # the read reports a missing file; a failed fork leaves the parse inline
        return None


def _resolve(args):
    """``(doc, tol, seed)`` of ``args.file``, which must be a joint_dynamics
    document for ``witness`` and ``extract`` and a map document otherwise.

    The tolerance flags are judged before anything is read.  While a
    :func:`_helper` (for a map command's file of at least 768 KiB, numpy
    not loaded) parses the document and sends its digest, the rest of the
    document and the matrix, this process imports numpy and the layers of
    its command; when the helper sends nothing, the document is read,
    hashed and parsed here, as without one."""
    from dataclasses import replace

    overrides = {}
    for flag, field, value in (("--tol-eig", "zero_eig_rel", args.tol_eig),
                               ("--tol-residual", "residual_abs", args.tol_residual)):
        if value is not None:
            from .tolerances import ToleranceConfig

            try:
                ToleranceConfig(**{field: value})
            except ValueError as exc:  # the flag, not the document, holds the bad value
                raise DocumentError(flag, str(exc)) from None
            overrides[field] = value
    doc, helper = None, _helper(args.file) if args.command in _LAYER else None
    if helper is not None:
        try:
            # docio (numpy) before the layer, as inline: the other order left
            # a decompose child's peak RSS about 0.4 MiB higher
            from .docio import received_document

            importlib.import_module(f".{_LAYER[args.command]}", __package__)
            doc = received_document(helper)
        finally:
            helper.close()
    if doc is None:
        from .docio import parse_document

        doc = parse_document(_read_input(args.file))
    tol = replace(doc.tol, **overrides) if overrides else doc.tol
    joint = args.command in ("witness", "extract")
    if (doc.state if joint else doc.linear_map) is None:
        wanted = "a joint_dynamics document" if joint else f"a map document, got {doc.kind!r}"
        raise DocumentError("$.kind", f"{args.command} expects {wanted}")
    seed = args.seed if args.seed is not None else (doc.seed if doc.seed is not None else 0)
    return doc, tol, seed


def _map_section(m, tol) -> dict:
    from .maps import check_cp, check_hermiticity_preserving, check_tp, choi_eigenvalues

    hp_ok, hp_res = check_hermiticity_preserving(m, tol)
    tp_ok, tp_res = check_tp(m, tol)
    cp_ok, min_eig = check_cp(m, tol) if hp_ok else (None, None)
    return {
        "dim": m.dim,
        "is_hermiticity_preserving": hp_ok,
        "hermiticity_residual": hp_res,
        "is_tp": tp_ok,
        "tp_residual": tp_res,
        "is_cp": cp_ok,
        "min_choi_eigenvalue": min_eig,
        "choi_eigenvalues": choi_eigenvalues(m, tol) if hp_ok else None,
    }


def _add_decomposition(report, doc, tol, seed, args):
    """Add the ``decompose`` sections to ``report``; returns the split,
    whose every verdict is under ``split.tol``."""
    from dataclasses import asdict

    from .cpsplit import cp_split, trace_functionals, verify_annihilation
    from .extension import dimension_report, sector_choi_report

    split = cp_split(doc.linear_map, tol)
    report.update({
        "map": _map_section(doc.linear_map, tol),
        "split": {
            "l_plus": split.n_positive,
            "l_minus": split.n_negative,
            "plus_functional": split.plus_functional,
            "minus_functional": split.minus_functional,
            "plus_functional_min_eig": split.plus_eigenvalues[0],
            "minus_functional_rank": split.support_basis.shape[1],
            "kernel_dim": split.kernel_basis.shape[1],
        },
        "dimensions": asdict(dimension_report(split)),
        "annihilation": asdict(verify_annihilation(split, samples=args.samples, seed=seed)),
        "trace_functionals": asdict(trace_functionals(split, samples=args.samples, seed=seed)),
        "sector_maps": {
            variant: asdict(sector_choi_report(split, variant))
            for variant in ("literal", "symmetric")
        },
    })
    return split


def _stdout():
    """``sys.stdout``; a closed one (``None``, closed at start) refuses every write."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


def _say(line: str):
    """Write one diagnostic line to stderr.  A closed stderr (``None``) or
    a refused write drops the line, so the exit code it explains stands."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        pass


def cmd_decompose(report, doc, tol, seed, args):
    _add_decomposition(report, doc, tol, seed, args)


def cmd_verify(report, doc, tol, seed, args):
    split = _add_decomposition(report, doc, tol, seed, args)
    from .extension import reconstruct
    from .generators import random_density_matrix, seeded_stack

    states = seeded_stack(random_density_matrix, split.dim, args.samples, seed)
    worst = reconstruct(split, states, args.variant)[1]
    passed = split.tol.passes(worst)
    report["reconstruction"] = {
        "variant": args.variant,
        "samples": args.samples,
        "seed": seed,
        "max_residual": worst,
        "passed": passed,
    }
    if not passed:
        return (f"reconstruction residual {worst:.3e} exceeds tolerance "
                f"{split.tol.residual_abs:.3e}")


def cmd_dilate(report, doc, tol, seed, args):
    from .maps import map_to_kraus, require_tp

    m = doc.linear_map
    require_tp(m, tol)
    positive, negative = map_to_kraus(m, tol)
    if len(negative):
        raise NotCompleteKraus(
            f"map is not completely positive (min Choi eigenvalue {m.eigenvalues[-1]:.6e}); "
            "only CPTP maps admit a unitary dilation"
        )
    from .dilation import dilation_round_trip, kraus_to_unitary, unitarity_residual

    dil = kraus_to_unitary(positive, tol)
    trip = dilation_round_trip(dil, m, samples=args.samples, seed=seed, tol=tol)
    report.update(map=_map_section(m, tol), dilation={
        "system_dim": dil.system_dim,
        "ancilla_dim": dil.ancilla_dim,
        "ancilla_ref_index": dil.ancilla_ref_index,
        "unitary": dil.unitary,
        "unitarity_residual": unitarity_residual(dil),
        "round_trip_max_residual": trip.max_residual,
        "round_trip_passed": trip.passed,
    })
    if not trip.passed:
        return (f"dilation round-trip residual {trip.max_residual:.3e} exceeds "
                f"tolerance {tol.residual_abs:.3e}")


def _witness_section(state, cert) -> dict:
    """The ``witness`` keys that ``witness`` and ``extract`` share."""
    return {
        "dims": list(state.dims),
        "purity": cert.purity,
        "schmidt_rank": cert.schmidt_rank,
        "verdict": cert.verdict.value,
    }


def cmd_witness(report, doc, tol, seed, args):
    from .entangled import extension_witness

    cert = extension_witness(doc.state, tol)
    report["witness"] = {
        **_witness_section(doc.state, cert),
        "schmidt_weights": cert.schmidt_weights,
        "reduced_state": cert.reduced_state,
        "explanation": cert.explanation,
    }


def cmd_extract(report, doc, tol, seed, args):
    if doc.unitary is None:
        raise DocumentError("$.data.unitary", "extract requires a joint unitary")
    from .entangled import extension_witness, induced_dynamics

    dynamics = induced_dynamics(doc.state, doc.unitary, tol)
    cert = extension_witness(doc.state, tol)
    m = dynamics.tp_linear_form
    report["map"] = _map_section(m, tol)
    report["witness"] = _witness_section(doc.state, cert)
    report["extraction"] = {
        "consistency_residual": dynamics.consistency_residual,
        "constant_part": dynamics.constant_part,
        "constant_part_trace": dynamics.constant_part.trace().real,
        "extracted_map": {
            "kind": "superop_b",
            "dim": m.dim,
            "data": m.choi,
        },
    }


def main(argv=None) -> int:
    # read at call time, so a wrapper set on a module attribute cmd_<name> is called
    commands = {"decompose": cmd_decompose, "verify": cmd_verify, "dilate": cmd_dilate,
                "witness": cmd_witness, "extract": cmd_extract}
    parser = _build_parser(commands)
    try:
        try:
            args = parser.parse_args(argv)
            if args.samples < 1:
                parser.error(f"argument --samples: must be at least 1, got {args.samples}")
            if args.seed is not None and args.seed < 0:
                parser.error(f"argument --seed: must be nonnegative, got {args.seed}")
        except SystemExit as exc:  # --version, --help and usage errors
            code, failure = int(exc.code or 0), None
        else:
            doc, tol, seed = _resolve(args)
            report = {
                "command": args.command,
                "input_digest": doc.digest,
                "tool_version": __version__,
                "seed": seed,
                "samples": args.samples,
                "variant": args.variant,
                "tolerances": {"zero_eig_rel": tol.zero_eig_rel, "residual_abs": tol.residual_abs},
            }
            failure = commands[args.command](report, doc, tol, seed, args)
            from .docio import canonical_json, canonical_text

            (canonical_json if args.format == "json" else canonical_text)(report, _stdout().write)
            code = EXIT_OK if failure is None else EXIT_VERIFICATION
        if sys.stdout is not None:  # a closed stdout holds nothing to lose
            sys.stdout.flush()
    except DocumentError as exc:
        _say(f"error: invalid input: {exc}")
        return EXIT_INVALID_INPUT
    except DynamapError as exc:
        _say(f"error: numerical precondition failure: {exc}")
        return EXIT_PRECONDITION
    except OSError as exc:
        # only stdout raises it here: _read_input turns a failed read into a
        # DocumentError, and _say drops a failed stderr write
        _say(f"error: cannot write report: {exc}")
        return EXIT_INVALID_INPUT
    except MemoryError as exc:  # e.g. numpy could not allocate an N^2 x N^2 work array
        reason = f": {exc}" if str(exc) else ""
        _say(f"error: numerical precondition failure: out of memory{reason}")
        return EXIT_PRECONDITION
    if failure is not None:
        _say(f"error: {failure}")
    return code

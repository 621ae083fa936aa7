"""Write the CLI reports of every fixture under every command to a directory.

Usage::

    PYTHONPATH=src python tests/fixture_reports.py [--compact] OUT_DIR
    PYTHONPATH=src python tests/fixture_reports.py --bench SEED OUT_DIR
    python tests/fixture_reports.py --diff OLD_DIR NEW_DIR

Each ``tests/fixtures`` document is run in process through ``cli.main``
under ``decompose``, ``verify --variant literal``, ``verify --variant
symmetric``, ``dilate``, ``witness`` and ``extract``, each in the default
JSON format and again with ``--format text``.  One file per run,
``<fixture>.<command>.txt`` (``<command>-text`` for the text format), holds
the exit code, stderr and stdout, so two checkouts are compared byte for
byte with ``diff -r OUT_A OUT_B``.  The
``dynamap`` package is imported from ``PYTHONPATH``, so the same script
reports on any checkout.  Without ``--compact`` it also writes one
``argv.<name>.txt`` file, in the same layout, for each call of
``ARGV_RUNS``: ``--version``, ``--help`` and the usage and flag errors;
those that name a document name the ``transpose_choi`` fixture bare.
Every mode runs with ``COLUMNS=80``, since argparse wraps usage and help
text to the terminal width.

The fixtures are indented JSON, so none of them reaches the compact
matrix parse.  With ``--compact``, each fixture is first re-encoded
without whitespace (``json.dumps`` with ``separators=(",", ":")``, which
keeps every number's value) into a temporary directory, and the reports
of those documents are written instead, under the same file names.

With ``--bench``, the reports are of the benchmark's traffic instead: each
workload of ``perfbench/workloads.py`` is built at SEED, its documents are
written to a temporary directory, and each call of its cycle is run there
in the JSON and the text format, each as a ``python -m dynamap`` child of
the same ``dynamap`` package, as the benchmark runs it: a large matrix
document then takes the child's forked parse (see ``dynamap.compact``),
which an in-process call never does, and BLAS runs on the child's one
thread.  One file per run,
``<workload>.<call index>.<command>.<document>.txt`` (``<command>-text``
for the text format), holds the exit code, stderr and stdout as above.
The documents are a pure function of the seed, so two checkouts given the
same SEED are compared with ``diff -r`` or ``--diff``.  Nothing under
``perfbench/`` is written.

With ``--diff``, two such directories are compared report by report, for a
change that moves report bytes on purpose.  Each line names a report file
and what moved in it.  A moved number, or array of numbers, of a JSON
report is its dotted key and its largest absolute change, ``max |change|
6.8e-16``.  Every other move is marked ``!``: a file ``only in OLD_DIR``
(or ``NEW_DIR``), the changed exit and stderr lines as ``- old`` / ``+
new``, the dotted key of any other moved JSON value (a boolean, a string,
an integer on both sides, a null, a changed shape or type) or of a key
present on one side only, a report whose bytes alone moved, and the changed
lines of a report that is not JSON, such as the ``--format text`` ones
(their JSON twins size the same values).  A last line counts the files,
the numeric moves with the largest change, and the marked moves.  The exit
status is 1 when anything moved and 0 otherwise.
"""

import contextlib
import difflib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
JSON_COMMANDS = {
    "decompose": ["decompose"],
    "verify-literal": ["verify", "--variant", "literal"],
    "verify-symmetric": ["verify", "--variant", "symmetric"],
    "dilate": ["dilate"],
    "witness": ["witness"],
    "extract": ["extract"],
}
COMMANDS = {
    **JSON_COMMANDS,
    **{f"{name}-text": [*args, "--format", "text"] for name, args in JSON_COMMANDS.items()},
}
# run in the fixtures directory
ARGV_RUNS = {
    "version": ["--version"],
    "help": ["--help"],
    "decompose-help": ["decompose", "--help"],
    "no-arguments": [],
    "unknown-command": ["split", "transpose_choi.json"],
    "no-file": ["decompose"],
    "samples-0": ["decompose", "transpose_choi.json", "--samples", "0"],
    "seed-negative": ["decompose", "transpose_choi.json", "--seed", "-1"],
    "tol-eig-2": ["decompose", "transpose_choi.json", "--tol-eig", "2"],
    "format-xml": ["decompose", "transpose_choi.json", "--format", "xml"],
}


@contextlib.contextmanager
def _chdir(path):
    """The working directory is ``path`` inside the block (``contextlib.chdir``
    needs Python 3.11)."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run(argv):
    """``(exit_code, stdout, stderr)`` of one in-process CLI call."""
    from dynamap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_child(argv):
    """``(exit_code, stdout, stderr)`` of one ``python -m dynamap`` call of
    the ``dynamap`` package that :func:`run` imports."""
    import dynamap

    src = str(Path(dynamap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-m", "dynamap", *argv], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=path))
    return child.returncode, child.stdout.decode(), child.stderr.decode()


def _write_report(path, argv, runner=run) -> int:
    """Run one CLI call by ``runner`` into the report file ``path``; returns
    its exit code."""
    code, stdout, stderr = runner(argv)
    path.write_text(f"exit: {code}\n--- stderr\n{stderr}--- stdout\n{stdout}")
    return code


def write_reports(out_dir, compact=False) -> dict:
    """Write every fixture x command report under ``out_dir``, of the
    compactly re-encoded fixtures with ``compact``; returns ``{file name:
    exit code}``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(FIXTURES.glob("*.json")):
            source = fixture
            if compact:
                source = Path(tmp) / fixture.name
                doc = json.loads(fixture.read_bytes())
                source.write_text(json.dumps(doc, separators=(",", ":")))
            for name, args in COMMANDS.items():
                target = f"{fixture.stem}.{name}.txt"
                codes[target] = _write_report(out_dir / target, [args[0], str(source), *args[1:]])
    return codes


def write_argv_reports(out_dir) -> dict:
    """Write the report of every ``ARGV_RUNS`` call under ``out_dir``;
    returns ``{file name: exit code}``."""
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    with _chdir(FIXTURES):
        return {f"argv.{name}.txt": _write_report(out_dir / f"argv.{name}.txt", argv)
                for name, argv in ARGV_RUNS.items()}


def perfbench_module(name):
    """Import the ``perfbench/`` module ``name``; they import each other by
    bare name, so the directory is on ``sys.path`` while it loads.  No
    bytecode is written under ``perfbench/``."""
    sys.path.insert(0, str(PERFBENCH))
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = written


def bench_calls(seed, names=None):
    """Yield ``(file stem, argv, call)`` for every call of the benchmark
    workloads ``names`` (all of them by default) built at ``seed``.

    The documents are written to a temporary directory, which is the working
    directory until the generator is closed, and ``argv`` names them
    relative to it, so no temporary path reaches a report."""
    workloads = perfbench_module("workloads")
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        for name in names or workloads.WORKLOADS:
            workload = workloads.build(name, seed)
            for doc in workload.docs:
                Path(f"{doc.name}.json").write_bytes(doc.raw)
            for i, call in enumerate(workload.calls):
                argv = [call.command, f"{call.doc.name}.json", *call.flags]
                yield f"{name}.{i:02d}.{call.command}", argv, call


def write_bench_reports(seed, out_dir, names=None) -> dict:
    """Write the report of every call of :func:`bench_calls`, run as a
    child, in both formats under ``out_dir``; returns ``{file name: (exit
    code, the call's expected exit code)}``."""
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    with contextlib.closing(bench_calls(seed, names)) as calls:
        for stem, argv, call in calls:
            for suffix, extra in (("", []), ("-text", ["--format", "text"])):
                target = f"{stem}{suffix}.{call.doc.name}.txt"
                codes[target] = (_write_report(out_dir / target, argv + extra, run_child),
                                 call.exit_code)
    return codes


def _changed_lines(old, new):
    a, b = old.splitlines(), new.splitlines()
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            yield from (f"- {line}" for line in a[i1:i2])
            yield from (f"+ {line}" for line in b[j1:j2])


def _flatten(value, path=""):
    """``(dotted key, leaf)`` of every non-object value under ``value``."""
    if not isinstance(value, dict):
        yield path, value
        return
    for key, item in value.items():
        yield from _flatten(item, f"{path}.{key}" if path else key)


def _json_leaves(report):
    """``{dotted key: value}`` of a JSON report, or ``None`` for other text."""
    try:
        value = json.loads(report)
    except ValueError:
        return None
    return dict(_flatten(value)) if isinstance(value, dict) else None


def _change(old, new):
    """The largest absolute change between two moved numbers (a float on
    at least one side), or two equally long lists of them; else ``None``."""
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        changes = [_change(a, b) for a, b in zip(old, new) if a != b]
        return None if None in changes else max(changes)
    if {type(old), type(new)} <= {int, float} and float in (type(old), type(new)):
        return abs(new - old)
    return None


def _moves(old_dir, new_dir):
    """``(report file, what moved, |change| or None)`` for every move
    between two report directories; ``None`` marks a non-numeric move."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    for name in sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()}):
        old_file, new_file = old_dir / name, new_dir / name
        if not (old_file.exists() and new_file.exists()):
            yield name, f"only in {old_dir if old_file.exists() else new_dir}", None
            continue
        # the exit and stderr lines, then the report
        old_head, _, old_out = old_file.read_text().partition("--- stdout\n")
        new_head, _, new_out = new_file.read_text().partition("--- stdout\n")
        yield from ((name, line, None) for line in _changed_lines(old_head, new_head))
        old, new = _json_leaves(old_out), _json_leaves(new_out)
        if old is None or new is None:
            yield from ((name, line, None) for line in _changed_lines(old_out, new_out))
            continue
        for key in sorted(old.keys() | new.keys()):
            if key not in new or key not in old:
                yield name, f"{key} (only in {old_dir if key in old else new_dir})", None
            elif old[key] != new[key]:
                yield name, key, _change(old[key], new[key])
        if old_out != new_out and old == new:
            yield name, "(same values, different bytes)", None


def diff_reports(old_dir, new_dir) -> list:
    """The lines ``--diff`` prints for two report directories."""
    moves = list(_moves(old_dir, new_dir))
    if not moves:
        return []
    lines = [f"{name}: {what} max |change| {delta:.2g}" if delta is not None
             else f"{name}: ! {what}" for name, what, delta in moves]
    deltas = [delta for _, _, delta in moves if delta is not None]
    largest = f"{max(deltas):.2g}" if deltas else "none"
    return lines + [
        f"{len({name for name, _, _ in moves})} report files moved; "
        f"{len(deltas)} numeric moves, largest |change| {largest}; "
        f"{len(moves) - len(deltas)} marked !"
    ]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    args = sys.argv[1:]
    if args[:1] == ["--diff"]:
        if len(args) != 3:
            sys.exit(__doc__)
        moved = diff_reports(*args[1:])
        for line in moved:
            print(line)
        sys.exit(1 if moved else 0)
    if args[:1] == ["--bench"]:
        if len(args) != 3:
            sys.exit(__doc__)
        write_bench_reports(int(args[1]), args[2])
        sys.exit()
    compact = args[:1] == ["--compact"]
    if len(args) != 1 + compact:
        sys.exit(__doc__)
    write_reports(args[-1], compact)
    if not compact:
        write_argv_reports(args[-1])

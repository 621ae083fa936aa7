"""Write the CLI reports of every fixture under every command to a directory.

Usage::

    PYTHONPATH=src python tests/fixture_reports.py [--compact] OUT_DIR

Each ``tests/fixtures`` document is run in process through ``cli.main``
under ``decompose``, ``verify --variant literal``, ``verify --variant
symmetric``, ``dilate``, ``witness`` and ``extract``, each in the default
JSON format and again with ``--format text``.  One file per run,
``<fixture>.<command>.txt`` (``<command>-text`` for the text format), holds
the exit code, stderr and stdout, so two checkouts are compared byte for
byte with ``diff -r OUT_A OUT_B``.  The
``dynamap`` package is imported from ``PYTHONPATH``, so the same script
reports on any checkout.

The fixtures are indented JSON, so none of them reaches the compact
matrix parse.  With ``--compact``, each fixture is first re-encoded
without whitespace (``json.dumps`` with ``separators=(",", ":")``, which
keeps every number's value) into a temporary directory, and the reports
of those documents are written instead, under the same file names.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from dynamap import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
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


def run(argv):
    """``(exit_code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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
                code, stdout, stderr = run([args[0], str(source), *args[1:]])
                target = f"{fixture.stem}.{name}.txt"
                (out_dir / target).write_text(
                    f"exit: {code}\n--- stderr\n{stderr}--- stdout\n{stdout}"
                )
                codes[target] = code
    return codes


if __name__ == "__main__":
    args = sys.argv[1:]
    compact = args[:1] == ["--compact"]
    if len(args) != 1 + compact:
        sys.exit(__doc__)
    write_reports(args[-1], compact)

"""Write the CLI reports of every fixture under every command to a directory.

Usage::

    PYTHONPATH=src python tests/fixture_reports.py OUT_DIR

Each ``tests/fixtures`` document is run in process through ``cli.main``
under ``decompose``, ``verify --variant literal``, ``verify --variant
symmetric``, ``dilate``, ``witness`` and ``extract``, each in the default
JSON format and again with ``--format text``.  One file per run,
``<fixture>.<command>.txt`` (``<command>-text`` for the text format), holds
the exit code, stderr and stdout, so two checkouts are compared byte for
byte with ``diff -r OUT_A OUT_B``.  The
``dynamap`` package is imported from ``PYTHONPATH``, so the same script
reports on any checkout.
"""

import contextlib
import io
import sys
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


def write_reports(out_dir) -> dict:
    """Write every fixture x command report under ``out_dir``; returns
    ``{file name: exit code}``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for fixture in sorted(FIXTURES.glob("*.json")):
        for name, args in COMMANDS.items():
            code, stdout, stderr = run([args[0], str(fixture), *args[1:]])
            target = f"{fixture.stem}.{name}.txt"
            (out_dir / target).write_text(
                f"exit: {code}\n--- stderr\n{stderr}--- stdout\n{stdout}"
            )
            codes[target] = code
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_reports(sys.argv[1])

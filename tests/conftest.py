"""Let the ``python -m dynamap`` children that some tests start import the
package from ``src/`` too, as ``pythonpath`` in pyproject.toml does for the
test process, so a plain ``pytest`` works without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

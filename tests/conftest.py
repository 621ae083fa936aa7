"""Let the ``python -m dynamap`` children that some tests start import the
package from ``src/`` too, as ``pythonpath`` in pyproject.toml does for the
test process, so a plain ``pytest`` works without an install; and make the
hypothesis property tests deterministic."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Property tests draw the same examples on every run and set no deadline,
# so tier-1 neither varies between runs nor flakes on a slow host.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

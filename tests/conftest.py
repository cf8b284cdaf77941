"""Suite-wide test settings.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples.  The cache of source constants
that hypothesis keeps besides (filled while tests are collected) goes to
a temporary directory removed at the end of the run, so a run writes no
`.hypothesis/` into the checkout.

The suite imports the package from src/ (`pythonpath` in pyproject.toml);
child interpreters started by tests get src/ first on their PYTHONPATH,
so they import the same package.
"""

import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)

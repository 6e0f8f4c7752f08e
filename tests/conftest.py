"""Let the CLI subprocesses started by the tests import the package from
``src/`` when it is not installed, and turn every warning they raise into an
error, as ``filterwarnings = ["error"]`` does in the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
os.environ["PYTHONWARNINGS"] = "error"

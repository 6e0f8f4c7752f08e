"""Let the CLI subprocesses started by the tests import the package from
``src/`` when it is not installed, and turn every warning they raise into an
error, as ``filterwarnings = ["error"]`` does in the test process.  The
``no_loadtxt`` fixture keeps a grid read off the loadtxt path."""

import os
from pathlib import Path

import numpy as np
import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
os.environ["PYTHONWARNINGS"] = "error"


@pytest.fixture
def no_loadtxt(monkeypatch):
    """``np.loadtxt`` raises, so a read succeeds only on the writer's bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", refuse)

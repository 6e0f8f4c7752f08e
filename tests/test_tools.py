"""The layer benchmark's cases against the library, so that a renamed or
re-signed function fails the suite rather than a later benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_layers = _load_tool()


@pytest.mark.parametrize("layer", bench_layers.LAYERS)
def test_layer_case_runs(layer, tmp_path):
    call = bench_layers._call(layer, 4, str(tmp_path))
    call()

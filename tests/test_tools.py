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


def test_summarize_keeps_round_medians():
    """Pooled quartiles plus one median per round, in round order: the
    rounds' spread is what tells a moved layer from a noisy machine."""
    runs = [
        {"times": [0.001, 0.002, 0.003], "peak_rss_mb": 40.0},
        {"times": [0.010, 0.011, 0.012, 0.013, 0.014], "peak_rss_mb": 42.5},
        {"times": [0.002, 0.004], "peak_rss_mb": 41.0},
    ]
    out = bench_layers.summarize(runs)
    assert out["calls"] == 10
    assert out["round_medians_ms"] == [2.0, 12.0, 3.0]
    assert out["median_ms"] == 7.0
    assert out["q1_ms"] < out["median_ms"] < out["q3_ms"]
    assert out["peak_rss_mb"] == 42.5

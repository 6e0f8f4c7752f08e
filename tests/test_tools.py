"""The layer benchmark's cases and the benchmark's names against the
library, so that a renamed, re-signed or deleted function fails the suite
rather than a later benchmark run."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_layers.py"


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


def test_benchmark_names_resolve():
    """Every function the benchmark traces (``bench/tracing.py`` TARGETS) or
    calls as ``st.<name>`` / ``ps.<name>`` (``bench/workloads.py``) exists.
    Both files are parsed as text, not imported."""
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    targets = next(
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    names = {(t.elts[0].value, t.elts[1].value) for t in targets.elts}
    workloads = (ROOT / "bench" / "workloads.py").read_text()
    aliases = {"st": "states", "ps": "phasespace"}
    names |= {(aliases[a], n) for a, n in re.findall(r"\b(st|ps)\.(\w+)", workloads)}
    assert len(names) > 20
    missing = sorted(
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"cylwig.{module}"), name)
    )
    assert missing == []

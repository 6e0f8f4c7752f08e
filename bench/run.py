"""Benchmark of the cylwig CLI: one closed-loop client, one job after another.

    python3 bench/run.py --workload certify_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the jobs run untraced in a fresh process of
their own (``worker.py``) and the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` they run in this process and the line
holds the per-layer metrics of traced rounds, plus the tracing overhead
against untraced rounds of the same jobs run alternately with them.  Either
way the outputs are checked here, after the jobs ran.  Lines before the
result (prefixed ``#``) give the environment, the job count and every metric
by name with its unit.  The exit code is 1 when any job fails its exit-code
or output check, 2 when the checkout has no ``src/cylwig``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: one client on a shared two-core
# machine, and CPU time per job then cannot hide extra threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

# Per-layer metric -> (span name, statistic, unit).  Statistics other than
# ratios and peaks are per traced job, so they do not depend on how many
# rounds fit in the run.
PER_LAYER = {
    "phasespace.wigner_from_oam.calls": ("phasespace.wigner_from_oam", "calls", "calls/job"),
    "phasespace.wigner_from_oam.busy_s": ("phasespace.wigner_from_oam", "busy_s", "s/job"),
    "phasespace.wigner_from_oam.cells": ("phasespace.wigner_from_oam", "cells", "cells/job"),
    "phasespace.wigner_from_oam.peak_alloc_mb": ("phasespace.wigner_from_oam", "peak_alloc", "MB"),
    "phasespace.wigner_from_angle.calls": ("phasespace.wigner_from_angle", "calls", "calls/job"),
    "phasespace.wigner_from_angle.busy_s": ("phasespace.wigner_from_angle", "busy_s", "s/job"),
    "states.angle_wavefunction_at.busy_s": ("states.angle_wavefunction_at", "busy_s", "s/job"),
    "analysis.hudson_certify.calls": ("analysis.hudson_certify", "calls", "calls/job"),
    "analysis.hudson_certify.self_s": ("analysis.hudson_certify", "self_s", "s/job"),
    "analysis.hudson_certify.conclusive_ratio": ("analysis.hudson_certify", "conclusive", "ratio"),
    "analysis.negativity.busy_s": ("analysis.negativity", "busy_s", "s/job"),
    "analysis.flatness_check.calls": ("analysis.flatness_check", "calls", "calls/job"),
    "analysis.flatness_check.busy_s": ("analysis.flatness_check", "busy_s", "s/job"),
    "analysis.report_to_json.busy_s": ("analysis.report_to_json", "busy_s", "s/job"),
    "phasespace.wigner_to_csv.calls": ("phasespace.wigner_to_csv", "calls", "calls/job"),
    "phasespace.wigner_to_csv.busy_s": ("phasespace.wigner_to_csv", "busy_s", "s/job"),
    "phasespace.wigner_to_csv.bytes": ("phasespace.wigner_to_csv", "bytes", "B/job"),
    "phasespace.read_wigner.calls": ("phasespace.read_wigner", "calls", "calls/job"),
    "phasespace.read_wigner.busy_s": ("phasespace.read_wigner", "busy_s", "s/job"),
    "phasespace.read_wigner.bytes": ("phasespace.read_wigner", "bytes", "B/job"),
    "phasespace.reconstruct_density.lstsq.calls":
        ("phasespace.reconstruct_density.lstsq", "calls", "calls/job"),
    "phasespace.reconstruct_density.lstsq.busy_s":
        ("phasespace.reconstruct_density.lstsq", "busy_s", "s/job"),
    "phasespace.reconstruct_density.lstsq.peak_alloc_mb":
        ("phasespace.reconstruct_density.lstsq", "peak_alloc", "MB"),
    "phasespace.reconstruct_density.literal.calls":
        ("phasespace.reconstruct_density.literal", "calls", "calls/job"),
    "phasespace.reconstruct_density.literal.busy_s":
        ("phasespace.reconstruct_density.literal", "busy_s", "s/job"),
    "phasespace.reconstruct_density.literal.peak_alloc_mb":
        ("phasespace.reconstruct_density.literal", "peak_alloc", "MB"),
    "phasespace.reconstruct_density.ok_ratio": ("phasespace.reconstruct_density", "ok", "ratio"),
    "phasespace.star_product.busy_s": ("phasespace.star_product", "busy_s", "s/job"),
    "phasespace.star_product.self_s": ("phasespace.star_product", "self_s", "s/job"),
    "phasespace.overlap.busy_s": ("phasespace.overlap", "busy_s", "s/job"),
    "states.random_pure_state.busy_s": ("states.random_pure_state", "busy_s", "s/job"),
    "states.state_from_json.busy_s": ("states.state_from_json", "busy_s", "s/job"),
    "states.density_from_json.busy_s": ("states.density_from_json", "busy_s", "s/job"),
    "states.to_density.busy_s": ("states.to_density", "busy_s", "s/job"),
    "cli.self_s": ("cli", "self_s", "s/job"),
    "states.self_s": ("states", "self_s", "s/job"),
    "phasespace.self_s": ("phasespace", "self_s", "s/job"),
    "analysis.self_s": ("analysis", "self_s", "s/job"),
    "harness.self_s": ("harness", "self_s", "s/job"),
    "trace.overhead_s": ("trace", "overhead_s", "s/job"),
    "trace.overhead_ratio": ("trace", "overhead_ratio", "ratio"),
    "trace.jobs": ("trace", "jobs", "count"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["certify_mix", "grid_io", "inverse"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_worker(jobs, workdir: Path, seconds: float) -> dict:
    """Run the untraced loop in a fresh process (see ``worker.py``)."""
    spec, result = workdir / "worker.json", workdir / "result.json"
    spec.write_text(json.dumps({
        "workdir": str(workdir / "worker"), "stash": str(workdir / "stash"),
        "jobs": [[job.cls, job.args, job.output] for job in jobs],
    }))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec), str(seconds),
                           str(result)], stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def end_to_end(samples, failed, setup_s, rss_mb):
    walls = [s.wall_s for s in samples]
    n = len(samples)
    return {
        "jobs_per_s": n / sum(walls),
        "job_p50_ms": 1000.0 * statistics.median(walls),
        "job_p90_ms": 1000.0 * statistics.quantiles(walls, n=10)[8],
        "cpu_ms_per_job": 1000.0 * sum(s.cpu_s for s in samples) / n,
        "peak_rss_mb": rss_mb,
        "ok_ratio": (n - failed) / n,
        "setup_s": setup_s,
    }


def per_layer(tracer, alloc_tracer, untraced, traced):
    """Per-layer values from the traced pass; see PER_LAYER."""
    agg = tracer.aggregate()
    for name, stats in alloc_tracer.aggregate().items():
        if "peak_alloc" in stats:
            agg[name]["peak_alloc"] = stats["peak_alloc"]
    jobs = len(traced)
    traced_s = sum(s.wall_s for s in traced)
    untraced_s = sum(s.wall_s for s in untraced)
    by_module = {}
    for name, stats in agg.items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + stats["self_s"]
    harness_s = traced_s - agg["cli"]["busy_s"]
    by_module["harness"] = harness_s
    for module, total in by_module.items():
        agg[module]["self_s"] = total
    recon = agg["phasespace.reconstruct_density"]
    for method in ("lstsq", "literal"):
        for stat in ("calls", "ok"):
            recon[stat] += agg.get(f"phasespace.reconstruct_density.{method}", {}).get(stat, 0)
    trace = agg["trace"]
    trace["overhead_s"] = (traced_s - untraced_s) / jobs
    trace["overhead_ratio"] = traced_s / untraced_s - 1.0
    trace["jobs"] = jobs

    out = {}
    for metric, (span, stat, unit) in PER_LAYER.items():
        stats = agg.get(span, {})
        calls = stats.get("calls", 0)
        if span == "trace" or unit == "count":
            value = stats.get(stat, 0)
        elif stat == "peak_alloc":
            value = stats.get(stat, 0) / 2**20
        elif unit == "ratio":
            value = stats.get(stat, 0) / calls if calls else 0.0
        else:
            value = stats.get(stat, 0) / jobs
        out[metric] = (value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cylwig" / "__init__.py").is_file():
        print(f"error: no cylwig sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cylwig
    if not Path(cylwig.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cylwig from {cylwig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    stash = str(workdir / "stash")
    try:
        jobs = workloads.build(args.workload, args.seed, str(workdir))
        if args.trace:
            from tracing import Tracer
            harness.warm_up(str(workdir / "warmup"))
            recorder = harness.Recorder(stash)
            warm = harness.run_round(jobs, recorder)  # discarded: fills caches
            alloc_tracer, tracer = Tracer(measure_alloc=True), Tracer()
            with alloc_tracer.installed():
                alloc_round = harness.run_round(jobs, recorder, alloc_tracer.job_span)
            # untraced and traced rounds alternate, so drift of the machine's
            # speed during the run does not show up as tracing overhead; they
            # share --seconds, so a traced run takes as long as an untraced one
            samples, traced = [], []
            while (sum(s.wall_s for s in samples + traced) < args.seconds
                   or len(samples) < harness.MIN_JOBS):
                samples += harness.run_round(jobs, recorder)
                with tracer.installed():
                    traced += harness.run_round(jobs, recorder, tracer.job_span)
            tracer.write(str(SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = per_layer(tracer, alloc_tracer, samples, traced)
            timed = samples + alloc_round + traced
        else:
            result = run_worker(jobs, workdir, args.seconds)
            warm = [harness.Sample(**s) for s in result["warm"]]
            samples = timed = [harness.Sample(**s) for s in result["timed"]]
        checker = harness.Checker(jobs, stash)
        warm_failed = sum(not checker.ok(s) for s in warm)
        failed = sum(not checker.ok(s) for s in timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup_s = statistics.median(result["setup_probes"])
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                   end_to_end(samples, failed, setup_s, result["peak_rss_mb"]).items()}

    correct = failed == 0 and warm_failed == 0
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(samples), "round": len(jobs),
        "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(), "numpy": np.__version__,
        "error_ratio": failed / len(timed),
    }
    print("# " + json.dumps(info))
    by_class = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s.wall_s)
    for cls in sorted(by_class, key=lambda c: statistics.median(by_class[c])):
        walls = by_class[cls]
        print(f"#   {cls:28s} n={len(walls):4d} median={1000 * statistics.median(walls):9.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for failure in checker.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time the library's layers at windows -4:4, -16:16 and -64:64.

Each case (one layer at one window, for one source tree) runs in a fresh
interpreter with one BLAS thread.  It builds its inputs, makes one untimed
call, then times calls with ``time.perf_counter`` until at least
``MIN_SECONDS`` have passed and at least five calls have run.  It reports
the median and quartiles of the call times and the process's peak RSS from
``resource.getrusage`` (inputs included).

Several source trees can be measured in one run; for every case the trees
take turns, in reversed order on every other case, so a slow period of a
shared machine falls on all of them and neither always runs first::

    python3 tools/bench_layers.py --tree parent=../parent/src --tree change=src \\
        -o BENCH.json

Only the standard library and numpy are used.  Inputs use the default grid
(``4*span + 4`` angles) and padding (``8*span`` rows).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

LAYERS = (
    "wigner_from_oam",
    "angle_marginal_tail",
    "reconstruct_density.lstsq",
    "reconstruct_density.literal",
    "hudson_certify",
)
WINDOWS = (4, 16, 64)
SEED = 1
MIN_SECONDS = 1.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _call(layer: str, half: int):
    """The timed call of one case, with its inputs built."""
    import cylwig as cw

    w = cw.OamWindow(-half, half)
    grid, pad = cw.default_angle_grid(w), cw.default_pad(w)
    psi = cw.random_pure_state(w, SEED)
    rho = cw.to_density(psi)
    if layer == "wigner_from_oam":
        return lambda: cw.wigner_from_oam(rho, pad, grid)
    if layer == "hudson_certify":
        return lambda: cw.hudson_certify(psi)
    W = cw.wigner_from_oam(rho, pad, grid)
    if layer == "angle_marginal_tail":
        return lambda: cw.angle_marginal_tail(rho, W)
    method = layer.rpartition(".")[2]
    return lambda: cw.reconstruct_density(W, w, method=method)


def run_case(layer: str, half: int) -> dict:
    call = _call(layer, half)
    call()
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "calls": len(times),
        "median_ms": round(1e3 * median, 4),
        "q1_ms": round(1e3 * q1, 4),
        "q3_ms": round(1e3 * q3, 4),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }


def spawn_case(src: str, layer: str, half: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **BLAS_ENV)
    cp = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", layer, str(half)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(cp.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree (the directory holding cylwig/); repeatable")
    parser.add_argument("--case", nargs=2, metavar=("LAYER", "HALF"), help=argparse.SUPPRESS)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case[0], int(args.case[1]))))
        return
    trees = [t.split("=", 1) for t in args.tree or ["this=src"]]
    import numpy

    cases = []
    todo = [(half, layer) for half in WINDOWS for layer in LAYERS]
    for i, (half, layer) in enumerate(todo):
        for label, src in trees if i % 2 == 0 else trees[::-1]:
            case = {"layer": layer, "window": f"-{half}:{half}", "tree": label}
            case.update(spawn_case(src, layer, half))
            print(json.dumps(case), file=sys.stderr)
            cases.append(case)
    result = {
        "what": "per-call wall time of library layers, default grid and pad, "
                "random pure state (seed 1); median and quartiles in ms; peak "
                "RSS of the case's process in MB",
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "blas_threads": 1,
                "min_seconds": MIN_SECONDS},
        "trees": [label for label, _ in trees],
        "cases": cases,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()

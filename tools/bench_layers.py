"""Time the library's layers at windows -4:4, -16:16 and -64:64.

Each case (one layer at one window, for one source tree) runs ``ROUNDS``
times, each in a fresh interpreter with one BLAS thread.  A round builds
its inputs, makes one untimed call, then times calls with
``time.perf_counter`` until at least ``MIN_SECONDS`` have passed and at
least five calls have run.  The case reports the median and quartiles of
the call times of all its rounds, the median of each round
(``round_medians_ms``) and the largest peak RSS of a round's process from
``resource.getrusage`` (inputs included).  ``write_wigner`` writes, and
``read_wigner`` reads, a grid file in a temporary directory that is removed
at the end of the round; ``write_wigner.eigenstate`` writes the grid of
``|0>``, whose cells are nearly all exactly 0; ``wigner_to_csv`` formats the
random state's grid text in memory,
and ``density_payload_to_json`` formats the random state's density matrix as
``reconstruct`` formats its result.
``read_wigner`` reads the writer's own bytes, which take the reader's
parser of those bytes; the two other read cases take the loadtxt path.
``read_wigner.lenient`` reads the same grid with its ``phi`` column printed
to 13 significant digits, which the parser of the writer's bytes refuses at
the first row's ``phi``: it times the loadtxt path on shorter ``phi`` texts.
``read_wigner.general`` reads the written grid with one ``#`` line after its
header, which the parser of the writer's bytes refuses at its first
comparison: it times the loadtxt path with that refused attempt.
The ``cli.*`` cases time whole commands end to end: ``check`` of the random
state (``cli.check.eigenstate``: of ``|0>``), ``wigner`` of it (by the OAM
path), ``reconstruct`` (least squares) of its grid, the self-star ``star``
of that grid, ``overlap`` of the grid with itself and ``render`` of it to a
PPM image, each run in-process through the click entry point, as
``bench/harness.py`` runs its jobs, on input files written to the temporary
directory and with its output written there.

Several source trees can be measured in one run; in every round of a case
the trees take turns, in reversed order on every other round, so a slow
period of a shared machine falls on all of them and neither always runs
first.  Pooling the rounds keeps a slow layer, timed only five times per
round, from being judged on one period of the machine.  The pooled
quartiles miss the spread between processes, which the round medians show:
a layer has moved only when every round median of one tree lies outside the
range of the other tree's round medians::

    python3 tools/bench_layers.py --tree parent=../parent/src --tree change=src \\
        -o BENCH.json

``--layer NAME`` (repeatable) runs only the named layers, in the order of
``LAYERS``; by default every layer runs.

Only the standard library and numpy are used.  Inputs use the default grid
(``4*span + 4`` angles) and padding (``8*span`` rows).  The state is random
(seed 1), except in ``hudson_certify.eigenstate``, ``cli.check.eigenstate``,
``flatness_check`` and ``write_wigner.eigenstate``, which take the eigenstate
``|0>``.  ``hudson_certify`` times the count of nonzero coefficients, the
forward map and the negativity scan of the random state;
``hudson_certify.eigenstate`` times the count and the report of ``|0>``
written from its closed form, with the checks of the requested grid, and no
forward map; ``flatness_check`` times the ``(n_phi, n_phi)`` flatness
inequality of ``|0>``, which the certifier does not call.
``random_pure_state`` times state construction with its validation;
``star_product`` is the self-star of the random state's grid by the operator
method.
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
import tempfile
import time

LAYERS = (
    "random_pure_state",
    "wigner_from_oam",
    "wigner_from_angle",
    "angle_marginal_tail",
    "reconstruct_density.lstsq",
    "reconstruct_density.literal",
    "star_product",
    "hudson_certify",
    "hudson_certify.eigenstate",
    "flatness_check",
    "density_payload_to_json",
    "wigner_to_csv",
    "write_wigner",
    "write_wigner.eigenstate",
    "read_wigner",
    "read_wigner.lenient",
    "read_wigner.general",
    "cli.check",
    "cli.check.eigenstate",
    "cli.wigner",
    "cli.reconstruct",
    "cli.star",
    "cli.overlap",
    "cli.render",
)
WINDOWS = (4, 16, 64)
SEED = 1
MIN_SECONDS = 1.0
ROUNDS = 5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _call(layer: str, half: int, tmp: str):
    """The timed call of one case, with its inputs built; ``write_wigner``
    and the ``read_wigner`` cases use grid files in the directory ``tmp``."""
    import cylwig as cw

    w = cw.OamWindow(-half, half)
    grid, pad = cw.default_angle_grid(w), cw.default_pad(w)
    if layer == "random_pure_state":
        return lambda: cw.random_pure_state(w, SEED)
    eigen = cw.oam_eigenstate(0, w)
    if layer == "hudson_certify.eigenstate":
        return lambda: cw.hudson_certify(eigen)
    if layer == "cli.check.eigenstate":
        return _command("check", w, eigen, None, tmp)
    if layer == "flatness_check":
        return lambda: cw.flatness_check(eigen, grid)
    if layer == "write_wigner.eigenstate":
        zeros = cw.wigner_from_oam(eigen, pad, grid)
        return lambda: cw.write_wigner(zeros, os.path.join(tmp, "grid.csv"))
    psi = cw.random_pure_state(w, SEED)
    rho = cw.to_density(psi)
    if layer == "density_payload_to_json":
        return lambda: cw.states.density_payload_to_json(w.l_min, rho.elements)
    if layer == "wigner_from_oam":
        return lambda: cw.wigner_from_oam(rho, pad, grid)
    if layer == "wigner_from_angle":
        return lambda: cw.wigner_from_angle(psi, pad, grid)
    if layer == "hudson_certify":
        return lambda: cw.hudson_certify(psi)
    W = cw.wigner_from_oam(rho, pad, grid)
    if layer.startswith("cli."):
        return _command(layer[4:], w, psi, W, tmp)
    if layer == "wigner_to_csv":
        return lambda: cw.phasespace.wigner_to_csv(W)
    path = os.path.join(tmp, "grid.csv")
    if layer == "write_wigner":
        return lambda: cw.write_wigner(W, path)
    if layer == "read_wigner":
        cw.write_wigner(W, path)
        return lambda: cw.read_wigner(path)
    if layer == "read_wigner.lenient":
        written = os.path.join(tmp, "written.csv")
        cw.write_wigner(W, written)
        with open(written, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as fh:
            for line in src:
                if not line.startswith("#"):
                    l, j, phi, value = line.split(",")
                    line = f"{l},{j},{float(phi):.13g},{value}"
                fh.write(line)
        return lambda: cw.read_wigner(path)
    if layer == "read_wigner.general":
        cw.write_wigner(W, path)
        with open(path, "rb") as fh:
            first, second, rest = fh.read().split(b"\n", 2)
        with open(path, "wb") as fh:
            fh.write(b"\n".join([first, second, b"# not the writer's bytes", rest]))
        return lambda: cw.read_wigner(path)
    if layer == "angle_marginal_tail":
        return lambda: cw.angle_marginal_tail(rho, W)
    if layer == "star_product":
        return lambda: cw.star_product(W, W, method="operator")
    method = layer.rpartition(".")[2]
    return lambda: cw.reconstruct_density(W, w, method=method)


def _command(name: str, w, psi, W, tmp: str):
    """The CLI command ``name`` on input files in ``tmp``, writing its output
    there (``overlap`` prints its number to stdout), run by the click entry
    point in-process; an error exits through ``SystemExit``."""
    import cylwig as cw
    from cylwig import cli

    out = os.path.join(tmp, "out")
    if name in ("check", "wigner"):
        src = os.path.join(tmp, "state.json")
        cw.write_state(psi, src)
        args = [name, src]
    else:
        src = os.path.join(tmp, "grid.csv")
        cw.write_wigner(W, src)
        args = {"reconstruct": ["reconstruct", src, "--window", f"{w.l_min}:{w.l_max}"],
                "star": ["star", src, src], "overlap": ["overlap", src, src],
                "render": ["render", src]}[name]
    if name != "overlap":
        args += ["-o", out]
    return lambda: cli.cli.main(args=args, prog_name="cylwig", standalone_mode=False)


def run_case(layer: str, half: int) -> dict:
    """Call times in seconds and peak RSS in MB of one process's run."""
    with tempfile.TemporaryDirectory() as tmp:
        call = _call(layer, half, tmp)
        call()
        times = []
        start = time.perf_counter()
        while len(times) < 5 or time.perf_counter() - start < MIN_SECONDS:
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"times": times, "peak_rss_mb": round(peak_kb / 1024, 1)}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of the pooled call times of a tree's rounds, the
    median of each round in order, and the largest peak RSS among them."""
    times = [t for run in runs for t in run["times"]]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {
        "calls": len(times),
        "median_ms": round(1e3 * median, 4),
        "q1_ms": round(1e3 * q1, 4),
        "q3_ms": round(1e3 * q3, 4),
        "round_medians_ms": [round(1e3 * statistics.median(run["times"]), 4)
                             for run in runs],
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def spawn_case(src: str, layer: str, half: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **BLAS_ENV)
    cp = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", layer, str(half)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(cp.stdout.splitlines()[-1])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree (the directory holding cylwig/); repeatable")
    parser.add_argument("--layer", action="append", choices=LAYERS, metavar="NAME",
                        help="run only this layer; repeatable (default: every layer)")
    parser.add_argument("--case", nargs=2, metavar=("LAYER", "HALF"), help=argparse.SUPPRESS)
    parser.add_argument("-o", "--output", default=None)
    return parser.parse_args(argv)


def plan(layers=None) -> list[tuple[int, str]]:
    """The (window, layer) cases to run, window by window in ``LAYERS``
    order: every layer, or only those in ``layers``."""
    return [(half, layer) for half in WINDOWS for layer in LAYERS
            if not layers or layer in layers]


def main() -> None:
    args = parse_args()
    if args.case:
        print(json.dumps(run_case(args.case[0], int(args.case[1]))))
        return
    trees = [t.split("=", 1) for t in args.tree or ["this=src"]]
    import numpy

    cases = []
    todo = plan(args.layer)
    for i, (half, layer) in enumerate(todo):
        runs = {label: [] for label, _ in trees}
        for r in range(ROUNDS):
            for label, src in trees if (i + r) % 2 == 0 else trees[::-1]:
                runs[label].append(spawn_case(src, layer, half))
        for label, _ in trees:
            case = {"layer": layer, "window": f"-{half}:{half}", "tree": label}
            case.update(summarize(runs[label]))
            print(json.dumps(case), file=sys.stderr)
            cases.append(case)
    result = {
        "what": "per-call wall time of library layers, default grid and pad, "
                "random pure state (seed 1; star_product its self-star) or, "
                "for hudson_certify.eigenstate (coefficient count and the "
                "closed-form report, no forward map), cli.check.eigenstate, "
                "flatness_check and write_wigner.eigenstate, the eigenstate "
                "|0>; hudson_certify of the random state times its forward "
                "map and negativity scan; read_wigner.general "
                "reads the written grid with a '#' line after its header; "
                "cli.* cases (check, wigner, reconstruct, star, overlap, "
                "render) run the command in-process on files of that state "
                "and its grid; median and quartiles of the pooled calls and each "
                "round's median in ms; peak RSS of the case's process in MB",
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "blas_threads": 1,
                "min_seconds": MIN_SECONDS, "rounds": ROUNDS},
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

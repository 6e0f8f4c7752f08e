"""Measuring process of an untraced run: it runs one workload's jobs and
checks nothing, so its peak RSS is the program's.

    python3 bench/worker.py SPEC.json SECONDS RESULT.json

SPEC.json holds the round (class, CLI arguments and output file of each job),
a scratch directory and the stash directory.  The process runs the harness
warm-up, one discarded round, then whole rounds until the summed job time
reaches SECONDS and at least ``MIN_JOBS`` jobs ran.  Between rounds, spread
evenly over the job time, it times ``SETUP_PROBES`` fresh set-up processes,
so that ``setup_s`` sees the machine's fast and slow periods in the same
proportion as the jobs do.  Each distinct output of a job slot is copied to
the stash for the caller to check.  RESULT.json receives the samples, the
probe times and this process's ``ru_maxrss``.
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402

SETUP_PROBES = 9   # setup_s is their median


def main(spec_path: str, seconds: float, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    jobs = [harness.Job(cls, tuple(args), output, None) for cls, args, output in spec["jobs"]]
    probe_dir = os.path.join(spec["workdir"], "probe")
    harness.setup_probe(probe_dir)  # discarded: it may write the bytecode cache
    harness.warm_up(os.path.join(spec["workdir"], "warmup"))
    recorder = harness.Recorder(spec["stash"])
    warm = harness.run_round(jobs, recorder)  # discarded: fills caches

    # Whole rounds, so that every run has the same mix of job classes.
    timed, probes, busy = [], [], 0.0
    while busy < seconds or len(timed) < harness.MIN_JOBS:
        if len(probes) < SETUP_PROBES and busy >= len(probes) * seconds / SETUP_PROBES:
            probes.append(harness.setup_probe(probe_dir))
        new = harness.run_round(jobs, recorder)
        timed += new
        busy += sum(s.wall_s for s in new)
    while len(probes) < SETUP_PROBES:
        probes.append(harness.setup_probe(probe_dir))
    result = {
        "warm": [dataclasses.asdict(s) for s in warm],
        "timed": [dataclasses.asdict(s) for s in timed],
        "setup_probes": probes,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3])

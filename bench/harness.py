"""Closed-loop, single-client job runner for the cylwig CLI.

Jobs run in-process through the click entry point, so interpreter start and
imports are paid once per process (and measured as ``setup_s``), not once per
job.  Every job writes its result to its own file or to captured stdout.
During the run each distinct output of a job slot is only copied aside
(``Recorder``); it is checked by value after the run (``Checker``), so the
checks neither take time in the timed region nor memory in the measuring
process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import click

from cylwig import cli

MIN_JOBS = 100     # timed jobs per run at least, so that 10 samples lie beyond p90
PROBE = Path(__file__).resolve().parent / "probe.py"


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload round.

    ``output`` is the file the job writes (removed before each run so a job
    that writes nothing cannot pass on a stale file); ``None`` means the
    result is the job's stdout.  ``check`` receives the output bytes and
    returns ``None`` when they are correct, else a message; the measuring
    process, which checks nothing, has ``None`` there.
    """

    cls: str
    args: tuple[str, ...]
    output: str | None
    check: Callable[[bytes], str | None] | None


@dataclass(frozen=True)
class Sample:
    """One timed job.  ``digest`` names the recorded output; it is ``None``
    when the job exited non-zero or wrote no output."""

    slot: int
    cls: str
    wall_s: float
    cpu_s: float
    code: int | str
    digest: str | None


def invoke(args) -> tuple[int | str, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr).

    An exception that escapes the CLI (a traceback for a user) is returned
    as the code ``"exception:<type>"`` so the caller counts it as a failure.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rv = cli.cli.main(args=list(args), prog_name="cylwig", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # the job's failure is a result, not a crash
            code = f"exception:{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hasher():
    return hashlib.blake2b(digest_size=16)


class Recorder:
    """Keeps each distinct output of a job slot in ``stash`` for the checks.

    Rounds repeat the same jobs on the same inputs, so outputs repeat byte
    for byte; only an output whose digest is new for its slot is copied.
    The file is hashed in chunks and never parsed here.
    """

    def __init__(self, stash: str):
        os.makedirs(stash, exist_ok=True)
        self.stash = stash
        self._seen: set[tuple[int, str]] = set()

    def record(self, slot: int, job: Job, code, stdout: str) -> str | None:
        if code != 0:
            return None
        if job.output is None:
            data = stdout.encode("utf-8")
            digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        else:
            try:
                with open(job.output, "rb") as fh:
                    digest = hashlib.file_digest(fh, _hasher).hexdigest()
            except OSError:
                return None
        if (slot, digest) not in self._seen:
            path = stash_path(self.stash, slot, digest)
            if job.output is None:
                with open(path, "wb") as fh:
                    fh.write(data)
            else:
                shutil.copyfile(job.output, path)
            self._seen.add((slot, digest))
        return digest


def stash_path(stash: str, slot: int, digest: str) -> str:
    return os.path.join(stash, f"{slot:03d}-{digest}")


class Checker:
    """Value checks of recorded outputs, each distinct output checked once."""

    def __init__(self, jobs, stash: str):
        self.jobs = jobs
        self.stash = stash
        self.failures: list[str] = []
        self._verdict: dict[tuple[int, str], bool] = {}

    def ok(self, sample: Sample) -> bool:
        job = self.jobs[sample.slot]
        where = f"{job.cls} {' '.join(job.args)}"
        if sample.code != 0:
            self.failures.append(f"{where}: exit code {sample.code}")
            return False
        if sample.digest is None:
            self.failures.append(f"{where}: no output")
            return False
        key = (sample.slot, sample.digest)
        if key not in self._verdict:
            with open(stash_path(self.stash, *key), "rb") as fh:
                data = fh.read()
            try:
                problem = job.check(data)
            except Exception as exc:  # malformed output fails the job, not the run
                problem = f"unreadable output: {exc!r}"
            if problem is not None:
                self.failures.append(f"{where}: {problem}")
            self._verdict[key] = problem is None
        return self._verdict[key]


def run_job(job: Job, around=contextlib.nullcontext) -> tuple[int | str, str, float, float]:
    """Time one job: (code, stdout, wall seconds, CPU seconds).

    ``around`` wraps the invocation inside the timed region (the tracer's
    root span); the default adds nothing.
    """
    if job.output is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.output)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with around():
        code, stdout, _ = invoke(job.args)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    return code, stdout, wall, cpu


def run_round(jobs, recorder: Recorder, around=contextlib.nullcontext) -> list[Sample]:
    samples = []
    for slot, job in enumerate(jobs):
        code, stdout, wall, cpu = run_job(job, around)
        digest = recorder.record(slot, job, code, stdout)
        samples.append(Sample(slot, job.cls, wall, cpu, code, digest))
    return samples


def setup_probe(workdir: str) -> float:
    """Wall time, from spawn to exit, of a fresh process that imports cylwig
    and cylwig.cli and runs ``warm_up`` (see ``probe.py``)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(PROBE), workdir], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def warm_up(workdir: str) -> None:
    """Touch every CLI command once on a tiny window.

    Shared by the set-up probe and the measuring process, so set-up work
    that a change moves into first use is paid inside ``setup_s``.
    """
    os.makedirs(workdir, exist_ok=True)
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    steps = [
        ["state", "--kind", "eigen", "--l0", "1", "--window", "-2:2", "-o", p("e.json")],
        ["state", "--kind", "random", "--seed", "1", "--window", "-2:2", "-o", p("r.json")],
        ["wigner", p("r.json"), "--method", "oam", "-o", p("g.csv")],
        ["wigner", p("r.json"), "--method", "angle", "-o", p("h.csv")],
        ["check", p("e.json"), "-o", p("c.json")],
        ["scan", "--samples", "1", "--window", "-2:2", "-o", p("s.txt")],
        ["overlap", p("g.csv"), p("h.csv")],
        ["render", p("g.csv"), "-o", p("g.ppm")],
        ["reconstruct", p("g.csv"), "--window", "-2:2", "-o", p("rho.json")],
        ["star", p("g.csv"), p("h.csv"), "--method", "operator", "-o", p("st.csv")],
    ]
    for args in steps:
        code, _, err = invoke(args)
        if code != 0:
            raise RuntimeError(f"warm-up step {' '.join(args)} exited {code}: {err.strip()}")

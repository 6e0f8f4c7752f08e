"""The benchmark's workloads: one round of CLI jobs each, built from a seed.

A round is a fixed list of jobs; the seed draws the states, so every run of
a workload does the same work on different inputs.  The inputs are written
once before timing and the program sees only those files.

The window size of the jobs runs over a range (certify_mix: checks at -4:4
to -16:16, the four largest twice, and scans at -5:5 to -10:10; grid_io: -6:6
to -16:16; inverse: -4:4 to -8:8 at pads 2 to 8), so job latencies spread
over a continuum rather than a few clusters.  p50 and p90 then sit among
jobs of closely spaced latency: they neither jump between two distant
classes nor flip with the shared machine's fast and slow periods, as a
percentile inside a single class does.

Every job has a value check (never a byte comparison: a change may move the
last printed digit of a 17-digit float).
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from cylwig import phasespace as ps
from cylwig import states as st
from cylwig.analysis import DEFAULT_TOLERANCE

from harness import Job

GRID_TOL = 1e-12        # agreement of the two forward paths
LSTSQ_TOL = 1e-9        # lstsq recovery of the source density matrix
STAR_TOL = 1e-9         # star operator against the forward map of rho sigma
# The literal inverse and the direct star product converge like O(1/P); at
# the seeds and sizes used here the error times P stays below 0.043 and
# 0.018.  These gates catch a wrong formula, not the truncation.
LITERAL_TOL_P = 0.1
DIRECT_TOL_P = 0.05


def window(a: int) -> st.OamWindow:
    return st.OamWindow(-a, a)


class _Files:
    def __init__(self, workdir: str):
        self.inputs = os.path.join(workdir, "in")
        self.outputs = os.path.join(workdir, "out")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.outputs, exist_ok=True)
        self._n = 0

    def _next(self, where, stem, ext):
        self._n += 1
        return os.path.join(where, f"{self._n:03d}-{stem}.{ext}")

    def input(self, stem, ext):
        return self._next(self.inputs, stem, ext)

    def output(self, stem, ext):
        return self._next(self.outputs, stem, ext)


def _lazy(make):
    """A reference computed on first use, inside a check and so outside the
    timed region, then kept."""
    return functools.cache(make)


# --- output parsing ------------------------------------------------------------


def parse_grid_csv(data: bytes):
    """(header fields, values[rows, n_phi]) of a cylwig-wigner-v1 CSV, with
    the row and column indices checked to be complete and in order."""
    text = data.decode("ascii")
    head, _, body = text.partition("\n")
    meta_line, _, body = body.partition("\n")
    if head.strip() != "# format=cylwig-wigner-v1" or not meta_line.startswith("#"):
        raise ValueError("missing cylwig-wigner-v1 header")
    meta = dict(tok.split("=", 1) for tok in meta_line[1:].split())
    l_lo, l_hi, n_phi = int(meta["l_lo"]), int(meta["l_hi"]), int(meta["n_phi"])
    cells = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 4)
    n_rows = l_hi - l_lo + 1
    if cells.shape[0] != n_rows * n_phi:
        raise ValueError(f"{cells.shape[0]} cells, expected {n_rows * n_phi}")
    if not (np.array_equal(cells[:, 0], np.repeat(np.arange(l_lo, l_hi + 1), n_phi))
            and np.array_equal(cells[:, 1], np.tile(np.arange(n_phi), n_rows))):
        raise ValueError("cells are not complete and ordered by (l, phi_index)")
    return meta, cells[:, 3].reshape(n_rows, n_phi)


def grid_matches(data: bytes, ref: ps.WignerGrid, tol: float) -> str | None:
    try:
        meta, values = parse_grid_csv(data)
    except (ValueError, KeyError) as exc:
        return f"unreadable grid: {exc}"
    expect = {"l_lo": ref.l_lo, "l_hi": ref.l_hi, "n_phi": ref.grid.n_phi, "pad": ref.pad,
              "source_l_min": ref.source_window.l_min,
              "source_l_max": ref.source_window.l_max}
    for key, value in expect.items():
        if meta.get(key) != str(value):
            return f"header {key}={meta.get(key)!r}, expected {value}"
    err = float(np.max(np.abs(values - ref.values)))
    return None if err <= tol else f"max |W - ref| = {err:.3e} > {tol:.0e}"


# --- certify_mix ---------------------------------------------------------------


def _eigen_report_check(l0: int):
    def check(data: bytes):
        rep = json.loads(data)
        if rep["classification"] != "oam_eigenstate":
            return f"classified {rep['classification']}, expected oam_eigenstate"
        if rep["min_value"] != 0.0:
            return f"eigenstate min_value {rep['min_value']!r} is not exactly 0"
        if rep["nearest_eigenstate"]["l0"] != l0:
            return f"nearest eigenstate {rep['nearest_eigenstate']['l0']}, expected {l0}"
        return None
    return check


def _negative_report(rep: dict) -> str | None:
    if rep["classification"] != "negative_witnessed":
        return f"classified {rep['classification']}, expected negative_witnessed"
    if not rep["min_value"] < -DEFAULT_TOLERANCE:
        return f"negative_witnessed with min_value {rep['min_value']!r}"
    return None


def _scan_check(seed: int, samples: int):
    def check(data: bytes):
        lines = data.decode("utf-8").splitlines()
        if len(lines) != samples + 1:
            return f"{len(lines)} lines, expected {samples + 1}"
        for i, line in enumerate(lines[:-1]):
            rep = json.loads(line)
            if rep.get("seed") != seed + i:
                return f"report {i} has seed {rep.get('seed')}, expected {seed + i}"
            problem = _negative_report(rep)
            if problem:
                return f"seed {seed + i}: {problem}"
        summary = json.loads(lines[-1])
        if summary["summary"]["negative_witnessed"] != samples or summary["samples"] != samples:
            return f"summary {lines[-1]} does not count {samples} negative samples"
        return None
    return check


def certify_mix(rng: np.random.Generator, workdir: str) -> list[Job]:
    files = _Files(workdir)
    jobs = []

    def check_job(cls, psi, check):
        src = files.input(cls, "json")
        st.write_state(psi, src)
        out = files.output(cls, "json")
        jobs.append(Job(cls, ("check", src, "-o", out), out, check))

    # the largest windows twice, so that p90 falls between close latencies
    for i, a in enumerate([*range(4, 17), *range(13, 17)]):
        w = window(a)
        kind = ("eigen", "displaced", "coherent")[i % 3]
        if kind == "coherent":
            l0 = int(rng.integers(-(a // 4), a // 4 + 1))
            phi0 = float(rng.uniform(-math.pi, math.pi))
            check_job(f"check.coherent.w{a}", st.coherent_state(l0, phi0, 0.12 * a, w),
                      lambda data: _negative_report(json.loads(data)))
            continue
        l0 = int(rng.integers(-(a // 2), a // 2 + 1))
        psi = st.oam_eigenstate(l0, w)
        if kind == "displaced":
            ld = int(rng.choice([-2, -1, 1, 2]))
            psi = st.displace(psi, ld, float(rng.uniform(-math.pi, math.pi)))
            l0 += ld
        check_job(f"check.{kind}.w{a}", psi, _eigen_report_check(l0))
    for a in range(5, 11):
        seed = int(rng.integers(0, 2**31))
        out = files.output(f"scan.w{a}", "txt")
        args = ("scan", "--samples", "2", "--window", f"-{a}:{a}", "--seed", str(seed), "-o", out)
        jobs.append(Job(f"scan.w{a}", args, out, _scan_check(seed, 2)))
    return jobs


# --- grid_io -------------------------------------------------------------------


def _random_pure(rng, w):
    return st.random_pure_state(w, int(rng.integers(0, 2**31)))


def _other_path(source, method: str) -> ps.WignerGrid:
    """Reference grid from the forward path the job did not use."""
    w = source.window
    grid, pad = ps.default_angle_grid(w), ps.default_pad(w)
    if method == "angle":
        return ps.wigner_from_oam(st.to_density(source), pad, grid)
    return ps.wigner_from_angle(source, pad, grid)


def _mixture_by_angle(pairs) -> ps.WignerGrid:
    grids = [(x, _other_path(psi, "oam")) for x, psi in pairs]
    g0 = grids[0][1]
    values = sum(x * g.values for x, g in grids)
    return ps.WignerGrid(g0.l_lo, g0.l_hi, g0.grid, values, g0.source_window, g0.pad)


def _ppm_check(ref):
    def check(data: bytes):
        W = ref()
        header = f"P6\n{W.grid.n_phi} {W.n_rows}\n255\n".encode("ascii")
        if not data.startswith(header):
            return f"PPM header {data[:24]!r}, expected {header!r}"
        img = np.frombuffer(data[len(header):], dtype=np.uint8)
        if img.size != 3 * W.values.size:
            return f"{img.size} PPM bytes, expected {3 * W.values.size}"
        img = img.reshape(W.n_rows, W.grid.n_phi, 3).astype(int)
        vals = W.values[::-1]
        r, g, b = img[..., 0], img[..., 1], img[..., 2]
        neg, pos = vals < -1e-9, vals > 1e-9
        if np.any(neg & ((b != 255) | (r != g))) or np.any(pos & ((r != 255) | (g != b))):
            return "pixel colours disagree with the sign of the reference grid"
        return None
    return check


def grid_io(rng: np.random.Generator, workdir: str) -> list[Job]:
    files = _Files(workdir)
    jobs = []
    for a in range(6, 17):
        w = window(a)
        method = ("angle", "oam", "mix")[a % 3]
        cls = f"wigner.{method}.w{a}"
        src = files.input(f"source.w{a}", "json")
        out = files.output(cls, "csv")
        if method == "mix":
            x = float(rng.uniform(0.2, 0.8))
            pairs = [(x, _random_pure(rng, w)), (1.0 - x, _random_pure(rng, w))]
            st.write_density(st.mix(pairs), src)
            ref = _lazy(lambda pairs=pairs: _mixture_by_angle(pairs))
            method = "oam"
        else:
            psi = _random_pure(rng, w)
            st.write_state(psi, src)
            ref = _lazy(lambda psi=psi, m=method: _other_path(psi, m))
        jobs.append(Job(cls, ("wigner", src, "--method", method, "-o", out), out,
                        lambda data, ref=ref: grid_matches(data, ref(), GRID_TOL)))
    for a in range(6, 17, 2):
        # two stored grids per window, one from each forward path
        w = window(a)
        pad, grid = ps.default_pad(w), ps.default_angle_grid(w)
        stored = []
        for method in ("oam", "angle"):
            psi = _random_pure(rng, w)
            W = (ps.wigner_from_oam(st.to_density(psi), pad, grid) if method == "oam"
                 else ps.wigner_from_angle(psi, pad, grid))
            path = files.input(f"grid.{method}.w{a}", "csv")
            ps.write_wigner(W, path)
            stored.append((path, _lazy(lambda psi=psi, m=method: _other_path(psi, m))))
        (pa, ra), (pb, rb) = stored
        out = files.output(f"render.w{a}", "ppm")
        jobs.append(Job(f"render.w{a}", ("render", pa, "-o", out), out, _ppm_check(ra)))

        def check(data, ra=ra, rb=rb):
            got = float(data.decode("ascii"))
            want = ps.overlap(ra(), rb())
            return None if abs(got - want) <= GRID_TOL else f"overlap {got!r}, reference {want!r}"

        jobs.append(Job(f"overlap.w{a}", ("overlap", pa, pb), None, check))
    return jobs


# --- inverse -------------------------------------------------------------------


def _random_mixture(rng, w) -> st.DensityMatrix:
    x = float(rng.uniform(0.2, 0.8))
    return st.mix([(x, _random_pure(rng, w)), (1.0 - x, _random_pure(rng, w))])


def _density_check(rho: st.DensityMatrix, tol: float):
    def check(data: bytes):
        payload = json.loads(data)
        if payload.get("format") != "cylwig-density-v1" or payload["l_min"] != rho.window.l_min:
            return "not a density payload on the source window"
        mat = np.array([[complex(re, im) for re, im in row] for row in payload["elements"]])
        if mat.shape != rho.elements.shape:
            return f"matrix shape {mat.shape}, expected {rho.elements.shape}"
        if abs(np.trace(mat).real - 1.0) > 1e-12 or np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            return "recovered matrix is not Hermitian with unit trace"
        err = float(np.max(np.abs(mat - rho.elements)))
        return None if err <= tol else f"max |rho - source| = {err:.3e} > {tol:.1e}"
    return check


def _square_grid(rho: st.DensityMatrix, pad: int) -> ps.WignerGrid:
    """Forward map of rho @ rho (Hermitian, trace = purity) by linearity."""
    sq = rho.elements @ rho.elements
    purity = float(np.trace(sq).real)
    W = ps.wigner_from_oam(st.DensityMatrix(rho.window, sq / purity), pad,
                           ps.default_angle_grid(rho.window))
    return ps.WignerGrid(W.l_lo, W.l_hi, W.grid, purity * W.values, W.source_window, W.pad)


def inverse(rng: np.random.Generator, workdir: str) -> list[Job]:
    files = _Files(workdir)
    jobs = []
    kinds = [("reconstruct", "literal"), ("reconstruct", "lstsq"),
             ("star", "direct"), ("star", "operator")]
    for a in range(4, 9):
        w = window(a)
        for i, (command, method) in enumerate(kinds):
            pad = (2, 4, 6, 8)[(a + i) % 4]
            rho = _random_mixture(rng, w)
            src = files.input(f"grid.w{a}.p{pad}", "csv")
            ps.write_wigner(ps.wigner_from_oam(rho, pad, ps.default_angle_grid(w)), src)
            cls = f"{command}.{method}.w{a}.p{pad}"
            if command == "reconstruct":
                tol = LSTSQ_TOL if method == "lstsq" else LITERAL_TOL_P / pad
                out = files.output(cls, "json")
                args = ("reconstruct", src, "--window", f"-{a}:{a}", "--method", method, "-o", out)
                jobs.append(Job(cls, args, out, _density_check(rho, tol)))
            else:
                tol = STAR_TOL if method == "operator" else DIRECT_TOL_P / pad
                out = files.output(cls, "csv")
                ref = _lazy(lambda rho=rho, pad=pad: _square_grid(rho, pad))
                args = ("star", src, src, "--method", method, "-o", out)
                jobs.append(Job(cls, args, out,
                                lambda data, ref=ref, tol=tol: grid_matches(data, ref(), tol)))
    return jobs


WORKLOADS = {"certify_mix": certify_mix, "grid_io": grid_io, "inverse": inverse}


def build(name: str, seed: int, workdir: str) -> list[Job]:
    """One round of ``name``'s jobs with inputs drawn from ``seed``.

    The order of the jobs is fixed, not drawn: with the same sequence of
    allocation sizes in every run, the heap and so ``peak_rss_mb`` do not
    depend on the seed."""
    return WORKLOADS[name](np.random.Generator(np.random.PCG64(seed)), workdir)

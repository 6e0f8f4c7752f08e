"""Command-line interface for cylwig.

Commands: state, wigner, check, scan, reconstruct, overlap, star, render.
All outputs are deterministic for fixed flags and seed: floats are printed
with 17 significant digits, JSON keys in fixed order, rows in fixed order.

Exit codes: 0 success (a negative Wigner function is a result, not an
error), 2 invalid input, 3 numerical/limit failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import click
import numpy as np

from . import analysis, phasespace, states
from .errors import CylwigError

__all__ = ["cli", "main"]


def _numeric_fields(kinds, fields: list[str], flag: str, text: str) -> list:
    """``fields`` of the ``flag`` value ``text``, each read by its type in
    ``kinds`` (int or float); the first that does not read is named.  A field
    past Python's limit on the digits of an integer string is named by its
    digit count, not echoed."""
    out = []
    for i, (kind, f) in enumerate(zip(kinds, fields), 1):
        try:
            out.append(kind(f))
        except ValueError:
            digits = sum(ch.isdigit() for ch in f)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            if kind is int and 0 < limit < digits:
                raise ValueError(f"{flag} field {i} has {digits} digits, more than the "
                                 f"{limit} that Python reads as an integer") from None
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} field {i} of {text!r} is not {what}: {f!r}") from None
    return out


def _parse_window(text: str) -> states.OamWindow:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must look like 'a:b', got {text!r}")
    return states.OamWindow(*_numeric_fields((int, int), parts, "--window", text))


def _warn(line: str) -> None:
    """Write to the current sys.stderr, as ``_write_text`` does to sys.stdout:
    click.echo caches a wrapper per stream that keeps a redirected one alive."""
    sys.stderr.write(line + "\n")
    sys.stderr.flush()


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CylwigError, ValueError, OSError) as exc:
            _warn(f"error: {exc}")
            sys.exit(3 if isinstance(exc, CylwigError) else 2)

    return wrapper


def _write_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_grid(W: phasespace.WignerGrid, output: str | None) -> None:
    """Stream a grid's CSV to ``output``, or else to the current stdout."""
    phasespace.write_wigner(W, sys.stdout if output is None else output)
    sys.stdout.flush()


def _read_pair(path_a: str, path_b: str):
    """Both grids of a two-grid command; a file named twice is read once."""
    wa = phasespace.read_wigner(path_a)
    return wa, wa if path_b == path_a else phasespace.read_wigner(path_b)


def _apply_transform(psi: states.PureState, expr: str) -> states.PureState:
    if expr == "lower":
        return states.lower_charge(psi)
    name, _, arg = expr.partition("=")
    if name == "displace":
        fields = arg.split(",")
        if len(fields) != 2:
            raise ValueError(f"--apply displace needs 'displace=LD,PHID', got {expr!r}")
        ld, phid = _numeric_fields((int, float), fields, "--apply displace", expr)
        return states.displace(psi, ld, phid)
    if name == "phase":
        fields = arg.split(",")
        if not any(fields):
            raise ValueError(f"--apply phase needs 'phase=C0,C1,...', got {expr!r}")
        if "" in fields:  # a dropped field would shift every later degree
            raise ValueError(f"--apply phase field {fields.index('') + 1} of {expr!r} is empty")
        coeffs = _numeric_fields([float] * len(fields), fields, "--apply phase", expr)

        def poly(l: int) -> float:
            try:
                return sum(c * l**k for k, c in enumerate(coeffs))
            except OverflowError:  # l**k is an int beyond the float range
                raise ValueError(
                    f"--apply phase polynomial overflows the float range at l={l}"
                ) from None

        return states.apply_phase_function(psi, poly)
    raise ValueError(f"unknown --apply transform {expr!r}")


@click.group()
def cli():
    """Wigner functions on the discrete cylinder (angle x OAM)."""


@cli.command()
@click.option("--kind", type=click.Choice(["eigen", "coherent", "vonmises", "random"]),
              required=True)
@click.option("--window", "window_str", required=True, metavar="A:B")
@click.option("--l0", type=int, default=0, help="eigen/coherent center")
@click.option("--phi0", type=float, default=0.0, help="coherent angle center (radians)")
@click.option("--sigma", type=float, default=1.0, help="coherent OAM width")
@click.option("--kappa", type=float, default=0.0, help="von Mises concentration")
@click.option("--seed", type=int, default=0, help="random-state seed")
@click.option("--apply", "applies", multiple=True, metavar="SPEC",
              help="lower | displace=LD,PHID | phase=C0,C1,... (repeatable)")
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def state(kind, window_str, l0, phi0, sigma, kappa, seed, applies, output):
    """Generate a state file (cylwig-state-v1 JSON)."""
    window = _parse_window(window_str)
    if kind == "eigen":
        psi = states.oam_eigenstate(l0, window)
    elif kind == "coherent":
        psi = states.coherent_state(l0, phi0, sigma, window)
    elif kind == "vonmises":
        psi = states.von_mises_state(kappa, window)
    else:
        psi = states.random_pure_state(window, seed)
    for expr in applies:
        psi = _apply_transform(psi, expr)
    _write_text(states.state_to_json(psi) + "\n", output)


@cli.command()
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--nphi", type=int, default=None)
@click.option("--pad", type=int, default=None)
@click.option("--method", type=click.Choice(["angle", "oam"]), default="oam",
              show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def wigner(input_file, nphi, pad, method, output):
    """Transform a state/density file into a Wigner grid (CSV)."""
    source = states.read_payload(input_file)
    window = source.window
    grid = states.AngleGrid(nphi) if nphi is not None else phasespace.default_angle_grid(window)
    l_pad = pad if pad is not None else phasespace.default_pad(window)
    if method == "angle" and not isinstance(source, states.PureState):
        raise ValueError("--method angle requires a pure-state input")
    forward = phasespace.wigner_from_angle if method == "angle" else phasespace.wigner_from_oam
    _write_grid(forward(source, l_pad, grid), output)


@cli.command()
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--nphi", type=int, default=None)
@click.option("--pad", type=int, default=None)
@click.option("--tol", type=float, default=analysis.DEFAULT_TOLERANCE, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def check(input_file, nphi, pad, tol, output):
    """Certify one state file; emits a negativity report (JSON)."""
    psi = states.read_payload(input_file)
    if not isinstance(psi, states.PureState):
        raise ValueError(f"{input_file} holds a density matrix, not a pure state")
    report = analysis.hudson_certify(psi, n_phi=nphi, pad=pad, tolerance=tol)
    _write_text(analysis.report_to_json(report) + "\n", output)


@cli.command()
@click.option("--samples", type=int, required=True)
@click.option("--window", "window_str", required=True, metavar="A:B")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--nphi", type=int, default=None)
@click.option("--pad", type=int, default=None)
@click.option("--tol", type=float, default=analysis.DEFAULT_TOLERANCE, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def scan(samples, window_str, seed, nphi, pad, tol, output):
    """Certify random states (one JSON report per line, plus a summary)."""
    if samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    window = _parse_window(window_str)
    counts = {name: 0 for name in analysis.CLASSIFICATIONS}
    lines = []
    for i in range(samples):
        psi = states.random_pure_state(window, seed + i)
        report = analysis.hudson_certify(psi, n_phi=nphi, pad=pad, tolerance=tol)
        report = dataclasses.replace(report, seed=seed + i)
        counts[report.classification] += 1
        lines.append(analysis.report_to_json(report))
    lines.append(json.dumps({"summary": counts, "samples": samples}, separators=(",", ":")))
    _write_text("\n".join(lines) + "\n", output)


@cli.command()
@click.argument("grid_file", type=click.Path(exists=True))
@click.option("--window", "window_str", required=True, metavar="A:B")
@click.option("--method", type=click.Choice(["lstsq", "literal"]), default="lstsq",
              show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def reconstruct(grid_file, window_str, method, output):
    """Recover a density matrix from a Wigner grid."""
    W = phasespace.read_wigner(grid_file)
    window = _parse_window(window_str)
    result = phasespace.reconstruct_density(W, window, method=method)
    if result.status == "warning":
        _warn(
            f"warning: reconstruction residual {result.residual:.3e} exceeds "
            f"{phasespace.RESIDUAL_WARNING:.0e}"
        )
    payload = states.density_payload_to_json(result.window.l_min, result.matrix)
    _write_text(payload + "\n", output)


@cli.command()
@click.argument("grid_a", type=click.Path(exists=True))
@click.argument("grid_b", type=click.Path(exists=True))
@_cli_errors
def overlap(grid_a, grid_b):
    """Print the traciality overlap of two grids (17 significant digits)."""
    wa, wb = _read_pair(grid_a, grid_b)
    _write_text("%.17g\n" % phasespace.overlap(wa, wb), None)


@cli.command()
@click.argument("grid_a", type=click.Path(exists=True))
@click.argument("grid_b", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["operator", "direct"]), default="operator",
              show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cli_errors
def star(grid_a, grid_b, method, output):
    """Star product of two grids; writes a Wigner grid (CSV)."""
    wa, wb = _read_pair(grid_a, grid_b)
    result = phasespace.star_product(wa, wb, method=method)
    _write_grid(result, output)


def _render_ppm(W: phasespace.WignerGrid, w_min: float, w_max: float) -> bytes:
    vals = W.values[::-1]  # top image row = l_hi
    height, width = vals.shape
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    pos = vals >= 0
    if w_max > 0:
        t = np.clip(vals / w_max, 0.0, 1.0)
        fade = np.rint(255.0 * (1.0 - t)).astype(np.uint8)
        img[..., 1] = np.where(pos, fade, img[..., 1])
        img[..., 2] = np.where(pos, fade, img[..., 2])
    if w_min < 0:
        t = np.clip(vals / w_min, 0.0, 1.0)
        fade = np.rint(255.0 * (1.0 - t)).astype(np.uint8)
        img[..., 0] = np.where(~pos, fade, img[..., 0])
        img[..., 1] = np.where(~pos, fade, img[..., 1])
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()


@cli.command()
@click.argument("grid_file", type=click.Path(exists=True))
@click.option("-o", "--out", "output", type=click.Path(), required=True)
@click.option("--range", "range_str", default="auto", show_default=True,
              metavar="auto|MIN:MAX")
@_cli_errors
def render(grid_file, output, range_str):
    """Render a grid as a binary PPM (blue = negative, white = 0, red = max)."""
    W = phasespace.read_wigner(grid_file)
    if range_str == "auto":
        w_min = min(0.0, float(W.values.min()))
        w_max = max(0.0, float(W.values.max()))
    else:
        parts = range_str.split(":")
        if len(parts) != 2:
            raise ValueError(f"--range must be 'auto' or 'MIN:MAX', got {range_str!r}")
        w_min, w_max = _numeric_fields((float, float), parts, "--range", range_str)
        if not np.isfinite([w_min, w_max]).all() or w_min > w_max:
            raise ValueError(
                f"--range MIN:MAX needs finite MIN <= MAX, got {range_str!r}"
            )
    with open(output, "wb") as fh:
        fh.write(_render_ppm(W, w_min, w_max))


def main():
    cli()


if __name__ == "__main__":
    main()

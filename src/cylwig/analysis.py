"""Negativity metrics and the numerical certifier for the cylinder
classification theorem: among pure states, exactly the OAM eigenstates have
non-negative Wigner functions.

The certifier mirrors the structure of the classification argument:

1. compute the Wigner grid and scan it for negativity;
2. if none is found at tolerance, check that the angle-wavefunction modulus
   is flat (no point may beat the geometric mean of its neighbours at any
   separation);
3. check that each angle column of the grid is supported on a single row
   and that this row does not drift with the angle;
4. accept as an eigenstate only with near-unit fidelity to one.

Two further executable checks accompany it: the flatness inequality itself
and the vanishing of all off-zero autocorrelations of a coefficient sequence
whose inverse transform has constant modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import _check_budget
from .numerics import AngleGrid
from .phasespace import (
    WignerGrid,
    default_angle_grid,
    default_pad,
    marginal_oam,
    wigner_from_oam,
)
from .states import PureState, displace

__all__ = [
    "NegativityReport",
    "negativity",
    "FlatnessCheck",
    "flatness_check",
    "AutocorrelationCheck",
    "autocorrelation_check",
    "hudson_certify",
    "covariance_residual",
    "report_to_json",
]

DEFAULT_TOLERANCE = 1e-8
FLATNESS_TOL = 1e-10
AUTOCORR_TOL = 1e-10
SUPPORT_TOL = 1e-10
EIGENSTATE_FIDELITY = 1.0 - 1e-10

CLASSIFICATIONS = ("oam_eigenstate", "negative_witnessed", "inconclusive")


@dataclass(frozen=True)
class NegativityReport:
    """Outcome of a negativity scan / certification run."""

    min_value: float
    argmin: tuple[int, float]          # (l, phi)
    negative_volume: float
    is_nonnegative: bool
    tolerance: float
    classification: str
    nearest_eigenstate: tuple[int, float]  # (l0, fidelity)
    seed: int | None = None

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        if self.is_nonnegative != (self.min_value >= -self.tolerance):
            raise ValueError("is_nonnegative contradicts min_value at tolerance")

    def with_seed(self, seed: int) -> "NegativityReport":
        return replace(self, seed=seed)


def negativity(W: WignerGrid, tolerance: float = DEFAULT_TOLERANCE) -> NegativityReport:
    """Exhaustive scan of the stored grid.

    Reports the minimum and its location, the integrated negative part, and
    the nearest eigenstate read off the (exact) OAM marginal.  Classification
    is ``negative_witnessed`` below ``-tolerance`` and ``inconclusive``
    otherwise; promoting a non-negative grid to ``oam_eigenstate`` is the
    certifier's job.
    """
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    # the first cell holding the minimum (the first NaN, if any), as argmin finds
    # it; argmin itself copies the grid first, since the grid is read-only
    low = W.values.min()
    first = np.argmax(np.isnan(W.values) if np.isnan(low) else W.values == low)
    i, j = divmod(int(first), W.grid.n_phi)
    min_value = float(W.values[i, j])
    argmin = (int(W.l_lo + i), float(W.grid.node(j)))
    negative_volume = 0.0
    if not min_value >= 0.0:  # a NaN minimum takes the sum too
        # one grid-sized temporary; 0.0 - sum is exact and never -0.0
        negative_volume = float(W.grid.spacing * (0.0 - np.minimum(W.values, 0.0).sum()))
    populations = marginal_oam(W)
    src = W.source_window
    lo, hi = src.l_min - W.l_lo, src.l_max - W.l_lo
    window_pops = populations[lo : hi + 1]
    best = int(np.argmax(window_pops))
    nearest = (int(src.l_min + best), float(window_pops[best]))
    is_nonneg = min_value >= -tolerance
    classification = "inconclusive" if is_nonneg else "negative_witnessed"
    return NegativityReport(
        min_value, argmin, negative_volume, is_nonneg, tolerance, classification, nearest
    )


@dataclass(frozen=True)
class FlatnessCheck:
    flat: bool
    witness: tuple[float, float] | None   # (phi, a) maximizing the violation
    max_violation: float


def flatness_check(psi: PureState, grid: AngleGrid | None = None) -> FlatnessCheck:
    """Test ``|psi(phi)|^2 >= |psi(phi - a/2)| |psi(phi + a/2)|`` on the grid.

    ``phi`` runs over the grid nodes and ``a`` over all grid separations; the
    half-angle points live on the doubled grid, nodes ``-pi + pi k/n_phi``,
    where ``psi`` is one inverse FFT: ``c_l (-1)^l`` is added into bin
    ``l mod 2 n_phi`` (so a window wider than the doubled grid aliases as the
    samples do); it agrees with the exact coefficient sum
    (:func:`~cylwig.states.angle_wavefunction_at`) to ~1e-14.  A flat-modulus
    state passes with violation ~1e-16; any state whose angle density has an
    interior minimum fails with a witness.  The moduli at ``phi -+ a/2`` are
    two strided views of one doubled copy of the samples, so the
    ``(n_phi, n_phi)`` violation array is the only large one: about
    ``n_phi^2 + 32 n_phi`` floats must fit the memory budget.
    """
    if grid is None:
        grid = default_angle_grid(psi.window)
    n = grid.n_phi
    _check_budget("flatness check", n * n + 32 * n)
    ls = psi.window.values()
    spectrum = np.zeros(2 * n, dtype=complex)
    np.add.at(spectrum, ls % (2 * n), psi.coefficients * (1 - 2 * (ls & 1)))
    mod = np.abs(np.fft.ifft(spectrum, norm="forward"))
    mod /= np.sqrt(2.0 * np.pi)
    # row j, column t: mod[(2j - t) mod 2n] and mod[(2j + t) mod 2n], read
    # through views of two periods of mod with strides of (2, -1) and (2, +1)
    # elements; 2n + 2j - t and 2j + t both stay below 4n
    period2 = np.concatenate((mod, mod))
    step = period2.itemsize
    minus = np.ndarray((n, n), float, period2, step * 2 * n, (2 * step, -step))
    plus = np.ndarray((n, n), float, period2, 0, (2 * step, step))
    violation = minus * plus
    violation -= (mod[::2] ** 2)[:, None]
    idx = int(np.argmax(violation))
    jbest, tbest = divmod(idx, n)
    max_violation = float(violation[jbest, tbest])
    flat = max_violation <= FLATNESS_TOL
    witness = None
    if not flat:
        witness = (float(grid.node(jbest)), float(tbest * grid.spacing))
    return FlatnessCheck(flat, witness, max_violation)


@dataclass(frozen=True)
class AutocorrelationCheck:
    ok: bool
    max_abs: float


def autocorrelation_check(f, j_max: int) -> AutocorrelationCheck:
    """Check ``sum_k f(k) conj(f(k+j)) = 0`` for all ``1 <= |j| <= j_max``.

    A sequence whose inverse circle transform has constant modulus satisfies
    this exactly; a Gaussian-profile sequence fails it badly.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    seq = np.asarray(f, dtype=complex)
    worst = 0.0
    for j in range(1, j_max + 1):
        if j >= len(seq):
            break
        r = np.sum(seq[:-j] * np.conj(seq[j:]))
        worst = max(worst, float(abs(r)))
    return AutocorrelationCheck(worst <= AUTOCORR_TOL, worst)


def _single_row_support(W: WignerGrid):
    """Row support per angle column: (ok, l0) where ok means every column is
    carried by exactly one row and it is the same row throughout."""
    above = np.abs(W.values) > SUPPORT_TOL
    # n_phi cells above, all of them on the row that carries column 0
    row = int(np.argmax(above[:, 0]))
    if np.count_nonzero(above) != W.grid.n_phi or not above[row].all():
        return False, None
    return True, int(W.l_lo + row)


def hudson_certify(
    psi: PureState,
    n_phi: int | None = None,
    pad: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NegativityReport:
    """Classify a pure state by its Wigner function.

    Pipeline: forward map, exhaustive negativity scan, then (only for grids
    non-negative at tolerance) the flatness inequality, single-row support,
    row constancy over the angle, and the eigenstate fidelity gate.  The
    forward map runs through the OAM-basis sums, whose off-row zeros are
    exact for eigenstates, so their reported minimum is exactly 0.  The
    flatness gate samples ``psi`` on the doubled grid by one inverse FFT and
    holds one ``(n_phi, n_phi)`` array, ``n_phi^2 + O(n_phi)`` floats within
    the memory budget, beside the grid of the forward map.
    """
    grid = AngleGrid(n_phi) if n_phi is not None else default_angle_grid(psi.window)
    l_pad = pad if pad is not None else default_pad(psi.window)
    W = wigner_from_oam(psi, l_pad, grid)
    report = negativity(W, tolerance)
    probs = np.abs(psi.coefficients) ** 2
    best = int(np.argmax(probs))
    nearest = (int(psi.window.l_min + best), float(probs[best]))
    if not report.is_nonnegative:
        classification = "negative_witnessed"
    else:
        supported, l_support = _single_row_support(W)
        checks = (
            flatness_check(psi, grid).flat
            and supported
            and l_support == nearest[0]
            and nearest[1] >= EIGENSTATE_FIDELITY
        )
        classification = "oam_eigenstate" if checks else "inconclusive"
    return replace(report, classification=classification, nearest_eigenstate=nearest)


def covariance_residual(
    psi: PureState,
    ld: int,
    phid: float,
    n_phi: int | None = None,
    pad: int | None = None,
) -> float:
    """Max pointwise ``|W_displaced(l, phi) - W(l - ld, phi - phid)|``.

    ``phid`` must be an exact grid node so the translated comparison stays
    on stored points.
    """
    grid = AngleGrid(n_phi) if n_phi is not None else default_angle_grid(psi.window)
    # nodes are the integer multiples of the spacing (n_phi is even), so the
    # translated comparison is a column roll by phid / spacing
    steps = phid / grid.spacing
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"phid={phid} is not a node of the {grid.n_phi}-point grid")
    t = int(round(steps))
    l_pad = pad if pad is not None else default_pad(psi.window)
    W0 = wigner_from_oam(psi, l_pad, grid)
    Wd = wigner_from_oam(displace(psi, ld, phid), l_pad, grid)
    shifted = np.roll(W0.values, t % grid.n_phi, axis=1)
    return float(np.max(np.abs(Wd.values - shifted)))


# --- report serialization ----------------------------------------------------
#
# {"min_value":..., "argmin":{"l":..., "phi":...}, "negative_volume":...,
#  "classification":"...", "nearest_eigenstate":{"l0":..., "fidelity":...},
#  "tolerance":..., "seed":...?}


def report_to_json(report: NegativityReport) -> str:
    seed = "" if report.seed is None else ',"seed":%d' % report.seed
    return (
        '{"min_value":%.17g,"argmin":{"l":%d,"phi":%.17g},"negative_volume":%.17g,'
        '"classification":"%s","nearest_eigenstate":{"l0":%d,"fidelity":%.17g},'
        '"tolerance":%.17g%s}'
        % (report.min_value, *report.argmin, report.negative_volume,
           report.classification, *report.nearest_eigenstate, report.tolerance, seed)
    )

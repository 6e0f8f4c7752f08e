"""Truncated OAM states on the cylinder and the group operations acting on
them: ladder shifts, rotations, displacements, and phase functions of L.

Conventions
-----------
A pure state is a unit-norm coefficient vector ``c_l`` over a contiguous
integer window; its angle wavefunction is

    psi(phi) = (1/sqrt(2*pi)) * sum_l c_l e^{+i l phi},

the sign chosen jointly with the phase-space kernel so that the Wigner
function of ``|l0>`` is exactly ``delta_{l,l0}/(2*pi)``.  The displacement
operator acts as ``D(ld, phid)|m> = e^{-i ld phid / 2} e^{-i phid m} |m+ld>``
and the charge-lowering unitary as ``E|l> = |l-1>``.  Ladder-type operations
reindex the window instead of truncating, so they are exactly unitary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import TruncationError, _check_budget
from .numerics import TWO_PI, AngleGrid, PeriodicSamples

__all__ = [
    "OamWindow",
    "PureState",
    "DensityMatrix",
    "oam_eigenstate",
    "coherent_state",
    "von_mises_state",
    "random_pure_state",
    "lower_charge",
    "displace",
    "apply_phase_function",
    "to_density",
    "mix",
    "angle_wavefunction",
    "angle_wavefunction_at",
    "inner_product",
    "state_to_json",
    "state_from_json",
    "density_to_json",
    "density_payload_to_json",
    "density_from_json",
    "write_state",
    "read_payload",
    "write_density",
]

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class OamWindow:
    """Contiguous integer OAM window ``[l_min, l_max]``."""

    l_min: int
    l_max: int

    def __post_init__(self):
        if max(abs(self.l_min), abs(self.l_max)) >= 2**53:
            raise ValueError(f"window [{self.l_min}, {self.l_max}] has a bound beyond 2**53")
        if self.l_min > self.l_max:
            raise ValueError(f"empty window [{self.l_min}, {self.l_max}]")

    @property
    def size(self) -> int:
        return self.l_max - self.l_min + 1

    @property
    def span(self) -> int:
        return self.l_max - self.l_min

    def values(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1)

    def __contains__(self, l: int) -> bool:
        return self.l_min <= l <= self.l_max

    def index(self, l: int) -> int:
        if l not in self:
            raise ValueError(f"l={l} outside window [{self.l_min}, {self.l_max}]")
        return l - self.l_min

    def shifted(self, offset: int) -> "OamWindow":
        return OamWindow(self.l_min + offset, self.l_max + offset)

    def union(self, other: "OamWindow") -> "OamWindow":
        return OamWindow(min(self.l_min, other.l_min), max(self.l_max, other.l_max))


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex OAM coefficients on a window."""

    window: OamWindow
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (self.window.size,):
            raise ValueError(
                f"window size {self.window.size} does not match "
                f"{coeffs.shape[0]} coefficients"
            )
        bad = ~np.isfinite(coeffs)
        if bad.any():
            i = int(np.argmax(bad))
            l = self.window.l_min + i
            raise ValueError(f"coefficient {i} (l={l}) is not finite: {coeffs[i]}")
        norm = np.linalg.norm(coeffs)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, l: int) -> complex:
        if l not in self.window:
            return 0.0 + 0.0j
        return complex(self.coefficients[self.window.index(l)])

    def embedded(self, window: OamWindow) -> np.ndarray:
        """Coefficient vector on a larger window (zero padded)."""
        if window.l_min > self.window.l_min or window.l_max < self.window.l_max:
            raise ValueError("target window does not contain the state window")
        out = np.zeros(window.size, dtype=complex)
        lo = self.window.l_min - window.l_min
        out[lo : lo + self.window.size] = self.coefficients
        return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (up to tolerance) operator on a window."""

    window: OamWindow
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex)
        size = self.window.size
        if mat.shape != (size, size):
            raise ValueError(f"expected {size}x{size} matrix, got {mat.shape}")
        bad = ~np.isfinite(mat)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), size)
            m, n = self.window.l_min + i, self.window.l_min + j
            raise ValueError(
                f"density element ({i}, {j}) (m={m}, n={n}) is not finite: {mat[i, j]}"
            )
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian at 1e-12")
        trace = np.trace(mat).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {trace} deviates from 1 beyond {TRACE_TOL}")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)

    def population(self, l: int) -> float:
        i = self.window.index(l)
        return float(self.elements[i, i].real)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.elements) ** 2))


def _normalized(window: OamWindow, coeffs: np.ndarray) -> PureState:
    return PureState(window, coeffs / np.linalg.norm(coeffs))


def oam_eigenstate(l0: int, window: OamWindow) -> PureState:
    """The OAM eigenstate ``|l0>`` embedded in ``window``."""
    if l0 not in window:
        raise ValueError(f"l0={l0} outside window [{window.l_min}, {window.l_max}]")
    # the complex coefficients and their validated copy
    _check_budget("OAM eigenstate", 5 * window.size)
    coeffs = np.zeros(window.size, dtype=complex)
    coeffs[window.index(l0)] = 1.0
    return PureState(window, coeffs)


def coherent_state(
    l0: int, phi0: float = 0.0, sigma: float = 1.0, window: OamWindow | None = None
) -> PureState:
    """Cylinder coherent state with Gaussian OAM coefficients.

    ``c_l = N exp(-(l-l0)^2/(2 sigma^2)) e^{-i l phi0}``.  For sigma = 1 the
    normalization satisfies ``N^-2 = theta3(0 | 1/e)``.  The window must hold
    all but ``< 1e-12`` of the squared-coefficient mass.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not 0.0 < float(sigma) * float(sigma) < np.inf:
        raise ValueError(f"sigma={sigma} has a square outside the float range")
    if window is None:
        raise ValueError("window is required")
    if l0 not in window:
        raise ValueError(f"l0={l0} outside window [{window.l_min}, {window.l_max}]")
    if not np.isfinite(float(phi0) * max(abs(window.l_min), abs(window.l_max))):
        raise ValueError(
            f"phi0={phi0} makes the phase l*phi0 non-finite on window "
            f"[{window.l_min}, {window.l_max}]"
        )
    # Tail mass over the excluded lattice points, summed far enough out that
    # the remainder is irrelevant at the 1e-12 threshold.
    reach = int(np.ceil(8 * sigma + abs(l0) + window.span)) + 8
    # window-sized weights and complex factors; the probe lattice, its mask
    # and the Gaussian over its excluded points
    _check_budget("coherent state", 9 * window.size + 4 * (2 * reach + 1))
    ls = window.values()
    probe = np.arange(l0 - reach, l0 + reach + 1)
    outside = (probe < window.l_min) | (probe > window.l_max)
    # for a narrow sigma an exponent overflows to -inf, whose exp is exactly 0
    with np.errstate(over="ignore"):
        weights = np.exp(-((ls - l0) ** 2) / (sigma * sigma))
        tail = float(np.sum(np.exp(-((probe[outside] - l0) ** 2) / (sigma * sigma))))
    if tail >= TAIL_TOL:
        half = int(np.ceil(sigma * np.sqrt(np.log(4.0 / TAIL_TOL)))) + 1
        required = OamWindow(l0 - half, l0 + half)
        raise TruncationError(
            f"window [{window.l_min}, {window.l_max}] leaves coefficient tail "
            f"{tail:.3e} >= {TAIL_TOL}; needs at least "
            f"[{required.l_min}, {required.l_max}]",
            required_window=required,
        )
    coeffs = np.sqrt(weights) * np.exp(-1j * ls * phi0)
    return _normalized(window, coeffs)


def von_mises_state(kappa: float, window: OamWindow) -> PureState:
    """State with angle wavefunction ``exp(kappa cos phi)/sqrt(2 pi I0(2 kappa))``.

    Coefficients are the angle harmonics of the sampled wavefunction (they
    decay like Bessel ``I_l(kappa)``, with width ``sqrt(kappa)``), from one
    real FFT, then renormalized.  The harmonics are computed up to
    ``reach = l_max + 128 + 8 ceil(sqrt(kappa))``, well past that width, so
    a window too small for the state is refused naming one that holds it.  The
    samples are taken as ``exp(kappa (cos phi - 1))``, at most 1, so none
    overflows: the factor ``e^kappa`` cancels in the normalization and in
    the tail ratio.
    """
    if not (np.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if window.l_min != -window.l_max:
        raise ValueError("von Mises window must be symmetric about 0")
    if kappa == 0.0:
        # Psi_0 = 1/sqrt(2 pi) is the l = 0 eigenstate exactly.
        return oam_eigenstate(0, window)
    reach = window.l_max + 128 + 8 * int(np.ceil(np.sqrt(kappa)))
    n_phi = max(256, 4 * reach + 4)
    # the samples and their temporaries, the complex harmonics, and the
    # window-sized coefficients with their normalized and validated copies
    _check_budget("von Mises state", 6 * n_phi + 6 * window.size)
    raw = np.exp(kappa * (np.cos(AngleGrid(n_phi).nodes) - 1.0))
    # c_l is proportional to (1/n) sum_j raw_j e^{-i l phi_j}, and
    # e^{-i l phi_j} = (-1)^l e^{-2pi i l j/n}; the function is even, so c is
    # real and symmetric in l.
    wide = np.fft.rfft(raw, norm="forward")[: reach + 1].real
    wide[1::2] *= -1.0
    power = wide**2
    total = power[0] + 2.0 * power[1:].sum()
    tail = 2.0 * power[window.l_max + 1 :].sum() / total
    if tail >= TAIL_TOL:
        suffix = 2.0 * np.cumsum(power[::-1])[::-1] / total
        # suffix falls with l: its first index below TAIL_TOL, if any
        need = int(np.argmax(suffix < TAIL_TOL)) if suffix[-1] < TAIL_TOL else reach
        required = OamWindow(-need, need)
        raise TruncationError(
            f"window [{window.l_min}, {window.l_max}] leaves coefficient tail "
            f"{tail:.3e} >= {TAIL_TOL} for kappa={kappa}; needs at least "
            f"[{required.l_min}, {required.l_max}]",
            required_window=required,
        )
    return _normalized(window, wide[np.abs(window.values())].astype(complex))


def random_pure_state(window: OamWindow, seed: int) -> PureState:
    """Haar-like random state: i.i.d. complex Gaussian coefficients from a
    PCG64 generator seeded with ``seed``, then normalized."""
    # two real draws, their complex sum, its normalized and validated copies
    _check_budget("random state", 9 * window.size)
    rng = np.random.Generator(np.random.PCG64(seed))
    re = rng.standard_normal(window.size)
    im = rng.standard_normal(window.size)
    return _normalized(window, re + 1j * im)


def lower_charge(state: PureState) -> PureState:
    """Apply ``E`` (remove one unit of charge): ``c'_{l-1} = c_l`` on a window
    shifted down by one.  Exactly unitary, the window is reindexed."""
    return PureState(state.window.shifted(-1), state.coefficients)


def displace(state: PureState, ld: int, phid: float) -> PureState:
    """Displacement ``D(ld, phid)``: ladder shift by ``ld`` plus rotation.

    ``c'_{m+ld} = e^{-i ld phid/2} e^{-i phid m} c_m`` on the shifted window.
    """
    window = state.window.shifted(ld)
    lo, hi = state.window.l_min, state.window.l_max
    # the phase is monotone in m, so it is finite on the window if at both ends
    p = float(phid)
    if not np.isfinite([ld * p / 2.0 + p * m for m in (lo, hi)]).all():
        raise ValueError(
            f"phid={phid} makes the displacement phase non-finite on window [{lo}, {hi}]"
        )
    ms = state.window.values()
    phase = np.exp(-1j * (ld * phid / 2.0 + phid * ms))
    return PureState(window, phase * state.coefficients)


def apply_phase_function(state: PureState, f: Callable[[int], float]) -> PureState:
    """Apply ``e^{i f(L)}``; the OAM marginal is untouched."""
    ls = state.window.values()
    angles = [float(f(int(l))) for l in ls]
    bad = ~np.isfinite(angles)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"phase function f(l={ls[i]}) is not finite: {angles[i]}")
    phases = np.array([np.exp(1j * a) for a in angles])
    return PureState(state.window, phases * state.coefficients)


def to_density(state: PureState) -> DensityMatrix:
    """``|psi><psi|`` divided by ``<psi|psi>``, so its trace is 1 for every
    state: a norm within ``NORM_TOL`` of 1 squares to twice that distance."""
    c = state.coefficients
    return DensityMatrix(state.window, np.outer(c, c.conj()) / np.vdot(c, c).real)


def mix(states: Iterable[tuple[float, PureState]]) -> DensityMatrix:
    """Convex mixture ``sum_k w_k |psi_k><psi_k|`` on the union window, each
    term divided by ``<psi_k|psi_k>`` as in :func:`to_density`."""
    pairs = list(states)
    if not pairs:
        raise ValueError("mix() needs at least one (weight, state) pair")
    weights = np.array([w for w, _ in pairs], dtype=float)
    if np.any(weights < 0):
        raise ValueError("mixture weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    window = pairs[0][1].window
    for _, psi in pairs[1:]:
        window = window.union(psi.window)
    mat = np.zeros((window.size, window.size), dtype=complex)
    for w, psi in pairs:
        c = psi.embedded(window)
        mat += w * np.outer(c, c.conj()) / np.vdot(c, c).real
    return DensityMatrix(window, mat)


def angle_wavefunction_at(state: PureState, phi) -> np.ndarray | complex:
    """Exact wavefunction ``(1/sqrt(2 pi)) sum_l c_l e^{i l phi}`` at arbitrary
    angles, by the coefficient sum itself: no interpolation."""
    ls = state.window.values()
    phi_arr = np.asarray(phi, dtype=float)
    out = (np.exp(1j * phi_arr[..., None] * ls) @ state.coefficients) / np.sqrt(TWO_PI)
    if np.ndim(phi) == 0:
        return complex(out)
    return out


def angle_wavefunction(state: PureState, grid: AngleGrid) -> PeriodicSamples:
    """Wavefunction samples on a grid fine enough to be alias-free."""
    if grid.n_phi <= 2 * state.window.size:
        raise ValueError(
            f"n_phi={grid.n_phi} aliases a window of size {state.window.size}; "
            f"need n_phi > {2 * state.window.size}"
        )
    return PeriodicSamples(grid, angle_wavefunction_at(state, grid.nodes))


def inner_product(a: PureState, b: PureState) -> complex:
    """``<a|b>`` with both states embedded on the union window."""
    window = a.window.union(b.window)
    return complex(np.vdot(a.embedded(window), b.embedded(window)))


# --- file formats -----------------------------------------------------------
#
# cylwig-state-v1:   {"format":"cylwig-state-v1","l_min":int,
#                     "coefficients":[[re,im],...]}   (l = l_min..l_max)
# cylwig-density-v1: {"format":"cylwig-density-v1","l_min":int,
#                     "elements":[[[re,im],...],...]} (row-major in m, column n)
#
# Writers emit 17 significant digits from one ``%`` template per row of floats.


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f17s(values: np.ndarray) -> list[str]:
    """``_f17`` of each of ``values``, from one ``%`` template."""
    return ("%.17g," * len(values) % tuple(values.tolist())).split(",")[:-1]


def state_to_json(state: PureState) -> str:
    pairs = state.coefficients.view(float).tolist()  # re, im of each
    coeffs = ",".join(["[%.17g,%.17g]"] * state.window.size) % tuple(pairs)
    return (
        '{"format":"cylwig-state-v1","l_min":%d,"coefficients":[%s]}'
        % (state.window.l_min, coeffs)
    )


def density_payload_to_json(l_min: int, elements: np.ndarray) -> str:
    """Density payload from a raw matrix (no state validation on write), one
    ``%`` template per row."""
    pairs = np.ascontiguousarray(elements, dtype=complex).view(float)
    row = "[%s]" % ",".join(["[%.17g,%.17g]"] * (pairs.shape[1] // 2))
    rows = ",".join(row % tuple(r.tolist()) for r in pairs)
    return (
        '{"format":"cylwig-density-v1","l_min":%d,"elements":[%s]}' % (l_min, rows)
    )


def density_to_json(rho: DensityMatrix) -> str:
    return density_payload_to_json(rho.window.l_min, rho.elements)


_STATE = "cylwig-state-v1"
_DENSITY = "cylwig-density-v1"


def _payload(
    text: str, source: str, formats=(_STATE, _DENSITY)
) -> PureState | DensityMatrix:
    """The state or density in the JSON payload ``text``, built by its
    ``format``, which must be one of ``formats``.  Text that is not such a
    payload raises ValueError naming ``source``; a missing key, an ill-typed
    field or a number beyond float range raises ValueError naming the format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not a JSON payload ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{source} holds a JSON {type(data).__name__}, not a payload")
    fmt = data.get("format")
    if fmt not in formats:
        expected = " or ".join(formats)
        raise ValueError(f"{source} holds payload format {fmt!r}, not {expected}")
    try:
        l_min = data["l_min"]
        # a JSON integer: a bool, a float or a string is refused, not converted
        if type(l_min) is not int:
            raise ValueError(f"l_min must be an integer, got {json.dumps(l_min)}")
        if fmt == _STATE:
            values = np.array([complex(re, im) for re, im in data["coefficients"]])
        else:
            values = np.array(
                [[complex(re, im) for re, im in row] for row in data["elements"]]
            )
    except KeyError as exc:
        raise ValueError(f"{fmt} payload is missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {fmt} payload: {exc}") from None
    window = OamWindow(l_min, l_min + len(values) - 1)
    return PureState(window, values) if fmt == _STATE else DensityMatrix(window, values)


def state_from_json(text: str) -> PureState:
    return _payload(text, "text", (_STATE,))


def density_from_json(text: str) -> DensityMatrix:
    return _payload(text, "text", (_DENSITY,))


def read_payload(path) -> PureState | DensityMatrix:
    """The state or density file ``path``, decoded once and built by its
    ``format``; text that is not a payload of either raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        return _payload(fh.read(), path)


def write_state(state: PureState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state) + "\n")


def write_density(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(density_to_json(rho) + "\n")

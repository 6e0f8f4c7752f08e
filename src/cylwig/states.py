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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import TruncationError
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
    "read_state",
    "write_density",
    "read_density",
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
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if window is None:
        raise ValueError("window is required")
    if l0 not in window:
        raise ValueError(f"l0={l0} outside window [{window.l_min}, {window.l_max}]")
    ls = window.values()
    weights = np.exp(-((ls - l0) ** 2) / (sigma * sigma))
    # Tail mass over the excluded lattice points, summed far enough out that
    # the remainder is irrelevant at the 1e-12 threshold.
    reach = int(np.ceil(8 * sigma + abs(l0) + window.span)) + 8
    probe = np.arange(l0 - reach, l0 + reach + 1)
    outside = (probe < window.l_min) | (probe > window.l_max)
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

    Coefficients are obtained by projecting the sampled wavefunction onto the
    harmonics of the window (they decay like Bessel ``I_l(kappa)``), then
    renormalizing.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if window.l_min != -window.l_max:
        raise ValueError("von Mises window must be symmetric about 0")
    if kappa == 0.0:
        # Psi_0 = 1/sqrt(2 pi) is the l = 0 eigenstate exactly.
        return oam_eigenstate(0, window)
    reach = window.l_max + 128
    n_phi = max(256, 4 * reach + 4)
    grid = AngleGrid(n_phi)
    phi = grid.nodes
    raw = np.exp(kappa * np.cos(phi))
    # c_l is proportional to (F raw)(-l) = (1/n) sum raw e^{-i l phi};
    # the function is even so c is real and symmetric in l.
    wide_ls = np.arange(0, reach + 1)
    wide = np.real(np.exp(-1j * wide_ls[:, None] * phi[None, :]) @ raw) / n_phi
    power = wide**2
    total = power[0] + 2.0 * power[1:].sum()
    tail = 2.0 * power[window.l_max + 1 :].sum() / total
    if tail >= TAIL_TOL:
        suffix = 2.0 * np.cumsum(power[::-1])[::-1] / total
        enough = np.nonzero(suffix < TAIL_TOL)[0]
        need = int(enough[0]) if len(enough) else reach
        required = OamWindow(-need, need)
        raise TruncationError(
            f"window [{window.l_min}, {window.l_max}] leaves coefficient tail "
            f"{tail:.3e} >= {TAIL_TOL} for kappa={kappa}; needs at least "
            f"[{required.l_min}, {required.l_max}]",
            required_window=required,
        )
    ls = window.values()
    coeffs = wide[np.abs(ls)].astype(complex)
    return _normalized(window, coeffs)


def random_pure_state(window: OamWindow, seed: int) -> PureState:
    """Haar-like random state: i.i.d. complex Gaussian coefficients from a
    PCG64 generator seeded with ``seed``, then normalized."""
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
    ms = state.window.values()
    phase = np.exp(-1j * (ld * phid / 2.0 + phid * ms))
    return PureState(state.window.shifted(ld), phase * state.coefficients)


def apply_phase_function(state: PureState, f: Callable[[int], float]) -> PureState:
    """Apply ``e^{i f(L)}``; the OAM marginal is untouched."""
    phases = np.array([np.exp(1j * float(f(int(l)))) for l in state.window.values()])
    return PureState(state.window, phases * state.coefficients)


def to_density(state: PureState) -> DensityMatrix:
    return DensityMatrix(state.window, np.outer(state.coefficients, state.coefficients.conj()))


def mix(states: Iterable[tuple[float, PureState]]) -> DensityMatrix:
    """Convex mixture ``sum_k w_k |psi_k><psi_k|`` on the union window."""
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
        mat += w * np.outer(c, c.conj())
    return DensityMatrix(window, mat)


def angle_wavefunction_at(state: PureState, phi) -> np.ndarray | complex:
    """Exact wavefunction ``(1/sqrt(2 pi)) sum_l c_l e^{i l phi}`` at arbitrary
    angles (this is the half-angle evaluation path: no interpolation)."""
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
# Writers emit full double precision (17 significant digits).


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _pair(z: complex) -> str:
    return f"[{_f17(z.real)},{_f17(z.imag)}]"


def state_to_json(state: PureState) -> str:
    coeffs = ",".join(_pair(c) for c in state.coefficients)
    return (
        '{"format":"cylwig-state-v1","l_min":%d,"coefficients":[%s]}'
        % (state.window.l_min, coeffs)
    )


@contextmanager
def _payload(data, fmt: str):
    """Yield a decoded JSON payload after checking its format; a missing key or
    an ill-typed field read inside the block raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"not a {fmt} payload: a JSON {type(data).__name__}")
    if data.get("format") != fmt:
        raise ValueError(f"not a {fmt} payload: {data.get('format')!r}")
    try:
        yield data
    except KeyError as exc:
        raise ValueError(f"{fmt} payload is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {fmt} payload: {exc}") from None


def state_from_json(text: str) -> PureState:
    with _payload(json.loads(text), "cylwig-state-v1") as data:
        l_min = int(data["l_min"])
        coeffs = np.array([complex(re, im) for re, im in data["coefficients"]])
    return PureState(OamWindow(l_min, l_min + len(coeffs) - 1), coeffs)


def density_payload_to_json(l_min: int, elements: np.ndarray) -> str:
    """Density payload from a raw matrix (no state validation on write)."""
    rows = ",".join(
        "[" + ",".join(_pair(complex(z)) for z in row) + "]" for row in elements
    )
    return (
        '{"format":"cylwig-density-v1","l_min":%d,"elements":[%s]}' % (l_min, rows)
    )


def density_to_json(rho: DensityMatrix) -> str:
    return density_payload_to_json(rho.window.l_min, rho.elements)


def density_from_json(text: str) -> DensityMatrix:
    with _payload(json.loads(text), "cylwig-density-v1") as data:
        l_min = int(data["l_min"])
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in data["elements"]]
        )
    return DensityMatrix(OamWindow(l_min, l_min + mat.shape[0] - 1), mat)


def write_state(state: PureState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state) + "\n")


def read_state(path) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def write_density(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(density_to_json(rho) + "\n")


def read_density(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return density_from_json(fh.read())

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cylwig import (
    AngleGrid,
    DensityMatrix,
    MemoryBudgetError,
    OamWindow,
    PureState,
    apply_phase_function,
    autocorrelation_check,
    coherent_state,
    covariance_residual,
    default_angle_grid,
    default_pad,
    displace,
    flatness_check,
    hudson_certify,
    marginal_oam,
    negativity,
    oam_eigenstate,
    random_pure_state,
    report_to_json,
    to_density,
    von_mises_state,
    wigner_from_oam,
)
from cylwig import analysis, errors
from cylwig.states import angle_wavefunction_at

TWO_PI = 2 * np.pi


def near_eigenstate_coefficients(l1, eps):
    """Coefficients of ``|0> + eps|l1>`` on the window -4:4, normalized."""
    c = np.zeros(9, dtype=complex)
    c[4], c[4 + l1] = np.sqrt(1.0 - eps * eps), eps
    return c


def delta_grid(l0=1, window=OamWindow(-4, 4)):
    return wigner_from_oam(to_density(oam_eigenstate(l0, window)), 8, AngleGrid(36))


class TestNegativity:
    def test_delta_report(self):
        rep = negativity(delta_grid(), 1e-8)
        assert rep.min_value == 0.0
        assert rep.is_nonnegative
        assert rep.negative_volume == 0.0
        assert not np.signbit(rep.negative_volume)  # printed as 0, never -0
        assert rep.nearest_eigenstate == (1, 1.0)
        assert rep.classification == "inconclusive"  # promotion is the certifier's job

    def test_coherent_negative(self):
        psi = coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))
        W = wigner_from_oam(to_density(psi), default_pad(psi.window),
                            default_angle_grid(psi.window))
        rep = negativity(W, 1e-8)
        assert rep.min_value < -1e-6
        assert not rep.is_nonnegative
        assert rep.classification == "negative_witnessed"
        assert rep.negative_volume > 0

    def test_von_mises_negative(self):
        psi = von_mises_state(2.0, OamWindow(-12, 12))
        W = wigner_from_oam(to_density(psi), default_pad(psi.window),
                            default_angle_grid(psi.window))
        rep = negativity(W, 1e-8)
        assert rep.min_value < -1e-6

    def test_unknown_classification_refused(self):
        with pytest.raises(ValueError, match="^unknown classification 'bogus'$"):
            replace(negativity(delta_grid(), 1e-8), classification="bogus")

    def test_argmin_is_grid_point(self):
        psi = random_pure_state(OamWindow(-4, 4), 2)
        W = wigner_from_oam(to_density(psi), 8, AngleGrid(36))
        rep = negativity(W, 1e-8)
        l, phi = rep.argmin
        assert W.row(l)[int(round((phi + np.pi) / W.grid.spacing))] == rep.min_value

    @pytest.mark.parametrize("cells, want", [
        ({(5, 7): -1.0, (3, 9): -1.0, (7, 0): -1.0}, (3, 9)),  # tied minima
        ({(5, 7): np.nan, (2, 30): np.nan, (1, 1): -1.0}, (2, 30)),  # first NaN
        ({(0, 0): -0.0, (4, 4): -0.0}, (0, 0)),  # -0.0 ties +0.0
        ({(6, 2): -0.0}, (0, 0)),
    ], ids=["tied", "nan", "signed-zero", "signed-zero-later"])
    def test_argmin_is_first_minimal_cell(self, cells, want):
        """The reported cell is the one ``np.argmin`` of a writeable copy
        reports: the first minimal cell in row-major order, or the first NaN."""
        base = delta_grid()
        values = np.zeros_like(base.values)
        for cell, value in cells.items():
            values[cell] = value
        W = replace(base, values=values)
        rep = negativity(W, 1e-8)
        i, j = divmod(int(np.argmin(values.copy())), W.grid.n_phi)
        assert (i, j) == want
        assert rep.argmin == (W.l_lo + i, float(W.grid.node(j)))
        assert rep.min_value.hex() == float(values[i, j]).hex()

    def test_argmin_copies_no_grid(self):
        """``np.argmin`` copies a read-only grid before it scans; the scan
        holds at most a boolean mask of the grid."""
        w = OamWindow(-16, 16)
        W = wigner_from_oam(oam_eigenstate(3, w), default_pad(w), default_angle_grid(w))
        tracemalloc.start()
        try:
            rep = negativity(W, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < W.values.nbytes / 4
        assert rep.argmin == (W.l_lo, float(W.grid.node(0)))  # every cell but row 3 ties at 0
        assert rep.min_value == 0.0 and not np.signbit(rep.min_value)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            negativity(delta_grid(), 0.0)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf])
    def test_non_finite_tolerance_refused(self, tolerance):
        """A NaN tolerance would pass every grid, an infinite one print inf."""
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            negativity(delta_grid(), tolerance)


def _alternating_odd_sum(psi, grid):
    """``S(phi_j) = sum_k (-1)^k X_{1+2k}(phi_j)``, with
    ``X_t = Re sum_{m+n=t} c_m conj(c_n) e^{i(m-n)phi}`` and ``m, n`` counted
    from the window's first harmonic: the angle profile of the ``1/l`` tail."""
    c = psi.coefficients
    m, n = np.indices((len(c), len(c)))
    t = m + n
    weight = np.where(t % 2 == 1, 1 - 2 * (((t - 1) // 2) % 2), 0)
    phase = np.exp(1j * np.multiply.outer(grid.nodes, m - n))
    return (phase * (weight * np.outer(c, c.conj()))).sum(axis=(1, 2)).real


class TestNegativeVolumePad:
    """Far from the window ``|W(l, phi)| ~ |S(phi)|/(2pi^2|l|)`` with a sign
    that alternates with ``l``, so the negative volume grows like
    ``(1/2pi^2) int|S| dphi ln P`` with the pad ``P``; it converges only
    where ``S`` vanishes.  Window -8:8, default grid."""

    window = OamWindow(-8, 8)

    def _volumes(self, psi, pads):
        grid = default_angle_grid(self.window)
        return [negativity(wigner_from_oam(psi, pad, grid)).negative_volume for pad in pads]

    @pytest.mark.parametrize("kind", ["random_seed_1", "zero_plus_one"])
    def test_volume_grows_like_log_pad(self, kind):
        if kind == "random_seed_1":
            psi = random_pure_state(self.window, 1)
        else:
            c = np.zeros(self.window.size, dtype=complex)
            c[8] = c[9] = 1 / np.sqrt(2)  # (|0> + |1>)/sqrt(2)
            psi = PureState(self.window, c)
        grid = default_angle_grid(self.window)
        predicted = grid.spacing * np.abs(_alternating_odd_sum(psi, grid)).sum() / (2 * np.pi**2)
        v512, v2048 = self._volumes(psi, (512, 2048))
        slope = (v2048 - v512) / np.log(2048 / 512)
        assert predicted > 0.1
        assert abs(slope / predicted - 1) < 0.02

    def test_coherent_volume_converges(self):
        psi = coherent_state(0, 0.0, 1.0, self.window)
        grid = default_angle_grid(self.window)
        assert np.abs(_alternating_odd_sum(psi, grid)).max() < 1e-12
        v128, v512, v2048 = self._volumes(psi, (128, 512, 2048))
        assert 0 < v2048 - v512 < v512 - v128
        assert v2048 - v512 < 0.01 * v2048


class TestFlatness:
    def test_eigenstate_flat(self):
        res = flatness_check(oam_eigenstate(3, OamWindow(-4, 4)))
        assert res.flat
        assert res.max_violation <= 1e-14

    def test_coherent_witness_near_pi(self):
        res = flatness_check(coherent_state(0, 0.0, 1.0, OamWindow(-8, 8)))
        assert not res.flat
        phi, a = res.witness
        # the angle density has its minimum at +-pi
        assert abs(abs(phi) - np.pi) < 0.5
        assert res.max_violation > 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_phase_functions_keep_eigenstates_flat(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(4)

        def f(l):
            return float(np.polyval(coeffs, l))

        psi = apply_phase_function(oam_eigenstate(seed - 2, OamWindow(-4, 4)), f)
        res = flatness_check(psi)
        assert res.flat
        assert res.max_violation <= 1e-10


    def test_budget_refuses_before_allocating(self):
        """At 40000 angles the (n_phi, n_phi) arrays need tens of GiB."""
        psi = oam_eigenstate(0, OamWindow(-4, 4))
        with pytest.raises(MemoryBudgetError, match="flatness check needs about"):
            flatness_check(psi, AngleGrid(40000))

    def test_estimate_bounds_peak(self, monkeypatch):
        psi = oam_eigenstate(1, OamWindow(-4, 4))
        grid = AngleGrid(1000)
        flatness_check(psi, grid)
        tracemalloc.start()
        try:
            flatness_check(psi, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryBudgetError):
            flatness_check(psi, grid)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 * peak)
        assert flatness_check(psi, grid).flat


def _reference_flatness(psi, grid):
    """The gates' earlier formulas: exact coefficient sums on the doubled
    grid and index-array gathers of ``mod[(2j -+ t) mod 2n]``."""
    n = grid.n_phi
    mod = np.abs(angle_wavefunction_at(psi, AngleGrid(2 * n).nodes))
    js = np.arange(n)[:, None]
    ts = np.arange(n)[None, :]
    violation = mod[(2 * js - ts) % (2 * n)] * mod[(2 * js + ts) % (2 * n)] - mod[2 * js] ** 2
    jbest, tbest = divmod(int(np.argmax(violation)), n)
    max_violation = float(violation[jbest, tbest])
    flat = max_violation <= analysis.FLATNESS_TOL
    witness = None if flat else (float(grid.node(jbest)), float(tbest * grid.spacing))
    return flat, witness, max_violation


# windows +-0..+-16 and asymmetric ones; on the 4- and 8-angle grids the wider
# ones alias onto the doubled grid
GATE_WINDOWS = [OamWindow(-h, h) for h in range(17)] + [
    OamWindow(-3, 0), OamWindow(0, 5), OamWindow(-7, 2), OamWindow(1, 12),
    OamWindow(-16, 9), OamWindow(-5, 6),
]
GATE_STATES = {
    "eigen": lambda w, k: oam_eigenstate(w.l_min + k % w.size, w),
    "displaced": lambda w, k: displace(oam_eigenstate(w.l_min + k % w.size, w), 1,
                                       0.37 * k),
    "phase": lambda w, k: apply_phase_function(
        oam_eigenstate(w.l_max - k % w.size, w), lambda l: 0.13 * l**3 - 0.7 * l),
    # sigma <= 0.7 leaves a tail below 1e-12 within +-5 of the centre
    "coherent": lambda w, k: coherent_state(
        (w.l_min + w.l_max) // 2, 0.25 * k, 0.4 + 0.05 * (k % 7),
        w.union(OamWindow((w.l_min + w.l_max) // 2 - 5, (w.l_min + w.l_max) // 2 + 5))),
    "random": lambda w, k: random_pure_state(w, k),
}


class TestGatesMatchReference:
    """The FFT samples and strided views of ``flatness_check``, and the
    negativity scan's sum, give the verdicts, witnesses and values of the
    gathers and per-column sums they replaced."""

    @pytest.mark.parametrize("kind", sorted(GATE_STATES))
    def test_flatness(self, kind):
        cases = [(w, grid) for w in GATE_WINDOWS
                 for grid in (AngleGrid(4), AngleGrid(8), AngleGrid(36), AngleGrid(100),
                              default_angle_grid(w))]
        cases.append((OamWindow(-30, 30), AngleGrid(8)))  # 61 harmonics, 16 bins
        for k, (w, grid) in enumerate(cases):
            psi = GATE_STATES[kind](w, k)
            flat, witness, max_violation = _reference_flatness(psi, grid)
            res = flatness_check(psi, grid)
            assert (res.flat, res.witness) == (flat, witness), (w, grid.n_phi)
            assert abs(res.max_violation - max_violation) <= 1e-14, (w, grid.n_phi)

    @pytest.mark.parametrize("half", [0, 1, 4, 9, 16])
    def test_support_and_negativity(self, half):
        w = OamWindow(-half, half)
        grid, pad = default_angle_grid(w), default_pad(w)
        for psi in (oam_eigenstate(half // 2, w), oam_eigenstate(-half, w),
                    random_pure_state(w, half)):
            W = wigner_from_oam(to_density(psi), pad, grid)
            rep = negativity(W, 1e-8)
            volume = float(W.grid.spacing * (0.0 - np.minimum(W.values, 0.0).sum()))
            assert rep.negative_volume == volume
            if psi.coefficients[np.argmax(np.abs(psi.coefficients))] == 1.0:
                assert rep.negative_volume == 0.0 and not np.signbit(rep.negative_volume)


class TestAutocorrelation:
    def test_single_delta(self):
        f = np.zeros(9, dtype=complex)
        f[4] = 1.0
        res = autocorrelation_check(f, 8)
        assert res.ok and res.max_abs == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_modulus_passes(self, seed):
        # coefficients of e^{i lambda(phi)} with lambda a real trig polynomial
        rng = np.random.default_rng(seed)
        deg = 4
        a = rng.uniform(-1, 1, deg)
        b = rng.uniform(-1, 1, deg)
        n = 512
        phi = -np.pi + TWO_PI * np.arange(n) / n
        lam = sum(a[k - 1] * np.cos(k * phi) + b[k - 1] * np.sin(k * phi)
                  for k in range(1, deg + 1))
        g = np.exp(1j * lam)
        ls = np.arange(-100, 101)
        f = (np.exp(-1j * ls[:, None] * phi[None, :]) @ g) / n
        res = autocorrelation_check(f, 12)
        assert res.ok, res.max_abs

    def test_coherent_coefficients_fail(self):
        psi = coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))
        res = autocorrelation_check(psi.coefficients, 6)
        assert not res.ok
        assert res.max_abs > 1e-2

    def test_lags_past_the_end_skipped(self):
        # lag 1: 1 * 0.5 + 0.5 * 0.25; lag 2: 0.25; lags 3..10 do not exist
        res = autocorrelation_check([1, 0.5, 0.25], 10)
        assert res.max_abs == 0.625 and not res.ok

    def test_j_max_validated(self):
        with pytest.raises(ValueError):
            autocorrelation_check(np.ones(4), 0)


class TestHudsonCertify:
    def test_eigenstate(self):
        rep = hudson_certify(oam_eigenstate(3, OamWindow(-4, 4)))
        assert rep.classification == "oam_eigenstate"
        assert rep.nearest_eigenstate == (3, 1.0)
        assert rep.min_value == 0.0

    def test_displaced_eigenstate(self):
        psi = displace(oam_eigenstate(0, OamWindow(-4, 4)), 2, 1.0)
        rep = hudson_certify(psi)
        assert rep.classification == "oam_eigenstate"
        assert rep.nearest_eigenstate[0] == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_random_states_witnessed(self, seed):
        psi = random_pure_state(OamWindow(-4, 4), seed)
        if np.max(np.abs(psi.coefficients) ** 2) >= 0.999:
            pytest.skip("degenerate draw")
        rep = hudson_certify(psi)
        assert rep.classification == "negative_witnessed"
        assert rep.min_value < -1e-6

    def test_soundness_near_miss(self):
        # a state of fidelity 1 - 1e-4 with |0> has a second nonzero
        # coefficient, so it must not be classified as an eigenstate
        w = OamWindow(-4, 4)
        c = np.zeros(9, dtype=complex)
        c[4] = np.sqrt(1 - 1e-4)
        c[5] = np.sqrt(1e-4)
        psi = PureState(w, c)
        rep = hudson_certify(psi)
        assert rep.classification != "oam_eigenstate"

    @pytest.mark.parametrize("eps", [1e-10, 1e-13, 1e-17])
    @pytest.mark.parametrize("l1", [1, 2])
    def test_near_eigenstate_is_not_one(self, l1, eps):
        """``|0> + eps|l1>`` has two nonzero coefficients, so it is no
        eigenstate, however small its negativity: mixed parity (``l1 = 1``)
        and same parity (``l1 = 2``) alike."""
        psi = PureState(OamWindow(-4, 4), near_eigenstate_coefficients(l1, eps))
        rep = hudson_certify(psi)
        assert rep.classification == "inconclusive"
        assert -1e-8 <= rep.min_value < 0.0
        assert rep.nearest_eigenstate == (0, 1.0)

    @pytest.mark.parametrize("kind", sorted(GATE_STATES))
    def test_eigenstate_exactly_when_one_coefficient(self, kind):
        """Over eigenstates, displaced and phased eigenstates, coherent and
        random states at windows 0 to +-16: ``oam_eigenstate`` exactly when one
        coefficient is nonzero, and then the minimum is exactly 0 (on a
        one-mode window the default pad is 0, so the grid is the one row
        ``1/2pi``)."""
        for k, w in enumerate(GATE_WINDOWS):
            psi = GATE_STATES[kind](w, k)
            rep = hudson_certify(psi)
            one = np.count_nonzero(psi.coefficients) == 1
            assert (rep.classification == "oam_eigenstate") == one, w
            if one:
                assert rep.negative_volume == 0.0, w
                assert rep.min_value == 0.0 if w.span else rep.min_value > 0.0, w
            else:
                assert rep.classification == "negative_witnessed", w

    def test_eigenstate_at_40000_angles(self):
        """The certifier holds no ``(n_phi, n_phi)`` array: an eigenstate on
        40000 angles is not even mapped, its report is written from the
        closed form ``delta/2pi``."""
        rep = hudson_certify(oam_eigenstate(0, OamWindow(-4, 4)), n_phi=40000)
        assert rep.classification == "oam_eigenstate"
        assert rep.min_value == 0.0
        assert rep.nearest_eigenstate == (0, 1.0)

    @pytest.mark.parametrize("kind", ["eigenstate", "two_coefficients"])
    def test_peak_within_forward_map_estimate(self, kind):
        """The certifier's tracemalloc peak stays within the forward map's own
        estimate, ``2 rows (n_phi + n_t) + 6 (n_t + 1) n_phi`` floats, for a
        state it maps (two nonzero coefficients) and for an eigenstate, which
        it does not map."""
        w = OamWindow(-4, 4)
        c = np.zeros(w.size, dtype=complex)
        c[5] = 1.0
        if kind == "two_coefficients":
            c[4:6] = np.sqrt(0.5)
        psi, n_phi = PureState(w, c), 4000
        rows, n_t = w.size + 2 * default_pad(w), 2 * w.span + 1
        estimate = 8 * (2 * rows * (n_phi + n_t) + 6 * (n_t + 1) * n_phi)
        hudson_certify(psi, n_phi=n_phi)
        tracemalloc.start()
        try:
            rep = hudson_certify(psi, n_phi=n_phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = {"eigenstate": "oam_eigenstate", "two_coefficients": "negative_witnessed"}
        assert rep.classification == expected[kind]
        assert peak <= estimate

    def test_eigenstate_peak_is_not_a_grid(self):
        """At +-64 the grid of ``|1>`` would take 9 MB; certifying it takes
        below 1% of that."""
        w = OamWindow(-64, 64)
        psi = oam_eigenstate(1, w)
        grid_bytes = 8 * (w.size + 2 * default_pad(w)) * default_angle_grid(w).n_phi
        hudson_certify(psi)
        tracemalloc.start()
        try:
            rep = hudson_certify(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.classification == "oam_eigenstate"
        assert peak < 0.01 * grid_bytes

    @pytest.mark.parametrize("l0", [-16, 0, 16])
    def test_completeness_up_to_span_32(self, l0):
        rep = hudson_certify(oam_eigenstate(l0, OamWindow(-16, 16)))
        assert rep.classification == "oam_eigenstate"
        assert rep.min_value >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma1_linkage(self, seed):
        # a clearly witnessed state with non-flat modulus must also fail the
        # flatness inequality with a witness
        psi = random_pure_state(OamWindow(-4, 4), seed)
        rep = hudson_certify(psi)
        assert rep.min_value < -1e-6
        res = flatness_check(psi)
        assert not res.flat and res.witness is not None

    def test_phase_invariance_bitwise(self):
        w = OamWindow(-4, 4)
        base = hudson_certify(oam_eigenstate(2, w))
        phased = hudson_certify(
            apply_phase_function(oam_eigenstate(2, w), lambda l: 0.21 * l * l)
        )
        assert base.classification == phased.classification
        assert base.min_value == phased.min_value
        assert base.argmin == phased.argmin
        assert base.negative_volume == phased.negative_volume


def _mapped_report(psi, n_phi=None, pad=None, tolerance=analysis.DEFAULT_TOLERANCE):
    """The certifier's report of ``psi`` by the grid path: the negativity scan
    of its mapped grid, classified and given its nearest eigenstate as the
    certifier does."""
    grid = AngleGrid(n_phi) if n_phi is not None else default_angle_grid(psi.window)
    l_pad = pad if pad is not None else default_pad(psi.window)
    report = negativity(wigner_from_oam(psi, l_pad, grid), tolerance)
    probs = np.abs(psi.coefficients) ** 2
    best = int(np.argmax(probs))
    if np.count_nonzero(psi.coefficients) == 1:
        report = replace(report, classification="oam_eigenstate")
    return replace(report, nearest_eigenstate=(psi.window.l_min + best, float(probs[best])))


def _error(call):
    """The type and message of what ``call`` raises, or None."""
    try:
        call()
    except (ValueError, errors.CylwigError) as exc:
        return type(exc), str(exc)
    return None


EIGEN_KINDS = {
    "eigen": lambda psi: psi,
    "displaced": lambda psi: displace(psi, 0, 0.83),
    "phased": lambda psi: apply_phase_function(psi, lambda l: 0.13 * l**3 - 0.7 * l),
}


class TestEigenstateReport:
    """An eigenstate's report is written without mapping it, and is the grid
    path's report byte for byte, with the same errors."""

    @pytest.mark.parametrize("kind", sorted(EIGEN_KINDS))
    def test_same_report_bytes_as_the_grid_path(self, kind):
        """Windows of 1 to 41 modes at two lower bounds, ``l0`` at either end
        and in the middle, pads 0, 1, 2 and the default, and the smallest
        ``n_phi`` the band limit allows beside the default (a one-row grid,
        one mode at pad 0, is mapped by both)."""
        for size in range(1, 42):
            for lo in (-(size // 2), 3):
                w = OamWindow(lo, lo + size - 1)
                for l0 in sorted({w.l_min, (w.l_min + w.l_max) // 2, w.l_max}):
                    psi = EIGEN_KINDS[kind](oam_eigenstate(l0, w))
                    for pad in (0, 1, 2, None):
                        for n_phi in (2 * w.span + 4, None):
                            got = report_to_json(hudson_certify(psi, n_phi, pad))
                            want = report_to_json(_mapped_report(psi, n_phi, pad))
                            assert got == want, (w, l0, pad, n_phi)

    def test_eigenstate_is_not_mapped(self, monkeypatch):
        """Only a grid of the one row ``l0`` maps an eigenstate."""
        mapped = []
        map_ = analysis.wigner_from_oam
        monkeypatch.setattr(analysis, "wigner_from_oam",
                            lambda *args: mapped.append(args) or map_(*args))
        for w, pad in [(OamWindow(-4, 4), None), (OamWindow(-4, 4), 0),
                       (OamWindow(2, 2), 1), (OamWindow(2, 2), None)]:
            assert hudson_certify(oam_eigenstate(w.l_max, w), pad=pad).min_value >= 0.0
        assert [(args[0].window, args[1]) for args in mapped] == [(OamWindow(2, 2), 0)]

    @pytest.mark.parametrize(
        "n_phi, pad, tolerance",
        [(None, -1, 1e-8), (None, -1, 0.0), (8, 0, 1e-8), (8, -1, float("nan")),
         (8, 0, -1.0), (None, 10**12, 1e-8), (None, 10**12, float("inf")),
         (9, 0, 1e-8), (None, 0, 0.0), (None, None, float("nan"))],
        ids=["negative_pad", "negative_pad_bad_tol", "band_limit", "band_limit_negative_pad",
             "band_limit_bad_tol", "over_budget", "over_budget_bad_tol", "odd_n_phi",
             "zero_tol", "nan_tol"],
    )
    def test_same_errors_as_the_grid_path(self, n_phi, pad, tolerance):
        """A negative pad, a band-limit violation, an over-budget request and
        a bad tolerance raise, first of all, what the grid path raises."""
        w = OamWindow(-4, 4)
        eigen = oam_eigenstate(1, w)
        c = np.zeros(w.size, dtype=complex)
        c[4:6] = np.sqrt(0.5)
        want = _error(lambda: _mapped_report(eigen, n_phi, pad, tolerance))
        assert want is not None
        assert _error(lambda: hudson_certify(eigen, n_phi, pad, tolerance)) == want
        assert _error(lambda: hudson_certify(PureState(w, c), n_phi, pad, tolerance)) == want


class TestPureStatesMapDirectly:
    def test_no_density_matrix_is_built(self, monkeypatch):
        """Certifying and mapping a pure state never builds a DensityMatrix:
        with its validation made to fail, every pure-state path still runs."""

        def refuse(self):
            raise AssertionError("a DensityMatrix was built")

        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        w = OamWindow(-4, 4)
        psi = random_pure_state(w, 2)
        assert hudson_certify(psi).classification == "negative_witnessed"
        assert hudson_certify(oam_eigenstate(1, w)).classification == "oam_eigenstate"
        grid = default_angle_grid(w)
        assert covariance_residual(psi, 2, 3 * grid.spacing) <= 1e-10
        W = wigner_from_oam(psi, default_pad(w), grid)
        assert abs(marginal_oam(W).sum() - 1.0) < 1e-12


class TestCovarianceResidual:
    def test_delta_exact(self):
        psi = oam_eigenstate(0, OamWindow(-4, 4))
        grid = default_angle_grid(psi.window)
        assert covariance_residual(psi, 3, 4 * grid.spacing) <= 1e-12

    def test_identity_displacement(self):
        psi = random_pure_state(OamWindow(-4, 4), 1)
        assert covariance_residual(psi, 0, 0.0) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure_state(OamWindow(-4, 4), seed)
        grid = default_angle_grid(psi.window)
        ld = int(rng.integers(-3, 4))
        t = int(rng.integers(0, grid.n_phi))
        assert covariance_residual(psi, ld, t * grid.spacing) <= 1e-10

    def test_off_grid_rejected(self):
        psi = random_pure_state(OamWindow(-4, 4), 1)
        for phid in (0.1234, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="is not a node"):
                covariance_residual(psi, 1, phid)


class TestReportSerialization:
    def test_schema_keys(self):
        import json

        rep = hudson_certify(oam_eigenstate(0, OamWindow(-2, 2)))
        data = json.loads(report_to_json(rep))
        assert set(data) == {
            "min_value",
            "argmin",
            "negative_volume",
            "classification",
            "nearest_eigenstate",
            "tolerance",
        }
        assert set(data["argmin"]) == {"l", "phi"}
        assert set(data["nearest_eigenstate"]) == {"l0", "fidelity"}

    def test_seed_key_optional(self):
        import json

        rep = replace(hudson_certify(oam_eigenstate(0, OamWindow(-2, 2))), seed=9)
        assert json.loads(report_to_json(rep))["seed"] == 9

import tracemalloc

import numpy as np
import pytest

from cylwig import (
    AngleGrid,
    MemoryBudgetError,
    OamWindow,
    apply_phase_function,
    autocorrelation_check,
    coherent_state,
    covariance_residual,
    default_angle_grid,
    default_pad,
    displace,
    flatness_check,
    hudson_certify,
    negativity,
    oam_eigenstate,
    random_pure_state,
    report_from_json,
    report_to_json,
    to_density,
    von_mises_state,
    wigner_from_oam,
)
from cylwig import errors

TWO_PI = 2 * np.pi


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

    def test_argmin_is_grid_point(self):
        psi = random_pure_state(OamWindow(-4, 4), 2)
        W = wigner_from_oam(to_density(psi), 8, AngleGrid(36))
        rep = negativity(W, 1e-8)
        l, phi = rep.argmin
        assert W.row(l)[int(round((phi + np.pi) / W.grid.spacing))] == rep.min_value

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            negativity(delta_grid(), 0.0)


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
        """At 40000 angles the (n_phi, n_phi) arrays need tens of GiB; the
        forward map of an eigenstate fits the budget, the flatness gate not."""
        psi = oam_eigenstate(0, OamWindow(-4, 4))
        with pytest.raises(MemoryBudgetError, match="flatness check needs about"):
            flatness_check(psi, AngleGrid(40000))
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            hudson_certify(psi, n_phi=40000)

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
        # a state extremely close to an eigenstate but below the fidelity
        # gate must not be classified as one
        w = OamWindow(-4, 4)
        c = np.zeros(9, dtype=complex)
        c[4] = np.sqrt(1 - 1e-4)
        c[5] = np.sqrt(1e-4)
        from cylwig import PureState

        psi = PureState(w, c)
        rep = hudson_certify(psi)
        assert rep.classification != "oam_eigenstate"

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
        with pytest.raises(ValueError):
            covariance_residual(psi, 1, 0.1234)


class TestReportSerialization:
    def test_round_trip(self):
        psi = random_pure_state(OamWindow(-4, 4), 5)
        rep = hudson_certify(psi).with_seed(5)
        back = report_from_json(report_to_json(rep))
        assert back == rep

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

        rep = hudson_certify(oam_eigenstate(0, OamWindow(-2, 2))).with_seed(9)
        assert json.loads(report_to_json(rep))["seed"] == 9

import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import iv, ive

from cylwig import (
    AngleGrid,
    DensityMatrix,
    MemoryBudgetError,
    OamWindow,
    PureState,
    TruncationError,
    angle_wavefunction,
    angle_wavefunction_at,
    apply_phase_function,
    coherent_state,
    density_from_json,
    density_to_json,
    displace,
    inner_product,
    lower_charge,
    mix,
    oam_eigenstate,
    random_pure_state,
    read_payload,
    state_from_json,
    state_to_json,
    to_density,
    von_mises_state,
    write_density,
    write_state,
)
from cylwig import errors
from cylwig.phasespace import default_angle_grid, default_pad, wigner_from_oam
from cylwig.phasespace import WignerGrid, _digits8, _f17_bytes, _f17_round, _f17s
from cylwig.phasespace import read_wigner, write_wigner
from cylwig.states import density_payload_to_json

TWO_PI = 2 * np.pi


class TestWindow:
    def test_basics(self):
        w = OamWindow(-4, 4)
        assert w.size == 9 and w.span == 8
        assert 0 in w and 5 not in w
        assert w.index(-4) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OamWindow(3, 2)

    @pytest.mark.parametrize("l_min, l_max", [(2**53, 2**53), (-(2**53), 0), (0, 10**20)])
    def test_bound_beyond_2_53_rejected(self, l_min, l_max):
        with pytest.raises(ValueError, match=r"has a bound beyond 2\*\*53$"):
            OamWindow(l_min, l_max)
        assert OamWindow(-(2**53 - 1), 2**53 - 1).span == 2**54 - 2


def rectangle_rule(fn, n_phi):
    """``spacing * sum`` of ``fn`` over the nodes of ``AngleGrid(n_phi)``."""
    grid = AngleGrid(n_phi)
    return grid.spacing * fn(grid.nodes).sum()


class TestAngleGrid:
    def test_nodes(self):
        grid = AngleGrid(8)
        assert grid.nodes[0] == -np.pi
        assert_allclose(np.diff(grid.nodes), TWO_PI / 8)

    @pytest.mark.parametrize("n", [2, 3, 7, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            AngleGrid(n)


class TestCircleQuadrature:
    def test_constant(self):
        total = rectangle_rule(lambda p: np.ones_like(p, dtype=complex), 8)
        assert_allclose(total, TWO_PI, rtol=0, atol=1e-14)

    def test_pure_harmonic_vanishes(self):
        assert abs(rectangle_rule(lambda p: np.exp(1j * p), 8)) < 1e-14

    def test_cos_squared(self):
        # analytic: integral of cos^2 over 2 pi is pi; rule exact at degree 2
        total = rectangle_rule(lambda p: np.cos(p) ** 2 + 0j, 8)
        assert_allclose(total, np.pi, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_exactness_all_harmonics(self, k):
        assert abs(rectangle_rule(lambda p: np.exp(1j * k * p), 16)) < 1e-14


_W = OamWindow(-3, 3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _W.index(4), "l=4 outside window [-3, 3]", id="index"),
    pytest.param(lambda: PureState(_W, [1.0, 0.0, 0.0]),
                 "window size 7 does not match 3 coefficients", id="state-size"),
    pytest.param(lambda: DensityMatrix(_W, np.eye(3) / 3),
                 "expected 7x7 matrix, got (3, 3)", id="density-size"),
    pytest.param(lambda: oam_eigenstate(0, _W).embedded(OamWindow(-2, 5)),
                 "target window does not contain the state window", id="embedded"),
    pytest.param(lambda: coherent_state(0), "window is required", id="coherent-no-window"),
    pytest.param(lambda: coherent_state(4, window=_W), "l0=4 outside window [-3, 3]",
                 id="coherent-l0"),
    pytest.param(lambda: mix([]), "mix() needs at least one (weight, state) pair", id="mix"),
    pytest.param(lambda: state_from_json('{"format": "cylwig-state-v1", "coefficients": []}'),
                 "cylwig-state-v1 payload is missing key 'l_min'", id="state-payload-key"),
    pytest.param(lambda: density_from_json('{"format": "cylwig-density-v1", "l_min": 0}'),
                 "cylwig-density-v1 payload is missing key 'elements'", id="density-payload-key"),
])
def test_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_coefficient_outside_window_is_zero():
    psi = random_pure_state(_W, 3)
    assert psi.coefficient(4) == 0.0 and psi.coefficient(-4) == 0.0
    assert psi.coefficient(3) == psi.coefficients[-1]


class TestEigenstate:
    def test_delta_coefficients(self):
        psi = oam_eigenstate(0, OamWindow(-4, 4))
        want = np.zeros(9)
        want[4] = 1.0
        assert_allclose(psi.coefficients, want)

    def test_outside_window(self):
        with pytest.raises(ValueError):
            oam_eigenstate(5, OamWindow(-4, 4))

    def test_norm_validated(self):
        with pytest.raises(ValueError):
            PureState(OamWindow(0, 1), np.array([1.0, 1.0]))


class TestCoherent:
    def test_lattice_sum_normalization_anchor(self):
        psi = coherent_state(0, 0.0, 1.0, OamWindow(-16, 16))
        assert_allclose(
            abs(psi.coefficient(0)), np.exp(-np.arange(-8, 9) ** 2.0).sum() ** -0.5, atol=1e-14
        )

    def test_far_centre_matches_centre_zero(self):
        """The tail probe is centred on ``l0`` and sized by ``sigma`` and the
        span only: a state about ``l0 = 10**9`` builds, with the bits of the
        same state about 0."""
        far = coherent_state(10**9, 0.0, 1.0, OamWindow(10**9 - 8, 10**9 + 8))
        near = coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))
        assert np.array_equal(far.coefficients.view(np.uint64),
                              near.coefficients.view(np.uint64))

    def test_narrow_sigma_is_eigenstate(self):
        w = OamWindow(-8, 8)
        psi = coherent_state(2, 0.0, 0.05, w)
        e = oam_eigenstate(2, w)
        assert np.max(np.abs(psi.coefficients - e.coefficients)) < 1e-10

    def test_angle_density_peaks_at_phi0(self):
        psi = coherent_state(2, np.pi / 2, 1.0, OamWindow(-16, 16))
        grid = AngleGrid(256)
        density = np.abs(angle_wavefunction(psi, grid)) ** 2
        peak = grid.nodes[int(np.argmax(density))]
        assert abs(peak - np.pi / 2) <= grid.spacing

    def test_oam_marginal_is_discrete_gaussian(self):
        w = OamWindow(-16, 16)
        psi = coherent_state(0, 0.7, 1.0, w)
        ls = w.values()
        want = np.exp(-(ls.astype(float) ** 2))
        want /= want.sum()
        assert np.max(np.abs(np.abs(psi.coefficients) ** 2 - want)) < 1e-12

    def test_truncation_error_names_window(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(0, 0.0, 1.0, OamWindow(-2, 2))
        assert err.value.required_window is not None
        assert err.value.required_window.l_max >= 5

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            coherent_state(0, 0.0, -1.0, OamWindow(-8, 8))

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), float("-inf")])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            coherent_state(0, 0.0, sigma, OamWindow(-8, 8))

    @pytest.mark.parametrize("sigma", [1e-300, 1e155])
    def test_sigma_square_must_be_a_positive_float(self, sigma):
        """A sigma whose square underflows to 0 or overflows is refused by
        name, before any Gaussian is evaluated (no numpy warning)."""
        with pytest.raises(ValueError) as err:
            coherent_state(0, 0.0, sigma, OamWindow(-8, 8))
        assert str(err.value) == f"sigma={sigma} has a square outside the float range"

    def test_tiny_sigma_with_a_subnormal_square_is_eigenstate(self):
        """Exponents that overflow to -inf weigh exactly 0, with no warning."""
        w = OamWindow(-8, 8)
        psi = coherent_state(2, 0.0, 1e-160, w)
        assert np.array_equal(psi.coefficients, oam_eigenstate(2, w).coefficients)

    @pytest.mark.parametrize("phi0", [float("inf"), float("-inf"), float("nan"), 1e308])
    def test_phi0_phase_must_be_finite(self, phi0):
        with pytest.raises(ValueError) as err:
            coherent_state(0, phi0, 1.0, OamWindow(-8, 8))
        assert str(err.value) == (
            f"phi0={phi0} makes the phase l*phi0 non-finite on window [-8, 8]"
        )

    def test_large_finite_phi0_builds(self):
        """A large phi0 whose phases stay finite is a valid coherent state."""
        psi = coherent_state(0, 1e300, 1.0, OamWindow(-8, 8))
        assert abs(np.linalg.norm(psi.coefficients) - 1.0) < 1e-12


class TestVonMises:
    def test_kappa_zero_is_ground_eigenstate(self):
        w = OamWindow(-8, 8)
        psi = von_mises_state(0.0, w)
        assert np.array_equal(psi.coefficients, oam_eigenstate(0, w).coefficients)

    def test_wavefunction_normalization(self):
        # |Psi|^2 = exp(2 kappa cos phi) / (2 pi I0(2 kappa)) integrates to 1
        psi = von_mises_state(2.0, OamWindow(-16, 16))
        grid = AngleGrid(128)
        norm = grid.spacing * (np.abs(angle_wavefunction(psi, grid)) ** 2).sum()
        assert_allclose(norm, 1.0, atol=1e-13)

    def test_coefficient_ratios_match_bessel(self):
        psi = von_mises_state(1.0, OamWindow(-16, 16))
        c0 = psi.coefficient(0)
        for l in range(1, 6):
            want = iv(l, 1.0) / iv(0, 1.0)
            assert abs(psi.coefficient(l) / c0 - want) < 1e-10

    def test_prenormalization_norm(self):
        # projecting the exact wavefunction loses < 1e-10 of the norm
        kappa = 2.0
        w = OamWindow(-16, 16)
        ls = np.abs(w.values())
        norm2 = np.sum(iv(ls, kappa) ** 2) / iv(0, 2 * kappa)
        assert abs(norm2 - 1.0) < 1e-10

    def test_angle_marginal_is_von_mises_density(self):
        kappa = 2.0
        psi = von_mises_state(kappa, OamWindow(-16, 16))
        grid = AngleGrid(128)
        density = np.abs(angle_wavefunction(psi, grid)) ** 2
        want = np.exp(2 * kappa * np.cos(grid.nodes)) / (TWO_PI * iv(0, 2 * kappa))
        assert np.max(np.abs(density - want)) < 1e-10

    def test_domain_and_truncation_errors(self):
        with pytest.raises(ValueError):
            von_mises_state(-1.0, OamWindow(-8, 8))
        with pytest.raises(ValueError):
            von_mises_state(1.0, OamWindow(-3, 5))
        with pytest.raises(TruncationError):
            von_mises_state(6.0, OamWindow(-3, 3))

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -1.0])
    def test_kappa_must_be_finite_and_non_negative(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite"):
            von_mises_state(kappa, OamWindow(-8, 8))

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 10.0, 50.0])
    def test_coefficients_match_scaled_bessel(self, kappa):
        """``c_l = I_l(kappa) / sqrt(sum_l I_l(kappa)^2)``, from the
        exponentially scaled ``ive``, to the last bits."""
        w = OamWindow(-40, 40)
        want = ive(np.abs(w.values()), kappa)
        want /= np.linalg.norm(want)
        psi = von_mises_state(kappa, w)
        assert np.max(np.abs(psi.coefficients - want)) <= 2e-16

    @pytest.mark.parametrize("kappa", [100.0, 1000.0, 1e4])
    def test_suggested_window_holds_the_state(self, kappa):
        """The window a refusal names is enough: a state too wide for the
        ``+-4`` window builds on the one the error suggests."""
        with pytest.raises(TruncationError) as err:
            von_mises_state(kappa, OamWindow(-4, 4))
        required = err.value.required_window
        psi = von_mises_state(kappa, required)
        assert psi.window == required

    def test_large_kappa_truncates_without_overflow(self):
        """``exp(kappa cos phi)`` overflows at kappa = 1000; with ``e^kappa``
        divided out of the samples the window is refused by name, and no
        RuntimeWarning is raised on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="kappa=1000"):
                von_mises_state(1000.0, OamWindow(-4, 4))


class TestRandomState:
    def test_deterministic(self):
        w = OamWindow(-4, 4)
        a = random_pure_state(w, 123)
        b = random_pure_state(w, 123)
        assert np.array_equal(a.coefficients, b.coefficients)
        c = random_pure_state(w, 124)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^random state seed must be a "
                                             r"non-negative integer, got -1$"):
            random_pure_state(OamWindow(-2, 2), -1)

    def test_norms(self):
        w = OamWindow(-4, 4)
        for seed in range(100):
            psi = random_pure_state(w, seed)
            assert abs(np.linalg.norm(psi.coefficients) - 1.0) < 1e-12

    def test_law_of_large_numbers(self):
        w = OamWindow(-4, 4)
        acc = np.zeros(w.size)
        n = 10_000
        for seed in range(n):
            acc += np.abs(random_pure_state(w, seed).coefficients) ** 2
        mean = acc / n
        assert np.max(np.abs(mean - 1.0 / w.size)) / (1.0 / w.size) < 0.05


class TestMemoryBudget:
    """Each constructor refuses a window over the memory budget before it
    allocates the window-sized arrays."""

    MAKERS = {
        "eigen": lambda w: oam_eigenstate(0, w),
        "random": lambda w: random_pure_state(w, 1),
        "coherent": lambda w: coherent_state(0, 0.3, 1.0, w),
        "coherent_wide": lambda w: coherent_state(0, 0.3, w.l_max / 20, w),
        "vonmises": lambda w: von_mises_state(1.0, w),
    }

    @pytest.mark.parametrize("kind, half", [(kind, 10**8) for kind in MAKERS])
    def test_huge_window_refused(self, kind, half):
        """At +-10^8 every window-sized array is over the budget."""
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            self.MAKERS[kind](OamWindow(-half, half))

    def test_wide_von_mises_window_builds(self):
        """The von Mises harmonics come from one FFT of ``O(n_phi)`` floats,
        so a +-10^5 window needs megabytes, not a projection table."""
        w = OamWindow(-10**5, 10**5)
        psi = von_mises_state(1.0, w)
        assert psi.window == w
        assert psi.coefficient(1) / psi.coefficient(0) == pytest.approx(iv(1, 1.0) / iv(0, 1.0))

    @pytest.mark.parametrize("kind", list(MAKERS))
    def test_estimate_bounds_peak(self, monkeypatch, kind):
        """The estimate is never below what the constructor allocates
        (tracemalloc peak) and at most four times it."""
        w = OamWindow(-200, 200) if kind == "vonmises" else OamWindow(-50_000, 50_000)

        def make():
            return self.MAKERS[kind](w)

        make()
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            make()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 * peak)
        assert make().window == w


class TestUnitaries:
    def test_lower_charge_on_eigenstate(self):
        psi = lower_charge(oam_eigenstate(3, OamWindow(-4, 4)))
        assert psi.coefficient(2) == 1.0
        assert psi.window == OamWindow(-5, 3)

    def test_lower_charge_linearity(self):
        w = OamWindow(-4, 4)
        plus = PureState(w, (oam_eigenstate(0, w).coefficients
                             + oam_eigenstate(1, w).coefficients) / np.sqrt(2))
        out = lower_charge(plus)
        assert_allclose(out.coefficient(-1), 1 / np.sqrt(2))
        assert_allclose(out.coefficient(0), 1 / np.sqrt(2))

    def test_displace_ladder(self):
        psi = displace(oam_eigenstate(0, OamWindow(-4, 4)), 3, 0.0)
        assert psi.coefficient(3) == 1.0

    def test_displace_rotation_keeps_oam_marginal(self):
        psi = random_pure_state(OamWindow(-4, 4), 9)
        rot = displace(psi, 0, 1.3)
        assert_allclose(
            np.abs(rot.coefficients) ** 2, np.abs(psi.coefficients) ** 2, atol=1e-15
        )

    def test_displace_composition_global_phase(self):
        psi = random_pure_state(OamWindow(-4, 4), 11)
        two_step = displace(displace(psi, 2, 0.0), 0, 0.9)
        one_step = displace(psi, 2, 0.9)
        ov = inner_product(two_step, one_step)
        assert abs(abs(ov) - 1.0) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_unitarity_and_inner_products(self, seed):
        w = OamWindow(-4, 4)
        a = random_pure_state(w, seed)
        b = random_pure_state(w, seed + 100)
        before = inner_product(a, b)
        for op in (
            lower_charge,
            lambda s: displace(s, 2, 0.7),
            lambda s: apply_phase_function(s, lambda l: 0.3 * l * l),
        ):
            ta, tb = op(a), op(b)
            assert abs(np.linalg.norm(ta.coefficients) - 1.0) < 1e-14
            assert abs(inner_product(ta, tb) - before) < 1e-13

    def test_phase_function_identity(self):
        psi = random_pure_state(OamWindow(-4, 4), 3)
        same = apply_phase_function(psi, lambda l: 0.0)
        assert np.array_equal(psi.coefficients, same.coefficients)

    @pytest.mark.parametrize("phid", [float("inf"), float("nan"), 1e308])
    def test_displace_phase_must_be_finite(self, phid):
        psi = random_pure_state(OamWindow(-4, 4), 3)
        with pytest.raises(ValueError) as err:
            displace(psi, 1, phid)
        assert str(err.value) == (
            f"phid={phid} makes the displacement phase non-finite on window [-4, 4]"
        )

    def test_displace_beyond_2_53_refused_by_window(self):
        psi = random_pure_state(OamWindow(-4, 4), 3)
        with pytest.raises(ValueError, match="beyond 2\\*\\*53"):
            displace(psi, 10**400, 1.0)

    @pytest.mark.parametrize("f, l, value", [
        (lambda l: float("nan"), -2, "nan"),
        (lambda l: 1e308 + 1e308 * l, -2, "-inf"),
        (lambda l: 1e308 * l * l, -2, "inf"),
        (lambda l: float("inf") if l == 1 else 0.0, 1, "inf"),
    ], ids=["nan", "overflow-negative", "overflow-positive", "one-l"])
    def test_phase_function_must_be_finite(self, f, l, value):
        """The first non-finite phase is named by its ``l``."""
        psi = random_pure_state(OamWindow(-2, 2), 3)
        with pytest.raises(ValueError, match=f"^phase function f\\(l={l}\\) is not "
                           f"finite: {value}$"):
            apply_phase_function(psi, f)

    def test_phase_function_marginal_invariant(self):
        psi = coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))
        out = apply_phase_function(psi, lambda l: 0.37 * l * l)
        assert np.max(np.abs(np.abs(out.coefficients) ** 2
                             - np.abs(psi.coefficients) ** 2)) < 1e-14


class TestDensity:
    def test_projector(self):
        rho = to_density(oam_eigenstate(0, OamWindow(-2, 2)))
        want = np.zeros((5, 5))
        want[2, 2] = 1.0
        assert_allclose(rho.elements, want)

    def test_purity_and_rank(self):
        rho = to_density(random_pure_state(OamWindow(-4, 4), 17))
        assert abs(rho.purity() - 1.0) < 1e-12
        eig = np.sort(np.linalg.eigvalsh(rho.elements))[::-1]
        assert abs(eig[0] - 1.0) < 1e-12
        assert np.max(np.abs(eig[1:])) < 1e-12

    def test_every_pure_state_has_a_density(self):
        """A norm that passes ``PureState`` (``1 + 0.9e-12`` here) squares to a
        trace that ``DensityMatrix`` would refuse; ``to_density`` divides the
        outer product by it, and leaves an eigenstate's bit for bit."""
        w = OamWindow(-4, 4)
        c = random_pure_state(w, 3).coefficients * (1 + 0.9e-12)
        psi = PureState(w, c)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(w, np.outer(c, c.conj()))
        rho = to_density(psi)
        assert abs(np.trace(rho.elements).real - 1.0) < 1e-15
        assert_allclose(rho.elements, np.outer(c, c.conj()), rtol=0, atol=1e-12)
        eigen = oam_eigenstate(2, w).coefficients
        assert np.array_equal(to_density(PureState(w, eigen)).elements,
                              np.outer(eigen, eigen.conj()))

    def test_mix_single_state(self):
        psi = random_pure_state(OamWindow(-3, 3), 5)
        assert_allclose(mix([(1.0, psi)]).elements, to_density(psi).elements)

    @pytest.mark.parametrize("n", [1, 2], ids=["one_state", "two_states"])
    def test_mix_state_at_norm_tolerance(self, n):
        """A state whose norm misses 1 by 0.9e-12, which ``PureState``
        accepts, mixes to the density ``to_density`` makes: each term is
        divided by its ``<psi|psi>``, so the trace stays 1."""
        psi = random_pure_state(OamWindow(-4, 4), 3)
        scaled = PureState(psi.window, psi.coefficients * (1 + 0.9e-12))
        rho = mix([(1 / n, scaled)] * n)
        assert np.array_equal(rho.elements, to_density(scaled).elements)

    def test_mix_two_deltas(self):
        w = OamWindow(-2, 2)
        rho = mix([(0.5, oam_eigenstate(0, w)), (0.5, oam_eigenstate(1, w))])
        assert_allclose(np.diag(rho.elements), [0, 0, 0.5, 0.5, 0])
        assert abs(rho.purity() - 0.5) < 1e-14

    def test_mix_weight_validation(self):
        w = OamWindow(-2, 2)
        with pytest.raises(ValueError):
            mix([(0.7, oam_eigenstate(0, w)), (0.7, oam_eigenstate(1, w))])
        with pytest.raises(ValueError):
            mix([(1.5, oam_eigenstate(0, w)), (-0.5, oam_eigenstate(1, w))])

    def test_invariants_validated(self):
        w = OamWindow(0, 1)
        with pytest.raises(ValueError):
            DensityMatrix(w, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(w, np.array([[0.9, 0], [0, 0.9]]))  # trace 1.8
        with pytest.raises(ValueError):
            DensityMatrix(w, np.array([[1.5, 0], [0, -0.5]]))  # not PSD


    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        w = OamWindow(-1, 1)
        coeffs = np.array([0.6, bad, 0.8])
        with pytest.raises(ValueError, match=r"coefficient 1 \(l=0\) is not finite"):
            PureState(w, coeffs)
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        mat[2, 1] = bad
        with pytest.raises(ValueError, match=r"density element \(2, 1\) \(m=1, n=0\)"):
            DensityMatrix(w, mat)

    @pytest.mark.parametrize("text", ["", "# format=cylwig-wigner-v1", '{"l_min":0,'],
                             ids=["empty", "csv", "truncated"])
    def test_undecodable_payload_names_format(self, text):
        for fmt, read in (("cylwig-state-v1", state_from_json),
                          ("cylwig-density-v1", density_from_json)):
            with pytest.raises(ValueError, match=r"^text is not a JSON payload "
                               r"\(Expecting .*\)$"):
                read(text)

    def test_non_finite_payload_rejected(self):
        text = '{"format":"cylwig-state-v1","l_min":0,"coefficients":[[NaN,0],[1,0]]}'
        with pytest.raises(ValueError, match=r"coefficient 0 \(l=0\) is not finite"):
            state_from_json(text)


class TestAngleWavefunction:
    def test_eigenstate_flat_modulus(self):
        psi = oam_eigenstate(3, OamWindow(-4, 4))
        vals = angle_wavefunction(psi, AngleGrid(32))
        assert_allclose(np.abs(vals), 1 / np.sqrt(TWO_PI), atol=1e-14)

    def test_two_term_superposition_density(self):
        w = OamWindow(-2, 2)
        plus = PureState(w, (oam_eigenstate(0, w).coefficients
                             + oam_eigenstate(1, w).coefficients) / np.sqrt(2))
        grid = AngleGrid(32)
        density = np.abs(angle_wavefunction(plus, grid)) ** 2
        want = (1 + np.cos(grid.nodes)) / TWO_PI
        assert_allclose(density, want, atol=1e-14)

    def test_parseval(self):
        psi = random_pure_state(OamWindow(-6, 6), 2)
        grid = AngleGrid(64)
        total = grid.spacing * (np.abs(angle_wavefunction(psi, grid)) ** 2).sum()
        assert abs(total - 1.0) < 1e-13

    def test_alias_precondition(self):
        psi = random_pure_state(OamWindow(-6, 6), 2)
        with pytest.raises(ValueError):
            angle_wavefunction(psi, AngleGrid(26))

    def test_arbitrary_angle_matches_nodes(self):
        psi = random_pure_state(OamWindow(-5, 5), 8)
        grid = AngleGrid(64)
        by_grid = angle_wavefunction(psi, grid)
        by_point = angle_wavefunction_at(psi, grid.nodes)
        assert np.array_equal(by_grid, by_point)


class TestStateFiles:
    def test_state_round_trip(self, tmp_path):
        psi = random_pure_state(OamWindow(-5, 3), 21)
        path = tmp_path / "state.json"
        write_state(psi, path)
        back = read_payload(path)
        assert back.window == psi.window
        assert np.array_equal(back.coefficients, psi.coefficients)

    def test_state_json_format(self):
        psi = oam_eigenstate(1, OamWindow(0, 2))
        text = state_to_json(psi)
        assert text.startswith('{"format":"cylwig-state-v1","l_min":0,')
        again = state_to_json(state_from_json(text))
        assert text == again

    def test_density_round_trip(self):
        rho = to_density(random_pure_state(OamWindow(-3, 3), 4))
        back = density_from_json(density_to_json(rho))
        assert back.window == rho.window
        assert np.array_equal(back.elements, rho.elements)

    def test_density_file_round_trip(self, tmp_path):
        """``write_density`` writes the payload and a newline, which
        ``read_payload`` builds back into the same matrix."""
        psi = random_pure_state(OamWindow(-4, 2), 5)
        rho = mix([(0.4, psi), (0.6, oam_eigenstate(1, OamWindow(-4, 2)))])
        path = tmp_path / "rho.json"
        write_density(rho, path)
        assert path.read_bytes() == (density_to_json(rho) + "\n").encode("utf-8")
        back = read_payload(path)
        assert isinstance(back, DensityMatrix)
        assert back.window == rho.window
        assert np.array_equal(back.elements, rho.elements)

    @pytest.mark.parametrize("l_min", ["1.5", "true", '"3"', "-2.9999", "2.0", "null"])
    @pytest.mark.parametrize("fmt", ["state", "density"])
    def test_non_integer_l_min_rejected(self, fmt, l_min):
        """``l_min`` is a JSON integer: a float is not truncated, nor a bool
        or a string read as one."""
        if fmt == "state":
            text = '{"format":"cylwig-state-v1","l_min":%s,"coefficients":[[1,0]]}'
            read = state_from_json
        else:
            text = '{"format":"cylwig-density-v1","l_min":%s,"elements":[[[1,0]]]}'
            read = density_from_json
        with pytest.raises(ValueError, match=f"payload: l_min must be an integer, got {l_min}$"):
            read(text % l_min)

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[true,false]]}',
             "coefficient 0 holds a JSON boolean: [true, false]"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[0.6,0],[0,true]]}',
             "coefficient 1 holds a JSON boolean: [0, true]"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[true,false]]]}',
             "element (0, 0) holds a JSON boolean: [true, false]"),
            ('{"format":"cylwig-density-v1","l_min":0,'
             '"elements":[[[0.5,0],[0,0]],[[0,0],[false,0]]]}',
             "element (1, 1) holds a JSON boolean: [false, 0]"),
        ],
        ids=["state-pair", "state-imaginary", "density-pair", "density-real"],
    )
    def test_boolean_number_rejected(self, text, where):
        """``complex(True, False)`` is ``1+0j``: a JSON boolean among the
        numbers is refused by type, naming the first such entry, and not read
        as 1 or 0 (``True == 1``, so a test by value would miss it)."""
        read = state_from_json if "state" in text else density_from_json
        with pytest.raises(ValueError, match=re.escape(f"payload: {where}") + "$"):
            read(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0]],[[1,0],[0,0]]]}',
             "malformed cylwig-density-v1 payload: element row 0 holds 1 entry, expected 2"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0],[0,0]],[[0,0]]]}',
             "malformed cylwig-density-v1 payload: element row 1 holds 1 entry, expected 2"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0],[0,0]]]}',
             "malformed cylwig-density-v1 payload: element row 0 holds 2 entries, expected 1"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[]]}',
             "malformed cylwig-density-v1 payload: element row 0 holds 0 entries, expected 1"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[]}',
             "cylwig-density-v1 payload holds no elements"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[]}',
             "cylwig-state-v1 payload holds no coefficients"),
        ],
        ids=["density-ragged-first-row", "density-ragged-second-row", "density-not-square",
             "density-empty-row", "density-empty", "state-empty"],
    )
    def test_misshapen_payload_rejected(self, text, message):
        """A density row must hold one entry per row, checked before numpy
        sees the list (whose own refusal of a ragged list differs across
        versions), and neither payload may be empty."""
        read = state_from_json if "state" in text else density_from_json
        with pytest.raises(ValueError) as info:
            read(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":{}}',
             "coefficients is a JSON object, not a list"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":"ab"}',
             "coefficients is a JSON string, not a list"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":null}',
             "coefficients is a JSON null, not a list"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[0.6,0],1.0]}',
             "coefficient 1 is a JSON number, not a list"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":["ab"]}',
             "coefficient 0 is a JSON string, not a list"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[1,0,0]]}',
             "coefficient 0 holds 3 entries, expected 2"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[1]]}',
             "coefficient 0 holds 1 entry, expected 2"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[["1",0]]}',
             'coefficient 0 holds a JSON string: ["1", 0]'),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[1,null]]}',
             "coefficient 0 holds a JSON null: [1, null]"),
            ('{"format":"cylwig-state-v1","l_min":0,"coefficients":[[1,[0]]]}',
             "coefficient 0 holds a JSON list: [1, [0]]"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":"ab"}',
             "elements is a JSON string, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":{"ab":[1,2]}}',
             "elements is a JSON object, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[{"a":1}]}',
             "element row 0 is a JSON object, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0],[0,0]],"ab"]}',
             "element row 1 is a JSON string, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0],[0,0]],[[0,0],"x"]]}',
             "element (1, 1) is a JSON string, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[{"re":1,"im":0}]]}',
             "element (0, 0) is a JSON object, not a list"),
            ('{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,{}]]]}',
             "element (0, 0) holds a JSON object: [1, {}]"),
        ],
        ids=["state-object", "state-string", "state-null", "state-number-pair",
             "state-string-pair", "state-triple", "state-single", "state-string-entry",
             "state-null-entry", "state-list-entry", "density-string", "density-object",
             "density-object-row", "density-string-row", "density-string-pair",
             "density-object-pair", "density-object-entry"],
    )
    def test_ill_typed_payload_rejected(self, text, message):
        """``coefficients``, ``elements`` and each density row must be JSON
        lists and each pair a list of two JSON numbers; the first entry that
        is not is named with its JSON type (or its length) in one line,
        where a string or an object would otherwise pass as a list."""
        read = state_from_json if "state" in text else density_from_json
        fmt = "cylwig-state-v1" if "state" in text else "cylwig-density-v1"
        with pytest.raises(ValueError) as info:
            read(text)
        assert str(info.value) == f"malformed {fmt} payload: {message}"

    @pytest.mark.parametrize("text, name", [
        ('"state"', "string"), ("3", "number"), ("2.5", "number"), ("null", "null"),
        ("true", "boolean"), ("[1, 2]", "list"),
    ])
    def test_non_object_payload_named_by_json_type(self, text, name):
        with pytest.raises(ValueError) as info:
            state_from_json(text)
        assert str(info.value) == f"text holds a JSON {name}, not a payload"

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="^text holds payload format 'other', "
                           "not cylwig-state-v1$"):
            state_from_json('{"format":"other","l_min":0,"coefficients":[[1,0]]}')

    def test_each_reader_refuses_the_other_format(self):
        """``state_from_json`` and ``density_from_json`` decide the JSON, the
        object and the format by the same check as ``read_payload``."""
        psi = random_pure_state(OamWindow(-1, 1), 2)
        with pytest.raises(ValueError, match="^text holds payload format "
                           "'cylwig-density-v1', not cylwig-state-v1$"):
            state_from_json(density_to_json(to_density(psi)))
        with pytest.raises(ValueError, match="^text holds payload format "
                           "'cylwig-state-v1', not cylwig-density-v1$"):
            density_from_json(state_to_json(psi))
        with pytest.raises(ValueError, match="^text holds a JSON list, not a payload$"):
            state_from_json("[1, 2]")

    def test_read_payload_names_the_file(self, tmp_path):
        path = tmp_path / "p.json"
        for text, message in (
            ("# format=cylwig-wigner-v1\n", f"{path} is not a JSON payload (Expecting "),
            ("[1]", f"{path} holds a JSON list, not a payload"),
            ('{"format":"other"}', f"{path} holds payload format 'other', "
             "not cylwig-state-v1 or cylwig-density-v1"),
        ):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                read_payload(path)
            assert str(err.value).startswith(message)


def _pairs_reference(values) -> str:
    """``[re,im]`` of each entry, one ``format(x, ".17g")`` per float: the
    bytes a payload writer must produce."""
    return ",".join(
        f"[{format(complex(z).real, '.17g')},{format(complex(z).imag, '.17g')}]"
        for z in values
    )


class TestPayloadBytes:
    """The writers format one ``%`` template per row; their bytes are those
    of a per-float reference."""

    def test_state_matches_per_float_reference(self):
        w = OamWindow(-2, 3)
        edge = np.array([1.0, -0.0, 5e-324j, complex(-0.0, -0.0), 0.0, 0.0])
        strided = np.zeros(12, dtype=complex)
        strided[::2] = random_pure_state(w, 3).coefficients
        for coeffs in (edge, strided[::2], random_pure_state(w, 5).coefficients):
            psi = PureState(w, coeffs)
            want = ('{"format":"cylwig-state-v1","l_min":-2,"coefficients":[%s]}'
                    % _pairs_reference(coeffs))
            assert state_to_json(psi) == want

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "real"])
    def test_density_matches_per_float_reference(self, layout):
        """The density writer validates nothing, so non-finite entries and
        values far from a density's are written as they stand."""
        mat = np.array([
            [-0.0, 5e-324, 1e308 - 1e308j, 3.0],
            [complex(np.nan, -np.inf), np.inf, -0.0j, -7.0 + 2.0j],
            [0.1 + 0.2j, 2.0**-1074, -1.7976931348623157e308, 1e16],
        ])
        if layout == "transposed":
            mat = mat.T
            assert not mat.flags.c_contiguous
        elif layout == "real":
            mat = mat.real.copy()
        rows = ",".join("[%s]" % _pairs_reference(row) for row in mat)
        want = '{"format":"cylwig-density-v1","l_min":-3,"elements":[%s]}' % rows
        assert density_payload_to_json(-3, mat) == want

    def test_density_of_a_state_matches_reference(self):
        rho = to_density(random_pure_state(OamWindow(-4, 4), 9))
        rows = ",".join("[%s]" % _pairs_reference(row) for row in rho.elements)
        want = '{"format":"cylwig-density-v1","l_min":-4,"elements":[%s]}' % rows
        assert density_to_json(rho) == want

    def test_node_texts_match_per_node_format(self):
        """``_f17s``, which the grid writer and reader take the node texts
        from, equals ``format(x, ".17g")`` per node for every grid from 4 to 516 angles."""
        assert _f17s(np.array([])) == []
        for n_phi in range(4, 517, 2):
            nodes = AngleGrid(n_phi).nodes
            assert _f17s(nodes) == [format(x, ".17g") for x in nodes], n_phi


def _around(x: np.ndarray, ulps: int) -> np.ndarray:
    """Every double within ``ulps`` units in the last place of each of ``x``
    (positive, finite)."""
    bits = x.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits.ravel().view(float)


def _grid_values(kind: str) -> np.ndarray:
    """Every value of the default grids of one kind of state, +-4 to +-32."""
    out = []
    for half in (4, 8, 16, 32):
        w = OamWindow(-half, half)
        psi = {"random": lambda: random_pure_state(w, half),
               "coherent": lambda: coherent_state(1, 0.7, 0.5, w),
               "eigenstate": lambda: oam_eigenstate(1, w)}[kind]()
        out.append(wigner_from_oam(psi, default_pad(w), default_angle_grid(w)).values)
    return np.concatenate([v.ravel() for v in out])


def _rng(seed):
    return np.random.default_rng(seed)


_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
_F17_INPUTS = {
    "normals-1e-30..1e30": lambda: _rng(1).standard_normal(300_000)
    * 10.0 ** _rng(2).uniform(-30, 30, 300_000),
    "uniform-(-1,1)": lambda: _rng(3).uniform(-1.0, 1.0, 200_000),
    "bit-patterns": lambda: _rng(4).integers(0, 2**64, 200_000, np.uint64).view(float),
    "subnormals-and-zeros": lambda: np.concatenate([
        _rng(5).integers(1, 2**52, 20_000, np.int64).view(float)
        * _rng(6).choice([-1.0, 1.0], 20_000),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1e-280, np.nextafter(1e-280, 0.0), 1.0 - 2.0**-53, 1.0, np.inf, -np.inf, np.nan]]),
    "powers-of-ten": lambda: np.concatenate([_around(_POWERS, 3), -_around(_POWERS, 1)]),
    "1e-4/1e-5-edge": lambda: np.concatenate([_around(np.array([1e-4, 1e-5]), 2000),
                                              -_around(np.array([1e-4, 1e-5]), 200)]),
    "random-grids": lambda: _grid_values("random"),
    "coherent-grids": lambda: _grid_values("coherent"),
    "eigenstate-grids": lambda: _grid_values("eigenstate"),
}


class TestF17Bytes:
    """The grid writer's vectorized formatter gives the bytes of ``'%.17g' %``
    on 1.9 million doubles: every group below, with the exact tests for the
    decimal exponent, the rounding and the fallback to Python's own text."""

    @pytest.mark.parametrize("name", list(_F17_INPUTS))
    def test_matches_percent_format(self, name):
        x = _F17_INPUTS[name]()
        assert x.size >= 1000
        table = np.empty((x.size, 33), np.uint8)
        table[:, :32] = _f17_bytes(x)
        table[:, 32] = ord(",")
        got = table.tobytes().translate(None, b"\0").split(b",")[:-1]
        want = [b"%.17g" % v for v in x.tolist()]
        assert len(got) == x.size
        bad = [(v, w, g) for v, w, g in zip(x.tolist(), want, got) if w != g]
        assert bad[:5] == []

    def test_inputs_reach_every_path(self):
        """Among the inputs: over a million doubles, a value whose 17 digits
        round up to the next power of ten (the double nearest 1e-14 lies below
        it), values on both sides of the 1e-4 switch between the two notations,
        and a grid row of exact zeros."""
        inputs = {name: make() for name, make in _F17_INPUTS.items()}
        assert sum(x.size for x in inputs.values()) >= 10**6
        assert Fraction(1e-14) < Fraction(1, 10**14) and b"%.17g" % 1e-14 == b"1e-14"
        texts = {bytes(b).translate(None, b"\0")[:3]
                 for b in _f17_bytes(inputs["1e-4/1e-5-edge"])}
        assert {b"0.0", b"9.9", b"-0.", b"-9."} <= texts
        assert (inputs["eigenstate-grids"] == 0.0).sum() > 10**5

    def test_digit_lanes(self):
        """The SWAR digit split is exact for every 4-digit half."""
        v = np.arange(10**4, dtype=np.uint64)
        for word in (v, v * np.uint64(10**4), v * np.uint64(10**4 + 1)):
            digits = _digits8(word)
            texts = (digits | np.uint64(0x3030303030303030)).astype("<u8").view("S8")
            assert texts.tolist() == [b"%08d" % n for n in word.tolist()]


def _rows_of(values: list, n_phi: int) -> int:
    """Rows of ``n_phi`` cells that hold ``values``: at least 12, so that the
    reader formats every node's text."""
    return max(12, -(-len(values) // n_phi))


def _value_file(path, texts: list[str], n_phi: int = 1000) -> None:
    """A file of the writer's bytes but for its value fields, ``texts`` in
    order (then "0"), on rows from 0 of a window without padding."""
    rows = _rows_of(texts, n_phi)
    nodes = _f17s(AngleGrid(n_phi).nodes)
    texts = texts + ["0"] * (rows * n_phi - len(texts))
    path.write_text(
        f"# format=cylwig-wigner-v1\n# l_lo=0 l_hi={rows - 1} n_phi={n_phi} "
        f"source_l_min=0 source_l_max={rows - 1} pad=0"
        + "".join(f"\n{k // n_phi},{k % n_phi},{nodes[k % n_phi]},{t}"
                  for k, t in enumerate(texts))
        + "\n"
    )


def _decimals(n: int, seed: int) -> list[str]:
    """``n`` random decimals of the shapes the reader parses: ``-?0``,
    ``-?0.0{0,3}[1-9]\\d{0,16}`` and ``-?[1-9](.\\d{1,16})?e-\\d{2,3}`` down to
    ``e-281``, trailing zeros and short exponents included."""
    rng = _rng(seed)
    sign = np.where(rng.random(n) < 0.5, "-", "").tolist()
    form = rng.choice(3, n, p=[0.45, 0.5, 0.05]).tolist()
    zeros = rng.integers(0, 4, n).tolist()
    lead = rng.integers(1, 10, n).tolist()
    count = rng.integers(0, 17, n).tolist()
    digits = ["%016d" % d for d in rng.integers(0, 10**16, n).tolist()]
    exp = rng.integers(0, 282, n).tolist()
    wide = (rng.random(n) < 0.3).tolist()
    out = []
    for s, f, z, d, k, more, e, w in zip(sign, form, zeros, lead, count, digits, exp, wide):
        if f == 0:
            out.append(f"{s}0.{'0' * z}{d}{more[:k]}")
        elif f == 1:
            frac = f".{more[:k]}" if k else ""
            out.append(f"{s}{d}{frac}e-{e:03d}" if w or e > 99 else f"{s}{d}{frac}e-{e:02d}")
        else:
            out.append(f"{s}0")
    return out


def _near_ties(n: int, seed: int) -> list[str]:
    """The 17-digit decimals nearest the midpoints between ``n`` random
    doubles of the fast range and their successors, with their neighbours
    one unit of the last digit away, as ``d.ddde-XX``."""
    x = 10.0 ** _rng(seed).uniform(-280, 0, n)
    out = []
    with localcontext() as ctx:
        ctx.prec = 17
        for a, b in zip(x.tolist(), np.nextafter(x, 1.0).tolist()):
            mid = (Decimal(a) + Decimal(b)).fma(Decimal("0.5"), 0)  # rounded once
            sign, digits, exp = mid.as_tuple()
            for step in (-1, 0, 1):
                text = str(int("".join(map(str, digits))) + step)
                k = len(text) - 1 + exp  # decimal exponent of the first digit
                out.append(f"{text[0]}.{text[1:]}e-{-k:02d}")
    return out


class TestF17Parse:
    """The reader of ``write_wigner``'s own bytes gives each value the bits
    ``float()`` gives its text: on every fast-range double and zero of the
    formatter's inputs (1.59 million), as written grids, and on 300,000
    hand-made decimals of the shapes it parses."""

    @pytest.mark.parametrize("name", list(_F17_INPUTS))
    def test_written_values(self, tmp_path, no_loadtxt, name):
        x = _F17_INPUTS[name]()
        x = x[((np.abs(x) >= 1e-280) & (np.abs(x) < 1.0)) | (x == 0.0)]
        assert x.size > 0
        n_phi = 1000
        values = np.zeros(_rows_of(x, n_phi) * n_phi)
        values[: x.size] = x
        rows = values.size // n_phi
        W = WignerGrid(0, rows - 1, AngleGrid(n_phi), values.reshape(rows, n_phi),
                       OamWindow(0, rows - 1), 0)
        write_wigner(W, tmp_path / "grid.csv")
        back = read_wigner(tmp_path / "grid.csv")
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    def test_hand_made_decimals(self, tmp_path, no_loadtxt):
        texts = _decimals(300_000, 29)
        _value_file(tmp_path / "grid.csv", texts)
        got = read_wigner(tmp_path / "grid.csv").values.ravel()[: len(texts)]
        want = np.array([float(t) for t in texts])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_near_ties(self, tmp_path, no_loadtxt):
        """Decimals within about a twentieth of a gap of a midpoint lie
        outside the tie guard: they read without loadtxt, to ``float()``."""
        texts = _near_ties(20_000, 30)
        _value_file(tmp_path / "grid.csv", texts)
        got = read_wigner(tmp_path / "grid.csv").values.ravel()[: len(texts)]
        want = np.array([float(t) for t in texts])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_ties_refused(self):
        """Integers are exact decimals: between 2**55 and 2**57 the doubles
        are 8 and 16 apart, so 2**56 - 4 (below a power of two, where the gap
        is half the gap above), 2**56 + 8 and 2**56 + 24 are ties, which the
        guard refuses; their neighbours round as ``float()`` rounds them."""
        base = 2**56
        for offsets, refused in (([-4], True), ([8], True), ([24], True),
                                 ([-5, -3, 7, 9, 23, 25], False)):
            digits = np.array([base + k for k in offsets], np.int64)
            out = np.zeros(digits.size)
            ok = _f17_round(digits, np.zeros(digits.size, np.intp),
                            np.zeros(digits.size, bool), out)
            assert ok is not refused, offsets
            if ok:
                assert out.tolist() == [float(d) for d in digits.tolist()]

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import iv

from cylwig import AngleGrid, bessel_i0, theta3

TWO_PI = 2 * np.pi


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


class TestTheta3:
    def test_zero_nome(self):
        for z in (0.0, 0.3, np.pi / 2, 2.0):
            assert theta3(z, 0.0) == 1.0

    def test_small_nome_partial_sum(self):
        q = 0.1
        # oracle: 1 + 2q + 2q^4 + 2q^9 (+ 2q^16 below threshold shown anyway)
        want = 1 + 2 * q + 2 * q**4 + 2 * q**9 + 2 * q**16
        assert_allclose(theta3(0.0, q), want, rtol=0, atol=1e-15)

    def test_alternating_partial_sum(self):
        q = 0.1
        want = 1 - 2 * q + 2 * q**4 - 2 * q**9 + 2 * q**16
        assert_allclose(theta3(np.pi / 2, q), want, rtol=0, atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            theta3(0.0, 1.0)
        with pytest.raises(ValueError):
            theta3(0.0, -0.2)

    def test_monotone_in_nome(self):
        vals = [theta3(0.0, q) for q in np.arange(0.0, 0.95, 0.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_series_oracle(self):
        # 20-term power series evaluated independently
        x = 2.0
        want = sum((x / 2) ** (2 * m) / math.factorial(m) ** 2 for m in range(20))
        assert_allclose(bessel_i0(x), want, rtol=1e-15)

    def test_against_scipy(self):
        for x in (0.5, 1.0, 2.0, 5.0, 8.0):
            assert_allclose(bessel_i0(x), iv(0, x), rtol=1e-14)

    def test_domain_error(self):
        for x in (-0.1, np.nan):
            with pytest.raises(ValueError):
                bessel_i0(x)

    def test_overflow_returns_inf(self):
        # I0 exceeds the largest float past x ~ 713; the series stops there
        for x in (800.0, np.inf):
            assert bessel_i0(x) == np.inf
        assert bessel_i0(700.0) == 1.5295933476718767e302

    def test_monotone(self):
        vals = [bessel_i0(x) for x in np.arange(0.0, 8.5, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_parseval_identity(self):
        # I_0(2 kappa) = sum_l I_l(kappa)^2 with I_l from DFT projection
        kappa = 1.0
        grid = AngleGrid(512)
        raw = np.exp(kappa * np.cos(grid.nodes))
        ls = np.arange(-40, 41)
        proj = np.real(np.exp(-1j * ls[:, None] * grid.nodes[None, :]) @ raw) / 512
        assert abs(np.sum(proj**2) - bessel_i0(2 * kappa)) < 1e-10

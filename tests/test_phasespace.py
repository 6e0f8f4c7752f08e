import io
import json
import os
import re
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cylwig import (
    AngleGrid,
    BandLimitError,
    DensityMatrix,
    MemoryBudgetError,
    OamWindow,
    PureState,
    RealnessError,
    ReconstructionError,
    angle_marginal_tail,
    angle_wavefunction,
    coherent_state,
    default_angle_grid,
    default_pad,
    displace,
    kernel_matrix,
    marginal_angle,
    marginal_oam,
    mix,
    oam_eigenstate,
    overlap,
    random_pure_state,
    read_wigner,
    reconstruct_density,
    star_product,
    to_density,
    von_mises_state,
    wigner_from_angle,
    wigner_from_oam,
    write_wigner,
)
from cylwig import errors, phasespace
from cylwig.phasespace import WignerGrid, wigner_to_csv

TWO_PI = 2 * np.pi


def plus_state(window=OamWindow(-2, 2)):
    c = (oam_eigenstate(0, window).coefficients
         + oam_eigenstate(1, window).coefficients) / np.sqrt(2)
    return PureState(window, c)


def delta_target(W, l0):
    want = np.zeros_like(W.values)
    want[W.row_index(l0)] = 1.0 / TWO_PI
    return want


def kappa(m, n, l):
    """Weight of rho_mn in row l, straight from the module-docstring formula."""
    if (m + n) % 2 == 0:
        return 1.0 / TWO_PI if m + n == 2 * l else 0.0
    j = (m + n - 1) // 2 - l
    return (-1.0) ** j / (j + 0.5) / (2 * np.pi**2)


class TestBruteForceOracle:
    """The forward map, the point kernel and the tail against element-by-element
    loops over (m, n, l)."""

    @pytest.mark.parametrize("pad", [0, 1, 8])
    @pytest.mark.parametrize("kind", ["pure", "mixture"])
    def test_map_kernel_and_tail(self, kind, pad):
        w = OamWindow(-3, 3)
        if kind == "pure":
            rho = to_density(random_pure_state(w, 21))
        else:
            rho = mix([(0.35, random_pure_state(w, 22)), (0.65, random_pure_state(w, 23))])
        grid = default_angle_grid(w)
        phis = grid.nodes
        W = wigner_from_oam(rho, pad, grid)
        vals = w.values()
        want = np.zeros(W.values.shape, dtype=complex)
        # all rows hold 1/2pi of the weight of every element in total:
        # sum_j (-1)^j / (j + 1/2) = pi over all integers j
        tail = np.zeros(grid.n_phi, dtype=complex)
        for a, m in enumerate(vals):
            for b, n in enumerate(vals):
                term = rho.elements[a, b] * np.exp(1j * (m - n) * phis)
                stored = 0.0
                for r, l in enumerate(W.rows()):
                    want[r] += kappa(m, n, l) * term
                    stored += kappa(m, n, l)
                tail += (1.0 / TWO_PI - stored) * term
        assert np.max(np.abs(W.values - want.real)) <= 1e-14
        assert np.max(np.abs(angle_marginal_tail(rho, W) - tail.real)) <= 1e-14
        for l in (W.l_lo, -1, 0, 2, W.l_hi + 3):
            for phi in (0.0, 0.7, -2.9):
                K = kernel_matrix(l, phi, w)
                want_K = np.array([[kappa(m, n, l) * np.exp(-1j * (m - n) * phi)
                                    for n in vals] for m in vals])
                assert np.max(np.abs(K - want_K)) <= 1e-14


def reference_kernel(w, rows):
    """The row kernel ``G[l, t]`` built with ``np.where`` over the whole table."""
    t = np.arange(2 * w.l_min, 2 * w.l_max + 1)
    l = rows[:, None]
    j = (t - 1) // 2 - l
    odd = (-1.0) ** j / (j + 0.5) / (2 * np.pi**2)
    return np.where(t % 2 != 0, odd, np.where(t == 2 * l, 1.0 / TWO_PI, 0.0))


def exact_harmonics(ds, n_phi):
    """``E[d, j] = e^{i d phi_j}`` on the nodes ``phi_j = -pi + 2pi j/n_phi``,
    from the exact argument ``(-1)^d e^{2pi i ((d j) mod n_phi)/n_phi}``: the
    product ``d phi_j`` of a rounded node would carry an error growing with
    ``d``."""
    j = np.arange(n_phi)
    sign = 1.0 - 2.0 * (ds[:, None] & 1)
    return sign * np.exp(2j * np.pi * ((ds[:, None] * j) % n_phi) / n_phi)


def complex_reference(rho, W):
    """The complex product ``G @ R @ E`` over every column of the row kernel,
    and the tail it implies; the map under test keeps only the real part,
    with one GEMM over the odd columns and a scatter for the even ones."""
    w = rho.window
    t = np.arange(2 * w.l_min, 2 * w.l_max + 1)
    G = reference_kernel(w, W.rows())
    R = np.zeros((len(t), len(t)), dtype=complex)
    for a, m in enumerate(w.values()):
        for b, n in enumerate(w.values()):
            R[m + n - 2 * w.l_min, m - n + w.span] = rho.elements[a, b]
    E = exact_harmonics(np.arange(-w.span, w.span + 1), W.grid.n_phi)
    return G @ R @ E, (1.0 / TWO_PI - G.sum(axis=0)) @ R @ E


class TestRealFirstMap:
    """The real, parity-split map against the complex ``G @ R @ E``."""

    @pytest.mark.parametrize("half", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize(
        "kind", ["pure", "mixture", "displaced_eigenstate", "anti_hermitian_part"])
    def test_matches_complex_product(self, kind, half):
        """The map folds harmonic ``-d`` onto ``d``; the reference keeps both.
        A density may carry an anti-Hermitian part below the 1e-12 check,
        which doubling one triangle instead of folding would misplace."""
        w = OamWindow(-half, half)
        if kind == "pure":
            rho = to_density(random_pure_state(w, 40 + half))
        elif kind == "mixture":
            rho = mix([(0.4, random_pure_state(w, 41)), (0.6, random_pure_state(w, 42))])
        elif kind == "anti_hermitian_part":
            rng = np.random.default_rng(half)
            Z = rng.standard_normal((w.size, w.size)) + 1j * rng.standard_normal((w.size, w.size))
            skew = 0.25e-13 * (Z - Z.conj().T)
            skew -= np.diag(np.diag(skew))  # keep the trace at 1 exactly
            rho = DensityMatrix(w, to_density(random_pure_state(w, 45)).elements + skew)
            assert np.max(np.abs(rho.elements - rho.elements.conj().T)) > 1e-13
        else:
            inner = OamWindow(-half + 2, half - 2)
            rho = to_density(displace(oam_eigenstate(1, inner), 2, 0.7))
        W = wigner_from_oam(rho, default_pad(w), default_angle_grid(w))
        values, tail = complex_reference(rho, W)
        assert np.max(np.abs(W.values - values.real)) <= 1e-15
        assert np.max(np.abs(angle_marginal_tail(rho, W) - tail.real)) <= 1e-15

    @pytest.mark.parametrize("half", [4, 16])
    def test_imaginary_grid_of_a_product(self, half):
        """The imaginary grid that ``star_product`` checks for realness is
        the map of ``-i`` times the product: for a non-Hermitian operator it
        is the imaginary part of the complex product."""
        from cylwig import phasespace

        w = OamWindow(-half, half)
        rho, sigma = (to_density(random_pure_state(w, s)) for s in (43, 44))
        A = rho.elements @ sigma.elements
        W = wigner_from_oam(rho, default_pad(w), default_angle_grid(w))
        values, _ = complex_reference(SimpleNamespace(window=w, elements=A), W)
        assert np.max(np.abs(values.imag)) > 1e-3
        for B, want in ((A, values.real), (-1j * A, values.imag)):
            got = phasespace._wigner_of_operator(B, w, W.l_lo, W.l_hi, W.grid)
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("l_min, l_max, lo, hi", [
        (-4, 4, -36, 36), (-3, 7, 5, 5), (-3, 7, 40, 40), (0, 0, -2, 2), (2, 9, -300, -290)])
    def test_row_kernel_bit_identical(self, l_min, l_max, lo, hi):
        """The Toeplitz layout of the Cauchy block gives the whole-table
        formula's bits in its odd columns, also for rows that do not cover
        the window (the point kernel's single row)."""
        from cylwig import phasespace

        w, rows = OamWindow(l_min, l_max), np.arange(lo, hi + 1)
        K = phasespace._row_kernel(w, rows)
        want = reference_kernel(w, rows)[:, 1::2]
        assert np.array_equal(K.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("half", [4, 16])
    @pytest.mark.parametrize("ld, phid", [(0, 0.0), (2, 0.7), (-3, -2.1), (1, 3.0)])
    def test_eigenstate_grids_exact(self, half, ld, phid):
        """Only the scatter writes the one stored row, exactly ``rho_ll/2pi``
        (``1/2pi`` where the population rounds to 1, as for every
        eigenstate); every other cell is ``+0.0``, never ``-0.0``."""
        inner = OamWindow(-half + 3, half - 3)
        for l0 in (-1, 0, 1):
            psi = displace(oam_eigenstate(l0, inner), ld, phid)
            rho = to_density(psi)
            W = wigner_from_oam(rho, default_pad(psi.window), default_angle_grid(psi.window))
            row = W.row_index(l0 + ld)
            population = rho.population(l0 + ld)
            assert np.all(W.values[row] == (1.0 / TWO_PI) * population)
            assert np.all(np.delete(W.values, row, axis=0) == 0.0)
            assert not np.signbit(W.values).any()
            if ld == 0:
                assert population == 1.0 and np.all(W.values[row] == 1.0 / TWO_PI)


class TestMemoryBudget:
    """Forward maps and the grid reader refuse a request over the budget
    before allocating; a missing guard would ask numpy for terabytes here and
    fail at once."""

    def test_reader_before_parsing(self, tmp_path, monkeypatch):
        """The reader's grid and node texts, 16 bytes per cell, are checked
        once the header is read: over the budget, a file whose first row is
        malformed is refused for its size, not for that row."""
        W, lines = _small_csv_lines()
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines[:2] + ["0,3,0.5"] + lines[2:]) + "\n")
        need = 16 * W.values.size
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        with pytest.raises(MemoryBudgetError, match="^wigner grid needs about .* budget$"):
            read_wigner(path)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        with pytest.raises(ValueError, match="^malformed wigner CSV data row 1: expected 4"):
            read_wigner(path)

    def test_oam_path(self):
        w = OamWindow(-4, 4)
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            wigner_from_oam(to_density(random_pure_state(w, 1)), 10**12,
                            default_angle_grid(w))

    def test_angle_path(self):
        w = OamWindow(-4, 4)
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            wigner_from_angle(random_pure_state(w, 1), 10**12, default_angle_grid(w))

    @pytest.mark.parametrize("path", ["oam", "angle"])
    @pytest.mark.parametrize(
        "half, pad, n_phi",
        [(4, 2000, 36), (16, 1, 4096), (32, 0, 2048), (32, 512, 260), (64, 0, 2064)],
    )
    def test_estimate_bounds_peak(self, monkeypatch, path, half, pad, n_phi):
        """The one estimate both maps share is never below what the map
        allocates (tracemalloc peak) and at most four times it, from a large
        pad to pad 0 over a fine grid, where the per-angle tables dominate."""
        # on smaller grids, fixed interpreter allocations weigh on the peak
        assert (2 * half + 1 + 2 * pad) * n_phi >= 10**5
        w = OamWindow(-half, half)
        psi = random_pure_state(w, 1)
        rho = to_density(psi)
        grid = AngleGrid(n_phi)

        def call():
            if path == "oam":
                return wigner_from_oam(rho, pad, grid)
            return wigner_from_angle(psi, pad, grid)

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryBudgetError, match="GiB memory budget"):
            call()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 * peak)
        assert call().values.shape == (w.size + 2 * pad, n_phi)


class TestKernel:
    def test_delta_trace(self):
        w = OamWindow(-4, 4)
        rho = to_density(oam_eigenstate(1, w))
        for l in (-5, -1, 0, 1, 2, 6):
            for phi in (0.0, 0.8, -2.0):
                K = kernel_matrix(l, phi, w)
                got = np.trace(rho.elements @ K).real
                want = 1.0 / TWO_PI if l == 1 else 0.0
                assert abs(got - want) < 1e-14

    def test_even_part_structure(self):
        # diagonal elements <m|w|m> vanish unless m = l
        w = OamWindow(-4, 4)
        K = kernel_matrix(2, 0.4, w)
        assert K.dtype == complex and not K.flags.writeable
        for i, m in enumerate(w.values()):
            want = 1.0 / TWO_PI if m == 2 else 0.0
            assert abs(K[i, i] - want) < 1e-15

    def test_hermitian_random_points(self):
        rng = np.random.default_rng(0)
        w = OamWindow(-5, 5)
        for _ in range(20):
            l = int(rng.integers(-8, 9))
            phi = float(rng.uniform(-np.pi, np.pi))
            K = kernel_matrix(l, phi, w)
            assert np.max(np.abs(K - K.conj().T)) <= 1e-12

    def test_displacement_covariance(self):
        # w(l, phi) = D(l, phi) w(0, 0) D(l, phi)^dagger on the interior
        w = OamWindow(-7, 7)
        ld, phid = 2, 0.9
        K0 = kernel_matrix(0, 0.0, w)
        Kd = kernel_matrix(ld, phid, w)
        vals = w.values()
        D = np.zeros((w.size, w.size), dtype=complex)
        for i, m in enumerate(vals):
            if m + ld in w:
                D[w.index(m + ld), i] = np.exp(-1j * (ld * phid / 2 + phid * m))
        conj = D @ K0 @ D.conj().T
        inner = slice(w.index(-4), w.index(4) + 1)
        assert np.max(np.abs(Kd[inner, inner] - conj[inner, inner])) < 1e-12


class TestForwardMaps:
    @pytest.mark.parametrize("l0", [-3, 0, 2])
    def test_delta_law_both_paths(self, l0):
        w = OamWindow(-4, 4)
        grid = AngleGrid(36)
        psi = oam_eigenstate(l0, w)
        Wo = wigner_from_oam(to_density(psi), 8, grid)
        Wa = wigner_from_angle(psi, 8, grid)
        assert np.max(np.abs(Wo.values - delta_target(Wo, l0))) == 0.0
        assert np.max(np.abs(Wa.values - delta_target(Wa, l0))) < 1e-12

    @pytest.mark.parametrize(
        "half, seed",
        [(4, seed) for seed in range(10)] + [(32, 0), (64, 0)],
        ids=[str(seed) for seed in range(10)] + ["-32:32", "-64:64"],
    )
    def test_two_path_agreement(self, half, seed):
        w = OamWindow(-half, half)
        psi = random_pure_state(w, seed)
        grid = default_angle_grid(w)
        pad = default_pad(w)
        Wa = wigner_from_angle(psi, pad, grid)
        Wo = wigner_from_oam(to_density(psi), pad, grid)
        assert np.max(np.abs(Wa.values - Wo.values)) < 1e-13

    @pytest.mark.parametrize("half", [4, 16])
    @pytest.mark.parametrize("kind", ["eigen", "coherent", "vonmises", "random"])
    def test_pure_state_maps_as_its_outer_product(self, kind, half):
        """A pure state maps bit for bit as the density ``c c^*`` of its
        coefficients, the operator that ``to_density`` builds."""
        w = OamWindow(-half, half)
        psi = {
            "eigen": lambda: oam_eigenstate(2, w),
            "coherent": lambda: coherent_state(1, 0.4, 0.7, w),
            "vonmises": lambda: von_mises_state(0.2, w),
            "random": lambda: random_pure_state(w, 5),
        }[kind]()
        c = psi.coefficients
        grid, pad = default_angle_grid(w), default_pad(w)
        by_state = wigner_from_oam(psi, pad, grid)
        by_density = wigner_from_oam(DensityMatrix(w, np.outer(c, c.conj())), pad, grid)
        assert np.array_equal(by_state.values.view(np.uint64),
                              by_density.values.view(np.uint64))
        assert by_state.source_window == w and by_state.pad == pad

    def test_row_bounds_are_python_ints(self):
        w = OamWindow(-3, 4)
        psi = random_pure_state(w, 2)
        grid = default_angle_grid(w)
        for W in (wigner_from_oam(to_density(psi), 5, grid),
                  wigner_from_angle(psi, 5, grid)):
            assert type(W.l_lo) is int and type(W.l_hi) is int
            assert (W.l_lo, W.l_hi) == (-8, 9)
            assert json.dumps({"l_lo": W.l_lo, "l_hi": W.l_hi}) == '{"l_lo": -8, "l_hi": 9}'

    def test_plus_state_closed_form(self):
        # derived by hand from the double sum: W(0, phi) = 1/(4 pi) + cos(phi)/pi^2
        psi = plus_state()
        grid = AngleGrid(36)
        W = wigner_from_oam(to_density(psi), 8, grid)
        want = 1.0 / (4 * np.pi) + np.cos(grid.nodes) / np.pi**2
        assert_allclose(W.row(0), want, atol=1e-14)
        assert W.values.min() < 0

    def test_mixture_of_deltas(self):
        w = OamWindow(-2, 2)
        rho = mix([(0.5, oam_eigenstate(0, w)), (0.5, oam_eigenstate(1, w))])
        W = wigner_from_oam(rho, 6, AngleGrid(24))
        want = np.zeros_like(W.values)
        want[W.row_index(0)] = 1.0 / (4 * np.pi)
        want[W.row_index(1)] = 1.0 / (4 * np.pi)
        assert_allclose(W.values, want, atol=1e-15)
        assert W.values.min() >= 0.0

    def test_linearity(self):
        w = OamWindow(-3, 3)
        a_st = random_pure_state(w, 1)
        b_st = random_pure_state(w, 2)
        grid = AngleGrid(32)
        Wa = wigner_from_oam(to_density(a_st), 6, grid)
        Wb = wigner_from_oam(to_density(b_st), 6, grid)
        for a in (0.0, 0.25, 0.5, 1.0):
            if a in (0.0, 1.0):
                rho = to_density(b_st if a == 0.0 else a_st)
            else:
                rho = mix([(a, a_st), (1 - a, b_st)])
            Wmix = wigner_from_oam(rho, 6, grid)
            assert np.max(np.abs(Wmix.values - (a * Wa.values + (1 - a) * Wb.values))) < 1e-12

    def test_coherent_and_von_mises_go_negative(self):
        coh = coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))
        Wc = wigner_from_angle(coh, default_pad(coh.window), default_angle_grid(coh.window))
        assert Wc.values.min() < -1e-6
        vm = von_mises_state(2.0, OamWindow(-12, 12))
        Wv = wigner_from_angle(vm, default_pad(vm.window), default_angle_grid(vm.window))
        assert Wv.values.min() < -1e-6

    def test_band_limit_enforced(self):
        rho = to_density(random_pure_state(OamWindow(-8, 8), 0))
        with pytest.raises(BandLimitError):
            wigner_from_oam(rho, 4, AngleGrid(34))

    def test_displacement_covariance_of_grids(self):
        w = OamWindow(-4, 4)
        psi = random_pure_state(w, 33)
        grid = AngleGrid(36)
        t = 5
        phid = t * grid.spacing  # an exact node: nodes are multiples of spacing
        W0 = wigner_from_oam(to_density(psi), 10, grid)
        Wd = wigner_from_oam(to_density(displace(psi, 2, phid)), 10, grid)
        assert np.max(np.abs(Wd.values - np.roll(W0.values, t, axis=1))) < 1e-10


class TestMarginals:
    def test_eigenstate_marginals(self):
        w = OamWindow(-4, 4)
        W = wigner_from_oam(to_density(oam_eigenstate(1, w)), 8, AngleGrid(36))
        pops = marginal_oam(W)
        want = np.zeros(W.n_rows)
        want[W.row_index(1)] = 1.0
        assert_allclose(pops, want, atol=1e-15)
        assert_allclose(marginal_angle(W), 1.0 / TWO_PI, atol=1e-15)

    def test_coherent_oam_marginal(self):
        w = OamWindow(-8, 8)
        psi = coherent_state(0, 0.0, 1.0, w)
        W = wigner_from_oam(to_density(psi), 32, AngleGrid(64))
        pops = marginal_oam(W)
        ls = np.arange(W.l_lo, W.l_hi + 1).astype(float)
        want = np.where(np.abs(ls) <= 8, np.exp(-(ls**2)), 0.0)
        want /= np.exp(-np.arange(-8, 9) ** 2.0).sum()
        assert np.max(np.abs(pops - want)) < 1e-9

    def test_angle_marginal_with_tail_is_exact(self):
        w = OamWindow(-8, 8)
        psi = coherent_state(0, 0.0, 1.0, w)
        rho = to_density(psi)
        grid = AngleGrid(64)
        W = wigner_from_oam(rho, 32, grid)
        marg = marginal_angle(W)
        tail = angle_marginal_tail(rho, W)
        density = np.abs(angle_wavefunction(psi, grid)) ** 2
        raw_gap = np.max(np.abs(marg - density))
        assert 1e-8 < raw_gap < 1e-3  # the documented O(1/P) tail is visible
        assert np.max(np.abs(marg + tail - density)) < 1e-12

    def test_normalization_exact_for_unit_trace(self):
        w = OamWindow(-6, 6)
        for source in (
            to_density(oam_eigenstate(2, w)),
            to_density(random_pure_state(w, 12)),
            mix([(0.3, random_pure_state(w, 1)), (0.7, random_pure_state(w, 2))]),
        ):
            W = wigner_from_oam(source, 16, AngleGrid(64))
            assert abs(marginal_oam(W).sum() - 1.0) < 1e-12


class TestOverlap:
    def test_delta_purity_fixes_constant(self):
        W = wigner_from_oam(to_density(oam_eigenstate(0, OamWindow(-4, 4))), 8, AngleGrid(36))
        assert abs(overlap(W, W) - 1.0) < 1e-12

    def test_orthogonal_deltas(self):
        w = OamWindow(-4, 4)
        grid = AngleGrid(36)
        W0 = wigner_from_oam(to_density(oam_eigenstate(0, w)), 8, grid)
        W1 = wigner_from_oam(to_density(oam_eigenstate(1, w)), 8, grid)
        assert overlap(W0, W1) == 0.0

    def test_matches_operator_overlap(self):
        w = OamWindow(-8, 8)
        a = coherent_state(0, 0.0, 1.0, w)
        b = coherent_state(2, 1.0, 1.0, w)
        exact = abs(np.vdot(a.coefficients, b.coefficients)) ** 2
        grid = AngleGrid(48)
        Wa = wigner_from_oam(to_density(a), 256, grid)
        Wb = wigner_from_oam(to_density(b), 256, grid)
        assert abs(overlap(Wa, Wb) - exact) < 1e-9

    def test_incompatible_grids(self):
        w = OamWindow(-2, 2)
        Wa = wigner_from_oam(to_density(oam_eigenstate(0, w)), 4, AngleGrid(24))
        Wb = wigner_from_oam(to_density(oam_eigenstate(0, w)), 4, AngleGrid(32))
        with pytest.raises(ValueError):
            overlap(Wa, Wb)


class TestReconstruction:
    def test_delta_grid(self):
        w = OamWindow(-4, 4)
        W = wigner_from_oam(to_density(oam_eigenstate(1, w)), 8, AngleGrid(36))
        res = reconstruct_density(W, w)
        want = to_density(oam_eigenstate(1, w)).elements
        assert np.max(np.abs(res.matrix - want)) < 1e-12
        assert res.status == "ok"

    def test_round_trip_pure_and_mixed(self):
        w = OamWindow(-5, 5)
        grid = AngleGrid(64)
        psi = random_pure_state(w, 42)
        rho2 = mix([(0.6, random_pure_state(w, 1)), (0.4, random_pure_state(w, 2))])
        for pad in (8, 1):  # pad 1 is the minimum margin
            W = wigner_from_oam(to_density(psi), pad, grid)
            res = reconstruct_density(W, w)
            assert np.max(np.abs(res.matrix - to_density(psi).elements)) < 1e-9
            W2 = wigner_from_oam(rho2, pad, grid)
            res2 = reconstruct_density(W2, w)
            assert np.max(np.abs(res2.matrix - rho2.elements)) < 1e-9
            assert res2.to_density().window == w

    @pytest.mark.parametrize("half", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["pure", "mixture"])
    def test_lstsq_is_literal_on_even_harmonics(self, kind, half):
        """An even harmonic's Gram block is exactly ``I/4pi^2``, so least
        squares corrects only the odd harmonics and leaves every even-``d``
        entry, the diagonal (and so the trace) among them, with the literal
        inverse's bits."""
        w = OamWindow(-half, half)
        if kind == "pure":
            rho = to_density(random_pure_state(w, 50 + half))
        else:
            rho = mix([(0.3, random_pure_state(w, 51)), (0.7, random_pure_state(w, 52))])
        W = wigner_from_oam(rho, default_pad(w), default_angle_grid(w))
        lstsq = reconstruct_density(W, w, "lstsq").matrix
        literal = reconstruct_density(W, w, "literal").matrix
        d = np.subtract.outer(np.arange(w.size), np.arange(w.size))
        even = d % 2 == 0
        assert np.array_equal(lstsq[even].view(np.uint64), literal[even].view(np.uint64))
        assert not np.array_equal(lstsq[~even], literal[~even])

    @pytest.mark.parametrize("method", ["lstsq", "literal"])
    @pytest.mark.parametrize("kind, pad", [("pure", None), ("mixture", None),
                                           ("noisy", 1), ("noisy", None)])
    def test_inverse_is_hermitian_as_built(self, kind, pad, method):
        """``_inverse`` writes element ``(m, n)`` as the conjugate of ``(n, m)``
        and takes the diagonal from the DC bin of a real FFT, whose imaginary
        part is exactly 0, so Hermitizing its output changes no bit, even off
        the range of the map."""
        w = OamWindow(-5, 5)
        grid = default_angle_grid(w)
        pad = default_pad(w) if pad is None else pad
        if kind == "mixture":
            rho = mix([(0.3, random_pure_state(w, 61)), (0.7, random_pure_state(w, 62))])
        else:
            rho = to_density(random_pure_state(w, 60))
        W = wigner_from_oam(rho, pad, grid)
        if kind == "noisy":
            noise = 1e-3 * np.random.default_rng(pad).standard_normal(W.values.shape)
            W = WignerGrid(W.l_lo, W.l_hi, grid, W.values + noise, w, pad)
        raw = phasespace._inverse(W, w, method)
        assert np.array_equal(raw, raw.conj().T)
        herm = 0.5 * (raw + raw.conj().T)
        assert np.array_equal(herm.view(np.uint64), raw.view(np.uint64))

    @pytest.mark.parametrize("span", [*range(65), 256, 1024])
    def test_kernel_well_conditioned_at_one_row_margin(self, span):
        """``_inverse`` solves the odd harmonics with no rank guard.  The
        Cauchy block ``K`` depends on the window and the stored rows, never
        on the grid's values, and rows beyond the smallest margin
        ``_inverse`` accepts, one on each side, only add positive terms to
        ``K^T K``.  At that margin every singular value of ``K`` lies in
        ``(0.4, 1]/2pi`` and every pivot of the centre-out QR that
        ``_inverse`` factors lies above 0.9 of the largest."""
        w = OamWindow(0, span)
        K = phasespace._row_kernel(w, np.arange(w.l_min - 1, w.l_max + 2))
        assert K.shape == (span + 3, span)
        if not span:  # no odd harmonic to solve
            return
        sigma = np.linalg.svd(K, compute_uv=False)
        assert TWO_PI * sigma.min() > 0.4
        assert TWO_PI * sigma.max() <= 1 + 1e-12
        order = np.argsort(np.abs(2 * np.arange(span) + 1 - span), kind="stable")
        pivots = np.abs(np.linalg.qr(K[:, order], mode="r").diagonal())
        assert pivots.min() > 0.9 * pivots.max()

    @pytest.mark.parametrize("pad", [1, 4])
    @pytest.mark.parametrize(
        "bounds", [(-2, 2), (-3, 3), (-2, 1), (-3, 2), (0, 0), (0, 1)],
        ids=lambda b: str(b[1]) if b[0] == -b[1] != 0 else f"{b[0]}:{b[1]}",
    )
    def test_minimiser_on_inconsistent_data(self, bounds, pad):
        """Off the range of the map, ``lstsq`` is the dense least-squares fit
        over all kernel matrices and ``literal`` the Riemann sum of the point
        operators, each Hermitized and trace-normalized.  The Cauchy block has
        two centre columns at an even span and one at an odd span; span 0 has
        no odd harmonic."""
        w = OamWindow(*bounds)
        grid = default_angle_grid(w)
        W0 = wigner_from_oam(to_density(random_pure_state(w, 30 + w.l_max)), pad, grid)
        noise = 1e-3 * np.random.default_rng(pad).standard_normal(W0.values.shape)
        W = WignerGrid(W0.l_lo, W0.l_hi, grid, W0.values + noise, w, pad)
        kernels = [kernel_matrix(l, phi, w)
                   for l in W.rows() for phi in grid.nodes]
        # Tr[rho K] = sum_mn rho_mn K_nm
        design = np.array([K.T.ravel() for K in kernels])
        dense = np.linalg.lstsq(design, W.values.ravel(), rcond=None)[0]
        riemann = TWO_PI * grid.spacing * np.einsum("kmn,k->mn", kernels, W.values.ravel())

        def normalized(X):
            herm = 0.5 * (X + X.conj().T)
            return herm / np.trace(herm).real

        want = {"lstsq": normalized(dense.reshape(w.size, w.size)),
                "literal": normalized(riemann)}
        for method, target in want.items():
            got = reconstruct_density(W, w, method=method).matrix
            assert np.max(np.abs(got - target)) <= 1e-12, method

    def test_literal_method_converges_first_order(self):
        w = OamWindow(-3, 3)
        psi = random_pure_state(w, 3)
        grid = AngleGrid(28)
        errs = []
        for pad in (8, 16, 32, 64):
            W = wigner_from_oam(to_density(psi), pad, grid)
            res = reconstruct_density(W, w, method="literal")
            errs.append(np.max(np.abs(res.matrix - to_density(psi).elements)))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[0] / errs[-1] > 4  # roughly 1/P over three doublings

    def test_literal_method_warns_at_small_pad(self):
        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, 5)), 4, AngleGrid(28))
        res = reconstruct_density(W, w, method="literal")
        assert res.status == "warning"
        assert res.residual > 1e-6

    def test_preconditions(self):
        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, 5)), 0, AngleGrid(28))
        with pytest.raises(ReconstructionError):
            reconstruct_density(W, w)  # no padding rows
        W2 = wigner_from_oam(to_density(random_pure_state(w, 5)), 4, AngleGrid(28))
        with pytest.raises(ReconstructionError):
            reconstruct_density(W2, OamWindow(-13, 13))  # n_phi too small


class TestStarProduct:
    def test_projector_idempotency_delta(self):
        W = wigner_from_oam(to_density(oam_eigenstate(2, OamWindow(-4, 4))), 8, AngleGrid(36))
        st = star_product(W, W, method="operator")
        assert np.max(np.abs(st.values - W.values)) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_projector_idempotency_random(self, seed):
        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, seed)), 16, AngleGrid(28))
        st = star_product(W, W, method="operator")
        assert np.max(np.abs(st.values - W.values)) < 1e-10

    def test_orthogonal_star_has_zero_mass(self):
        w = OamWindow(-4, 4)
        grid = AngleGrid(36)
        W0 = wigner_from_oam(to_density(oam_eigenstate(0, w)), 8, grid)
        W1 = wigner_from_oam(to_density(oam_eigenstate(1, w)), 8, grid)
        st = star_product(W0, W1, method="operator")
        assert abs(marginal_oam(st).sum()) < 1e-12

    def test_direct_requires_padding(self):
        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, 1)), 0, AngleGrid(28))
        with pytest.raises(ReconstructionError, match=r"\(margin 0\)$"):
            star_product(W, W, method="direct")

    def test_direct_approaches_operator(self):
        w = OamWindow(-3, 3)
        psi = random_pure_state(w, 5)
        grid = default_angle_grid(w)
        devs = []
        for pad in (16, 32, 64):
            W = wigner_from_oam(to_density(psi), pad, grid)
            op = star_product(W, W, method="operator")
            dr = star_product(W, W, method="direct")
            devs.append(np.max(np.abs(op.values - dr.values)))
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("method", ["operator", "direct"])
    def test_complex_product_raises(self, method):
        """rho sigma of two different pure states is not Hermitian, so its
        Wigner function is complex and cannot be stored on a real grid."""
        w = OamWindow(-3, 3)
        grid = default_angle_grid(w)
        Wa = wigner_from_oam(to_density(random_pure_state(w, 1)), 8, grid)
        Wb = wigner_from_oam(to_density(random_pure_state(w, 2)), 8, grid)
        with pytest.raises(RealnessError) as exc:
            star_product(Wa, Wb, method=method)
        assert re.fullmatch(r"star product has imaginary part \d\.\d{3}e-0\d > 1e-11",
                            str(exc.value))

    def test_self_star_consistency_at_origin(self):
        # the pure-state self-star of |0> returns exactly 1/(2 pi) at (0, 0)
        w = OamWindow(-4, 4)
        W = wigner_from_oam(to_density(oam_eigenstate(0, w)), 8, AngleGrid(36))
        st = star_product(W, W, method="operator")
        j0 = int(np.argmin(np.abs(st.grid.nodes)))
        assert abs(st.row(0)[j0] - 1.0 / TWO_PI) < 1e-12

    @pytest.mark.parametrize("method", ["operator", "direct"])
    def test_self_star_reconstructs_once(self, monkeypatch, method):
        from cylwig import phasespace

        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, 4)), 8, AngleGrid(28))
        twin = WignerGrid(W.l_lo, W.l_hi, W.grid, W.values, W.source_window, W.pad)
        two_reads = star_product(W, twin, method=method)  # one recovery each
        calls = []
        recover = phasespace._inverse

        def counted(*args, **kwargs):
            calls.append(args[0])
            return recover(*args, **kwargs)

        monkeypatch.setattr(phasespace, "_inverse", counted)
        st = star_product(W, W, method=method)
        assert calls == [W]
        assert np.array_equal(st.values.view(np.uint64),
                              two_reads.values.view(np.uint64))

    @pytest.mark.parametrize("method", ["operator", "direct"])
    @pytest.mark.parametrize("pair", ["self", "twin"])
    def test_maps_forward_once(self, monkeypatch, method, pair):
        """The operands are recovered without a residual: the only forward
        map of a star product is the one of its ``(rho sigma, -i rho sigma)``
        stack."""
        from cylwig import phasespace

        w = OamWindow(-3, 3)
        grid = AngleGrid(28)
        W = wigner_from_oam(to_density(random_pure_state(w, 4)), 8, grid)
        other = W if pair == "self" else WignerGrid(
            W.l_lo, W.l_hi, grid, W.values, W.source_window, W.pad
        )
        calls = []
        forward = phasespace._wigner_of_operator

        def counted(A, *args):
            calls.append(A.shape)
            return forward(A, *args)

        monkeypatch.setattr(phasespace, "_wigner_of_operator", counted)
        star_product(W, other, method=method)
        assert calls == [(2, w.size, w.size)]


def _grid(bounds=(-2, 2), pad=2, n_phi=20, values=None):
    """The map of a random state on ``bounds``, or a grid on its rows that
    holds ``values`` (an array or a fill value)."""
    w = OamWindow(*bounds)
    W = wigner_from_oam(random_pure_state(w, 2), pad, AngleGrid(n_phi))
    if values is None:
        return W
    values = np.broadcast_to(values, W.values.shape)
    return WignerGrid(W.l_lo, W.l_hi, W.grid, values, w, pad)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: wigner_from_oam(plus_state(), -1, AngleGrid(20)),
                 ValueError, "l_pad must be >= 0, got -1", id="oam-pad"),
    pytest.param(lambda: wigner_from_angle(plus_state(), -1, AngleGrid(20)),
                 ValueError, "l_pad must be >= 0, got -1", id="angle-pad"),
    pytest.param(lambda: WignerGrid(-4, 4, AngleGrid(20), np.zeros((9, 18)),
                                    OamWindow(-2, 2), 2),
                 ValueError, "expected shape (9, 20), got (9, 18)", id="grid-shape"),
    pytest.param(lambda: _grid().row_index(5), ValueError, "row l=5 outside [-4, 4]",
                 id="row-index"),
    pytest.param(lambda: angle_marginal_tail(to_density(plus_state(OamWindow(-5, 5))),
                                             _grid()),
                 ValueError, "stored rows must cover the source window", id="tail-rows"),
    pytest.param(lambda: reconstruct_density(_grid(), OamWindow(-2, 2), method="bogus"),
                 ValueError, "unknown reconstruction method 'bogus'", id="recon-method"),
    pytest.param(lambda: reconstruct_density(_grid(values=0.0), OamWindow(-2, 2)),
                 ReconstructionError, "recovered operator has near-zero trace 0.0",
                 id="recon-zero-trace"),
    pytest.param(lambda: star_product(_grid(), _grid(), method="bogus"),
                 ValueError, "unknown star method 'bogus'", id="star-method"),
    pytest.param(lambda: star_product(_grid(), _grid(n_phi=24)),
                 ValueError, "incompatible angle grids: 20 vs 24", id="star-n-phi"),
])
def test_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_overlap_of_disjoint_rows_is_zero():
    a = _grid((0, 0), 0, 4)
    b = WignerGrid(3, 3, a.grid, a.values, OamWindow(3, 3), 0)
    assert a.values.any() and overlap(a, b) == 0.0


def _small_csv_lines() -> tuple[WignerGrid, list[str]]:
    """A +-2 grid at pad 4 on 24 nodes and its CSV lines (two header lines)."""
    rho = to_density(random_pure_state(OamWindow(-2, 2), 9))
    W = wigner_from_oam(rho, 4, AngleGrid(24))
    return W, wigner_to_csv(W).splitlines()


def _feed(fifo, text: str) -> None:
    """Write ``text`` into the FIFO ``fifo`` for a reader that may close it
    before reading all of it."""
    try:
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)
    except BrokenPipeError:
        pass


def _edit_row(lines: list[str], l: int, j: int, field: int, text: str) -> list[str]:
    """Copy of ``lines`` with one field of row ``(l, j)`` replaced."""
    out = list(lines)
    k = out.index(next(x for x in out if x.startswith(f"{l},{j},")))
    parts = out[k].split(",")
    parts[field] = text
    out[k] = ",".join(parts)
    return out


def _edit_phi(lines: list[str], text) -> list[str]:
    """Copy of CSV ``lines`` with every phi field printed as ``text(phi)``."""
    out = lines[:2]
    for line in lines[2:]:
        l, j, phi, value = line.split(",")
        out.append(f"{l},{j},{text(float(phi))},{value}")
    return out


def _case(name, build, message):
    return pytest.param(build, message, id=name)


def _csv_reference(W, header: str) -> bytes:
    """The CSV bytes of ``W`` with the second line ``header``, built one cell
    at a time."""
    lines = ["# format=cylwig-wigner-v1", header]
    for i, l in enumerate(W.rows()):
        for j in range(W.grid.n_phi):
            lines.append(f"{l},{j},{W.grid.nodes[j]:.17g},{W.values[i, j]:.17g}")
    return ("\n".join(lines) + "\n").encode()


class TestWignerFiles:
    def test_csv_round_trip(self, tmp_path):
        w = OamWindow(-3, 3)
        W = wigner_from_oam(to_density(random_pure_state(w, 7)), 4, AngleGrid(28))
        path = tmp_path / "grid.csv"
        write_wigner(W, path)
        back = read_wigner(path)
        assert back.l_lo == W.l_lo and back.l_hi == W.l_hi
        assert back.source_window == w and back.pad == 4
        assert np.array_equal(back.values, W.values)

    def test_csv_deterministic(self, tmp_path):
        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        assert wigner_to_csv(W) == wigner_to_csv(W)

    @pytest.mark.parametrize(
        "rho",
        [
            to_density(random_pure_state(OamWindow(-3, 3), 11)),
            mix([(0.3, random_pure_state(OamWindow(-3, 3), 12)),
                 (0.7, random_pure_state(OamWindow(-3, 3), 13))]),
            to_density(oam_eigenstate(1, OamWindow(-3, 3))),
        ],
        ids=["pure", "mixture", "eigenstate"],
    )
    def test_csv_matches_per_cell_reference(self, rho):
        W = wigner_from_oam(rho, 5, AngleGrid(28))
        header = (f"# l_lo={W.l_lo} l_hi={W.l_hi} n_phi=28 source_l_min=-3 "
                  "source_l_max=3 pad=5")
        assert wigner_to_csv(W).encode() == _csv_reference(W, header)

    @pytest.mark.parametrize("rho", [to_density(random_pure_state(OamWindow(-3, 3), 11)),
                                     to_density(oam_eigenstate(1, OamWindow(-3, 3)))],
                             ids=["pure", "eigenstate"])
    def test_csv_matches_reference_over_chunks(self, rho):
        """Over several of the writer's chunks of whole rows."""
        W = wigner_from_oam(rho, 60, AngleGrid(132))
        assert W.values.size > 4 * phasespace._CSV_CHUNK
        header = "# l_lo=-63 l_hi=63 n_phi=132 source_l_min=-3 source_l_max=3 pad=60"
        assert wigner_to_csv(W).encode() == _csv_reference(W, header)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("fmt", ["csv"])
    def test_non_finite_value_rejected(self, tmp_path, fmt, bad):
        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        values = W.values.copy()
        values[W.row_index(1), 5] = bad
        values[W.row_index(3), 0] = bad
        W = WignerGrid(W.l_lo, W.l_hi, W.grid, values, w, W.pad)
        path = tmp_path / f"bad.{fmt}"
        path.write_text(wigner_to_csv(W))
        with pytest.raises(ValueError, match=r"\(l=1, phi_index=5\) holds non-finite"):
            read_wigner(path)

    def test_fifo_refused(self, tmp_path):
        """A pipe has no size to bound the grid by: a valid grid written into
        a FIFO is refused in one line naming the cause, not read."""
        _, lines = _small_csv_lines()
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_feed, args=(fifo, "\n".join(lines) + "\n"),
                                  daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError) as info:
                read_wigner(fifo)
        finally:
            writer.join(timeout=10)
        assert str(info.value) == f"wigner CSV {fifo} is a pipe or device, not a regular file"

    def test_json_grid_refused(self, tmp_path):
        """A grid's payload as one JSON object is not a cylwig-wigner-v1 file:
        it fails the format header check, in one line."""
        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "format": "cylwig-wigner-v1", "l_lo": W.l_lo, "l_hi": W.l_hi,
            "n_phi": W.grid.n_phi, "source_l_min": w.l_min, "source_l_max": w.l_max,
            "pad": W.pad, "values": W.values.tolist(),
        }))
        with pytest.raises(ValueError) as info:
            read_wigner(path)
        assert str(info.value) == "missing or wrong '# format=cylwig-wigner-v1' header"

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("{l_lo_minus_1},0,0.0,50.0", "outside"),  # row below l_lo
            ("{l_hi_plus_1},0,0.0,50.0", "outside"),  # row above l_hi
            ("0,{n_phi},0.0,50.0", "outside"),  # angle index past the grid
            ("0,-1,0.0,50.0", "outside"),  # negative angle index
            ("0,3,0.0,50.0", "repeats cell"),  # duplicate (l, phi_index)
            ("1" + "0" * 30 + ",0,0.0,50.0", "outside"),  # beyond int64
            ("1" + "0" * 400 + ",0,0.0,50.0", "outside"),  # beyond float
        ],
        ids=["l_low", "l_high", "phi_high", "phi_negative", "duplicate", "l_huge",
             "l_beyond_float"],
    )
    def test_cell_index_defects_rejected(self, tmp_path, extra, message):
        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        line = extra.format(l_lo_minus_1=W.l_lo - 1, l_hi_plus_1=W.l_hi + 1, n_phi=24)
        path = tmp_path / "bad.csv"
        path.write_text(wigner_to_csv(W) + line + "\n")
        with pytest.raises(ValueError, match=message):
            read_wigner(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# format=cylwig-wigner-v1\n1,2,3\n")
        with pytest.raises(ValueError):
            read_wigner(path)

    def test_per_cell_reference_reads_back(self, tmp_path):
        rhos = [
            to_density(random_pure_state(OamWindow(-3, 3), 11)),
            mix([(0.3, random_pure_state(OamWindow(-3, 3), 12)),
                 (0.7, random_pure_state(OamWindow(-3, 3), 13))]),
            to_density(oam_eigenstate(1, OamWindow(-3, 3))),
        ]
        for rho in rhos:
            W = wigner_from_oam(rho, 5, AngleGrid(28))
            lines = [
                "# format=cylwig-wigner-v1",
                f"# l_lo={W.l_lo} l_hi={W.l_hi} n_phi=28 source_l_min=-3 "
                "source_l_max=3 pad=5",
            ]
            for i, l in enumerate(W.rows()):
                for j in range(W.grid.n_phi):
                    phi, v = W.grid.nodes[j], W.values[i, j]
                    lines.append(f"{l},{j},{phi:.17g},{v:.17g}")
            path = tmp_path / "ref.csv"
            path.write_text("\n".join(lines) + "\n")
            back = read_wigner(path)
            assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    @pytest.mark.parametrize(
        "build, message",
        [
            _case("three_fields", lambda x: x[:5] + ["0,3,0.5"] + x[5:],
                  "data row 4: expected 4 fields, got 3"),
            _case("five_fields", lambda x: x + [x[-1] + ",1"], "expected 4 fields, got 5"),
            _case("first_row_short", lambda x: x[:2] + [x[2].rsplit(",", 1)[0]] + x[3:],
                  "data row 1: expected 4 fields, got 3"),
            _case("non_numeric_value", lambda x: _edit_row(x, 0, 3, 3, "abc"),
                  "'abc' is not a number"),
            _case("empty_value", lambda x: _edit_row(x, 0, 3, 3, ""), "is not a number"),
            _case("underscore_digits", lambda x: _edit_row(x, 0, 3, 3, "1_000"),
                  "field 4: '1_000' is not a number"),
            _case("non_ascii_digit", lambda x: _edit_row(x, 0, 3, 3, "\u0661"),
                  "field 4: '\u0661' is not a number"),
            _case("non_numeric_phi", lambda x: _edit_row(x, 0, 3, 2, "abc"),
                  "field 3: 'abc' is not a number"),
            _case("empty_phi", lambda x: _edit_row(x, 0, 3, 2, ""),
                  "data row 148, field 3: '' is not a number"),
            _case("fractional_l", lambda x: _edit_row(x, 0, 3, 0, "1.5"),
                  r"\(l=1.5, phi_index=3\) has a non-integer index"),
            _case("fractional_phi_index", lambda x: _edit_row(x, 0, 3, 1, "1.5"),
                  r"\(l=0, phi_index=1.5\) has a non-integer index"),
            _case("nan_l", lambda x: _edit_row(x, 0, 3, 0, "nan"), "non-integer index"),
            _case("no_data_rows", lambda x: x[:2] + ["", "# nothing here"], "no data rows"),
            _case("spaces_only_line", lambda x: x[:6] + ["   "] + x[6:],
                  "data row 5: expected 4 fields, got 1"),
            _case("huge_header",
                  lambda x: [x[0], "# l_lo=0 l_hi=100000000000 n_phi=4 source_l_min=0 "
                             "source_l_max=0 pad=0", "0,0,-3.1415926535897931,0.25"],
                  "^wigner CSV header needs 400000000004 cells, more than the file's "
                  "126 bytes hold at 8 bytes per row$"),
            # no rows, so no cells, but 2**52 nodes
            _case("header_l_hi_below_l_lo",
                  lambda x: [x[0], f"# l_lo=0 l_hi=-1 n_phi={2**52} source_l_min=0 "
                             "source_l_max=0 pad=0", x[2]],
                  "^wigner CSV header l_hi=-1 is below l_lo=0$"),
            _case("header_beyond_float",
                  lambda x: [x[0], "# l_lo=0 l_hi=1" + "0" * 400 + " n_phi=4 "
                             "source_l_min=0 source_l_max=0 pad=0", x[2]],
                  r"beyond 2\*\*53"),
            _case("phi_shifted",
                  lambda x: _edit_row(x, 0, 3, 2, format(AngleGrid(24).node(3) + 1e-6, ".17g")),
                  r"cell \(l=0, phi_index=3\) has phi"),
            _case("missing_cell", lambda x: x[:7] + x[8:], "does not cover every"),
            _case("non_ascii_digit_phi", lambda x: _edit_row(x, 0, 3, 2, "\u0661"),
                  "data row 148, field 3: '\u0661' is not a number"),
            _case("phi_trailing_nul",
                  lambda x: _edit_row(x, 0, 3, 2, f"{AngleGrid(24).node(3):.17g}\0"),
                  re.escape(f"data row 148, field 3: {format(AngleGrid(24).node(3), '.17g') + chr(0)!r} "
                            "is not a number")),
            # Cut to the text field's width this reads as the node itself.
            _case("phi_wider_than_field",
                  lambda x: _edit_row(x, 0, 3, 2, f"{AngleGrid(24).node(3):.17g}" + "0" * 10 + "e5"),
                  re.escape(f"cell (l=0, phi_index=3) has phi {AngleGrid(24).node(3) * 1e5:.17g}, "
                            f"not the grid node {AngleGrid(24).node(3):.17g}") + "$"),
            _case("header_underscore_digits",
                  lambda x: [x[0], x[1].replace("pad=4", "pad=0_4")] + x[2:],
                  "^wigner CSV header pad='0_4' is not an integer$"),
            _case("header_non_ascii_digit",
                  lambda x: [x[0], x[1].replace("l_hi=6", "l_hi=\u0666")] + x[2:],
                  "^wigner CSV header l_hi='\u0666' is not an integer$"),
            *(
                _case(f"header_{key}_not_integer",
                      lambda x, key=key: [x[0], re.sub(f"{key}=\\S+", f"{key}=x", x[1])]
                      + x[2:5] + ["0,3,0.5"] + x[5:],
                      f"^wigner CSV header {key}='x' is not an integer$")
                for key in ("l_lo", "l_hi", "n_phi", "source_l_min", "source_l_max", "pad")
            ),
        ],
    )
    def test_malformed_csv_rejected(self, tmp_path, build, message):
        _, lines = _small_csv_lines()
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(build(lines)) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_wigner(path)
        assert "\n" not in str(info.value)


    @pytest.mark.parametrize("fmt", ["csv"])
    @pytest.mark.parametrize(
        "source, pad, message",
        [
            ((-2, 2), 0, r"pad 0 does not match the rows: \[-6, 6\] about source "
                         r"window \[-2, 2\] pad it by 4"),
            ((-6, 6), 4, r"pad 4 does not match the rows: \[-6, 6\] about source "
                         r"window \[-6, 6\] pad it by 0"),
            ((-2, 3), 4, r"pad 4 does not match .* pad it by 3"),
            ((-8, 8), 4, r"pad 4 does not match .* miss it \(margin -2\)"),
            ((-8, 8), -2, r"pad -2 does not match .* miss it \(margin -2\)"),
        ],
        ids=["pad_low", "window_widened", "asymmetric", "rows_miss_window",
             "negative_pad"],
    )
    def test_header_pad_must_match_rows(self, tmp_path, fmt, source, pad, message):
        """The header's pad is what the rows add on the source window's
        narrower side; a header that says otherwise is refused, naming both."""
        _, lines = _small_csv_lines()
        path = tmp_path / f"bad.{fmt}"
        lines[1] = (f"# l_lo=-6 l_hi=6 n_phi=24 source_l_min={source[0]} "
                    f"source_l_max={source[1]} pad={pad}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_wigner(path)

    @pytest.mark.parametrize(
        "build",
        [
            lambda lines: [x + "\r" for x in lines],  # CRLF line endings
            lambda lines: [y for x in lines for y in (x, "")],  # empty lines between rows
            lambda lines: lines[:2] + [" " + x.replace(",", " , ") + " " for x in lines[2:]],
            lambda lines: lines[:2] + list(np.random.default_rng(0).permutation(lines[2:])),
            lambda lines: lines[:2] + ["# a comment"] + lines[2:],
            # a NUL in a block reads every phi of it from its line
            lambda lines: lines[:12] + ["# note \0"] + lines[12:],
            lambda lines: lines[:2] + [
                ",".join(p[:2] + [format(float(p[2]), ".13g"), p[3]])
                for p in (x.split(",") for x in lines[2:])
            ],
            # wider than the text field: read again from the line, not cut
            lambda lines: _edit_phi(lines, lambda phi: format(phi, ".40g")),
            lambda lines: _edit_phi(lines, lambda phi: format(phi, "+.17g")),
            lambda lines: _edit_phi(lines, lambda phi: format(phi, ".17g") + "000"),
        ],
        ids=["crlf", "empty_lines", "spaces_around_fields", "shuffled", "comment_line",
             "nul_in_comment_line", "phi_13_digits", "phi_40_digits", "phi_plus_sign",
             "phi_trailing_zeros"],
    )
    def test_lenient_csv_accepted(self, tmp_path, build):
        W, lines = _small_csv_lines()
        path = tmp_path / "ok.csv"
        path.write_bytes(("\n".join(build(lines)) + "\n").encode())
        back = read_wigner(path)
        assert (back.l_lo, back.l_hi, back.grid, back.pad) == (W.l_lo, W.l_hi, W.grid, W.pad)
        assert back.source_window == W.source_window
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))


class TestGridValues:
    """A grid copies the values it is given, so no array the caller keeps
    can change it; the module's own builders hand over a fresh array, which
    the grid keeps without a copy."""

    def test_values_copied(self):
        values = np.random.default_rng(0).normal(size=(5, 8))
        view = values.reshape(-1)
        values.flags.writeable = False
        W = WignerGrid(-2, 2, AngleGrid(8), values, OamWindow(-1, 1), 1)
        view[0] = 7.0
        assert W.values[0, 0] != 7.0
        assert W.values.dtype == np.float64 and not W.values.flags.writeable

    def test_built_grids_are_not_copied(self, tmp_path, monkeypatch):
        """The forward maps and the reader hand their own array to the grid,
        which keeps it; the star product's grid is copied out of its stack."""
        fresh = []

        class Spy(WignerGrid):
            def __post_init__(self, _fresh):
                fresh.append(_fresh)
                super().__post_init__(_fresh)

        w = OamWindow(-2, 2)
        psi = random_pure_state(w, 3)
        W = wigner_from_oam(to_density(psi), 3, AngleGrid(16))
        write_wigner(W, tmp_path / "grid.csv")
        monkeypatch.setattr(phasespace, "WignerGrid", Spy)
        wigner_from_oam(to_density(psi), 3, AngleGrid(16))
        wigner_from_angle(psi, 3, AngleGrid(16))
        star_product(W, W)
        read_wigner(tmp_path / "grid.csv")
        assert fresh == [True, True, False, True]


class TestStreamedCodec:
    """The CSV codec streams: the writer one grid row at a time, the reader
    ``_READ_BLOCK`` lines per parse.  Bytes, checks and messages are those
    of a whole-file codec."""

    @staticmethod
    def _grid(half):
        w = OamWindow(-half, half)
        rho = to_density(random_pure_state(w, 4))
        return wigner_from_oam(rho, default_pad(w), default_angle_grid(w))

    def test_path_handle_and_text_agree(self, tmp_path):
        W = self._grid(6)
        path = tmp_path / "grid.csv"
        write_wigner(W, path)
        with open(tmp_path / "handle.csv", "w", encoding="utf-8", newline="\n") as fh:
            write_wigner(W, fh)
        buffer = io.StringIO()
        write_wigner(W, buffer)
        text = wigner_to_csv(W).encode()
        assert W.n_rows > 100
        assert path.read_bytes() == text
        assert (tmp_path / "handle.csv").read_bytes() == text
        assert buffer.getvalue().encode() == text

    def test_memory_bounded(self, tmp_path):
        """At +-32 (283,140 cells, 14 MB of text) the writer holds one chunk
        of at most ``_CSV_CHUNK`` cells, with its byte matrix and the
        formatter's arrays, and the reader its grid plus one block, not the
        file and no mask."""
        W = self._grid(32)
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            write_wigner(W, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_wigner(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))
        assert write_peak < 2e6
        assert read_peak < 1.25 * W.values.nbytes


class TestReadBlocks:
    """The reader with blocks of a few lines: checks, data row numbers and
    coverage run across block boundaries, and no loadtxt warning escapes.
    Every file gets a comment line after its header, which the loadtxt path
    skips and the reader of the writer's own bytes refuses, so each read
    here takes the loadtxt path."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(phasespace, "_READ_BLOCK", 4)

    @staticmethod
    def _read(tmp_path, lines):
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines[:2] + ["# not the writer's bytes"] + lines[2:]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return read_wigner(path)
            finally:
                assert caught == []

    bad_rows = pytest.mark.parametrize(
        "row, message",
        [
            ("0,3,0.5", ": expected 4 fields, got 3"),
            ("0,3,0.5,1,2", ": expected 4 fields, got 5"),
            ("0,3,abc,1", ", field 3: 'abc' is not a number"),
        ],
        ids=["three_fields", "five_fields", "not_a_number"],
    )

    @bad_rows
    @pytest.mark.parametrize("at", [0, 2], ids=["block_start", "mid_block"])
    def test_malformed_row_numbered_over_file(self, tmp_path, row, message, at):
        """Data row 9 ends the third block of four lines and row 11 is inside
        the fourth; the blank and comment lines before them are not counted."""
        _, lines = _small_csv_lines()
        data = lines[2:]
        data[8 + at] = row
        lines = lines[:2] + data[:3] + ["", "# note"] + data[3:6] + [""] + data[6:]
        with pytest.raises(ValueError, match=f"data row {9 + at}{message}") as info:
            self._read(tmp_path, lines)
        assert "\n" not in str(info.value)

    @bad_rows
    def test_malformed_row_named_without_numpy_message(
        self, tmp_path, monkeypatch, row, message
    ):
        """Row and field are named from the block's own lines, not from the
        text of loadtxt's error, which here says nothing."""
        loadtxt = np.loadtxt

        def opaque(*args, **kwargs):
            try:
                return loadtxt(*args, **kwargs)
            except ValueError:
                raise ValueError("opaque") from None

        monkeypatch.setattr(np, "loadtxt", opaque)
        _, lines = _small_csv_lines()
        data = lines[2:]
        data[10] = row
        with pytest.raises(ValueError, match=f"data row 11{message}"):
            self._read(tmp_path, lines[:2] + data)

    def test_refused_block_without_bad_row_named_by_its_rows(self, tmp_path, monkeypatch):
        """A block that loadtxt refuses though every row reads as four
        numbers is named by the range of its data rows."""

        def refuse(*args, **kwargs):
            raise ValueError("opaque")

        monkeypatch.setattr(np, "loadtxt", refuse)
        _, lines = _small_csv_lines()
        with pytest.raises(ValueError, match="^malformed wigner CSV data rows 1 to 4$"):
            self._read(tmp_path, lines)

    def test_whole_block_short(self, tmp_path):
        """A block whose every row has three fields parses; its first row is
        the one named."""
        _, lines = _small_csv_lines()
        data = lines[2:]
        data[8:12] = [x.rsplit(",", 1)[0] for x in data[8:12]]
        with pytest.raises(ValueError, match="data row 9: expected 4 fields, got 3"):
            self._read(tmp_path, lines[:2] + data)

    @pytest.mark.parametrize("block", [3, 4, 8], ids=["3", "4", "8"])
    def test_row_count_multiple_of_block(self, tmp_path, monkeypatch, block):
        W, lines = _small_csv_lines()
        assert (len(lines) - 2) % block == 0
        monkeypatch.setattr(phasespace, "_READ_BLOCK", block)
        back = self._read(tmp_path, lines)
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    @pytest.mark.parametrize("tail", [["# end"], [""], ["", "# end", ""]],
                             ids=["comment", "blank", "both"])
    def test_trailing_lines_after_last_block(self, tmp_path, tail):
        W, lines = _small_csv_lines()
        back = self._read(tmp_path, lines + tail)
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    def test_shuffled_rows(self, tmp_path):
        W, lines = _small_csv_lines()
        rows = list(np.random.default_rng(5).permutation(lines[2:]))
        back = self._read(tmp_path, lines[:2] + rows)
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    @pytest.mark.parametrize("at", [3, 7], ids=["same_block", "later_block"])
    def test_repeated_cell(self, tmp_path, at):
        """Data row 3 (cell l=-6, phi_index=2) copied over a row of its own
        block or of the next; the file keeps its row count."""
        _, lines = _small_csv_lines()
        data = lines[2:]
        data[at] = data[2]
        with pytest.raises(ValueError, match=r"repeats cell \(l=-6, phi_index=2\)"):
            self._read(tmp_path, lines[:2] + data)

    @pytest.mark.parametrize("shift", [0.0, 2e-12], ids=["exact", "phi_off_by_2e-12"])
    def test_node_text_and_13_digit_rows_mixed(self, tmp_path, shift):
        """Every third row prints phi to 13 digits, so blocks mix rows that
        pass as their node's text with rows that are converted; the row of
        cell (l=-6, phi_index=6), in the second block, is 13-digit text moved
        by ``shift``."""
        W, lines = _small_csv_lines()
        data = lines[2:]
        for k in range(0, len(data), 3):
            l, j, phi, value = data[k].split(",")
            phi = float(phi) + (shift if k == 6 else 0.0)
            data[k] = f"{l},{j},{phi:.13g},{value}"
        if shift:
            with pytest.raises(ValueError, match=r"^wigner CSV cell \(l=-6, phi_index=6\) "
                               r"has phi -1.5707963267930001, not the grid node -1.5707963267948966$"):
                self._read(tmp_path, lines[:2] + data)
        else:
            back = self._read(tmp_path, lines[:2] + data)
            assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    def test_non_finite_value_in_later_block(self, tmp_path):
        """Data row 10 (cell l=-6, phi_index=9), in the third block, holds
        inf: it is named at its block, before the cell missing from the end
        of the file is found."""
        _, lines = _small_csv_lines()
        data = lines[2:-1]
        data[9] = data[9].rsplit(",", 1)[0] + ",inf"
        with pytest.raises(ValueError, match=r"^wigner CSV cell \(l=-6, phi_index=9\) "
                           "holds non-finite value inf$"):
            self._read(tmp_path, lines[:2] + data)

    def test_cell_missing_from_later_block(self, tmp_path):
        _, lines = _small_csv_lines()
        del lines[2 + 30]
        with pytest.raises(ValueError, match=r"does not cover every \(l, phi_index\) cell: "
                           "the header needs 312 cells, the file has 311 rows"):
            self._read(tmp_path, lines)


def _read_outcome(path):
    """The grid's value bits, or the one-line message, of reading ``path``."""
    try:
        return read_wigner(path).values.view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


def _swap_rows(data: bytes, a: int, b: int) -> bytes:
    lines = data.split(b"\n")
    lines[a], lines[b] = lines[b], lines[a]
    return b"\n".join(lines)


def _with_values(*bad) -> WignerGrid:
    W, _ = _small_csv_lines()
    values = W.values.copy()
    values[3, 5:5 + len(bad)] = bad
    return WignerGrid(W.l_lo, W.l_hi, W.grid, values, W.source_window, W.pad)


class TestWrittenBytes:
    """``write_wigner``'s own bytes are read without ``np.loadtxt`` and give
    the written bits; any other file is read by the loadtxt path as it
    stands, so it gives the same grid or message as that path alone."""

    @pytest.mark.parametrize("pad", [None, 2], ids=["default_pad", "pad_2"])
    @pytest.mark.parametrize("half", [4, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["random", "coherent", "von_mises", "eigenstate"])
    def test_written_grids_read_without_loadtxt(self, tmp_path, no_loadtxt, kind, half, pad):
        w = OamWindow(-half, half)
        psi = {"random": lambda: random_pure_state(w, half),
               "coherent": lambda: coherent_state(1, 0.7, 0.5, w),
               "von_mises": lambda: von_mises_state(0.3, w),
               "eigenstate": lambda: oam_eigenstate(1, w)}[kind]()
        W = wigner_from_oam(psi, default_pad(w) if pad is None else pad, default_angle_grid(w))
        write_wigner(W, tmp_path / "grid.csv")
        back = read_wigner(tmp_path / "grid.csv")
        assert (back.l_lo, back.l_hi, back.grid, back.pad) == (W.l_lo, W.l_hi, W.grid, W.pad)
        assert back.source_window == W.source_window
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    @pytest.mark.parametrize("cells", [7, 10, 24, 48, 50])
    def test_chunks_of_whole_rows_or_part_of_one(self, tmp_path, no_loadtxt, monkeypatch, cells):
        """Chunks of part of a row (24 nodes) and of one or two whole rows."""
        monkeypatch.setattr(phasespace, "_READ_CELLS", cells)
        W, _ = _small_csv_lines()
        write_wigner(W, tmp_path / "grid.csv")
        back = read_wigner(tmp_path / "grid.csv")
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b.replace(b",0.0", b",0.x", 1),  # a letter in a value
            lambda b: b.replace(b",-1.5707963267948966,", b",-1.570796326795,", 1),  # 13 digits
            lambda b: b.replace(b"\n-3,4,", b"\n-3,5,", 1),  # a changed phi_index
            lambda b: b.replace(b"\n-3,4,", b"\n-4,4,", 1),  # a changed l
            lambda b: _swap_rows(b, 40, 41),
            lambda b: _swap_rows(b, 2, 300),
            lambda b: b.replace(b"\n", b"\n# note\n", 2).replace(b"\n# note\n", b"\n", 1),
            lambda b: b.replace(b"\n-2,", b"\n\n-2,", 1),  # a blank line
            lambda b: b.replace(b"\n", b"\r\n"),
            lambda b: b[:-1],  # no final newline
            lambda b: b + b"# end\n",
            lambda b: b + b"\n",
            lambda b: b[:-1] + b"0\n",  # a 17-digit value with an 18th digit
            lambda b: b.replace(b"pad=4", b"pad=04"),  # the header's own text
        ],
        ids=["letter_in_value", "phi_13_digits", "phi_index_changed", "l_changed",
             "rows_swapped", "far_rows_swapped", "comment_after_header", "blank_line",
             "crlf", "no_final_newline", "trailing_comment", "trailing_blank_line",
             "digit_appended", "header_text"],
    )
    def test_other_bytes_read_by_loadtxt(self, tmp_path, monkeypatch, edit):
        W, _ = _small_csv_lines()
        path = tmp_path / "grid.csv"
        write_wigner(W, path)
        data = path.read_bytes()
        path.write_bytes(edit(data))
        assert path.read_bytes() != data
        self._same_as_loadtxt_alone(path, monkeypatch)

    @pytest.mark.parametrize("at", [-2, 12_000], ids=["last_cell", "mid_file"])
    def test_difference_after_many_chunks(self, tmp_path, monkeypatch, at):
        """The loadtxt path reads from the first data row again after chunks
        of the file were parsed: a letter in the last value, or in a value
        past the text handle's first read."""
        monkeypatch.setattr(phasespace, "_READ_CELLS", 24)
        W, _ = _small_csv_lines()
        path = tmp_path / "grid.csv"
        write_wigner(W, path)
        data = bytearray(path.read_bytes())
        k = data.index(b"\n", at % len(data)) - 1  # a value's last digit
        assert chr(data[k]).isdigit() and k > 8192
        data[k] = ord("x")
        path.write_bytes(bytes(data))
        self._same_as_loadtxt_alone(path, monkeypatch)

    @pytest.mark.parametrize(
        "values",
        [(1.5,), (1e-300,), (5e-324, -2.2250738585072009e-308), (1.0,), (-3e-285,)],
        ids=["above_one", "1e-300", "subnormal", "one", "exponent_285"],
    )
    def test_values_outside_the_fast_range(self, tmp_path, monkeypatch, values):
        """The writer formats these by ``'%.17g' %`` itself; the loadtxt
        path reads them, to the written bits."""
        W = _with_values(*values)
        write_wigner(W, tmp_path / "grid.csv")
        self._same_as_loadtxt_alone(tmp_path / "grid.csv", monkeypatch)
        back = read_wigner(tmp_path / "grid.csv")
        assert np.array_equal(back.values.view(np.uint64), W.values.view(np.uint64))

    def test_row_label_longer_than_a_word(self, tmp_path, monkeypatch):
        rho = to_density(oam_eigenstate(10**7, OamWindow(10**7 - 1, 10**7 + 1)))
        W = wigner_from_oam(rho, 6, AngleGrid(8))
        write_wigner(W, tmp_path / "grid.csv")
        self._same_as_loadtxt_alone(tmp_path / "grid.csv", monkeypatch)
        assert np.array_equal(read_wigner(tmp_path / "grid.csv").values, W.values)

    @staticmethod
    def _same_as_loadtxt_alone(path, monkeypatch):
        """Reading ``path`` gives what the loadtxt path alone gives, and the
        reader of the writer's bytes refused the file."""
        tried = []
        read_written = phasespace._read_written

        def spy(*args):
            tried.append(read_written(*args))
            return tried[-1]

        monkeypatch.setattr(phasespace, "_read_written", spy)
        got = _read_outcome(path)
        assert tried == [False]
        monkeypatch.setattr(phasespace, "_read_written", lambda *args: False)
        assert got == _read_outcome(path)

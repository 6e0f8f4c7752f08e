import numpy as np
import pytest
from numpy.testing import assert_allclose

from cylwig import (
    AngleGrid,
    BandLimitError,
    OamWindow,
    PureState,
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
    theta3,
    to_density,
    von_mises_state,
    wigner_from_angle,
    wigner_from_oam,
    write_wigner,
)
from cylwig.phasespace import WignerGrid, wigner_to_csv
from cylwig.states import _f17

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
                K = kernel_matrix(l, phi, w).elements
                want_K = np.array([[kappa(m, n, l) * np.exp(-1j * (m - n) * phi)
                                    for n in vals] for m in vals])
                assert np.max(np.abs(K - want_K)) <= 1e-14


class TestKernel:
    def test_delta_trace(self):
        w = OamWindow(-4, 4)
        rho = to_density(oam_eigenstate(1, w))
        for l in (-5, -1, 0, 1, 2, 6):
            for phi in (0.0, 0.8, -2.0):
                K = kernel_matrix(l, phi, w)
                got = np.trace(rho.elements @ K.elements).real
                want = 1.0 / TWO_PI if l == 1 else 0.0
                assert abs(got - want) < 1e-14

    def test_even_part_structure(self):
        # diagonal elements <m|w|m> vanish unless m = l
        w = OamWindow(-4, 4)
        K = kernel_matrix(2, 0.4, w)
        for i, m in enumerate(w.values()):
            want = 1.0 / TWO_PI if m == 2 else 0.0
            assert abs(K.elements[i, i] - want) < 1e-15

    def test_hermitian_random_points(self):
        rng = np.random.default_rng(0)
        w = OamWindow(-5, 5)
        for _ in range(20):
            l = int(rng.integers(-8, 9))
            phi = float(rng.uniform(-np.pi, np.pi))
            K = kernel_matrix(l, phi, w)
            assert np.max(np.abs(K.elements - K.elements.conj().T)) <= 1e-12

    def test_displacement_covariance(self):
        # w(l, phi) = D(l, phi) w(0, 0) D(l, phi)^dagger on the interior
        w = OamWindow(-7, 7)
        ld, phid = 2, 0.9
        K0 = kernel_matrix(0, 0.0, w).elements
        Kd = kernel_matrix(ld, phid, w).elements
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

    @pytest.mark.parametrize("seed", range(10))
    def test_two_path_agreement(self, seed):
        w = OamWindow(-4, 4)
        psi = random_pure_state(w, seed)
        grid = default_angle_grid(w)
        pad = default_pad(w)
        Wa = wigner_from_angle(psi, pad, grid)
        Wo = wigner_from_oam(to_density(psi), pad, grid)
        assert np.max(np.abs(Wa.values - Wo.values)) < 1e-10

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
        assert_allclose(marginal_angle(W).values.real, 1.0 / TWO_PI, atol=1e-15)

    def test_coherent_oam_marginal(self):
        w = OamWindow(-8, 8)
        psi = coherent_state(0, 0.0, 1.0, w)
        W = wigner_from_oam(to_density(psi), 32, AngleGrid(64))
        pops = marginal_oam(W)
        ls = np.arange(W.l_lo, W.l_hi + 1).astype(float)
        want = np.where(np.abs(ls) <= 8, np.exp(-(ls**2)), 0.0)
        want /= theta3(0.0, np.exp(-1.0))
        assert np.max(np.abs(pops - want)) < 1e-9

    def test_angle_marginal_with_tail_is_exact(self):
        w = OamWindow(-8, 8)
        psi = coherent_state(0, 0.0, 1.0, w)
        rho = to_density(psi)
        grid = AngleGrid(64)
        W = wigner_from_oam(rho, 32, grid)
        marg = marginal_angle(W).values.real
        tail = angle_marginal_tail(rho, W)
        density = np.abs(angle_wavefunction(psi, grid).values) ** 2
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

    def test_rank_guard_names_harmonic(self, monkeypatch):
        from cylwig import phasespace

        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 4)), 4, AngleGrid(24))
        kernel = phasespace._row_kernel

        def without_t0(window, rows):
            G = kernel(window, rows).copy()
            G[:, -2 * window.l_min] = 0.0  # column t = m + n = 0
            return G

        monkeypatch.setattr(phasespace, "_row_kernel", without_t0)
        with pytest.raises(ReconstructionError, match="harmonic d=-4") as exc:
            reconstruct_density(W, w)
        assert exc.value.deficient_directions == [(-2, 2)]

    @pytest.mark.parametrize("pad", [1, 4])
    @pytest.mark.parametrize("half", [2, 3])
    def test_minimiser_on_inconsistent_data(self, half, pad):
        """Off the range of the map, ``lstsq`` is the dense least-squares fit
        over all kernel matrices and ``literal`` the Riemann sum of the point
        operators, each Hermitized and trace-normalized."""
        w = OamWindow(-half, half)
        grid = default_angle_grid(w)
        W0 = wigner_from_oam(to_density(random_pure_state(w, 30 + half)), pad, grid)
        noise = 1e-3 * np.random.default_rng(pad).standard_normal(W0.values.shape)
        W = WignerGrid(W0.l_lo, W0.l_hi, grid, W0.values + noise, w, pad)
        kernels = [kernel_matrix(l, phi, w).elements
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
        with pytest.raises(ValueError):
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

    def test_self_star_consistency_at_origin(self):
        # the pure-state self-star of |0> returns exactly 1/(2 pi) at (0, 0)
        w = OamWindow(-4, 4)
        W = wigner_from_oam(to_density(oam_eigenstate(0, w)), 8, AngleGrid(36))
        st = star_product(W, W, method="operator")
        j0 = int(np.argmin(np.abs(st.grid.nodes)))
        assert abs(st.row(0)[j0] - 1.0 / TWO_PI) < 1e-12


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
        lines = [
            "# format=cylwig-wigner-v1",
            f"# l_lo={W.l_lo} l_hi={W.l_hi} n_phi=28 source_l_min=-3 "
            "source_l_max=3 pad=5",
        ]
        for i, l in enumerate(W.rows()):
            for j in range(W.grid.n_phi):
                lines.append(f"{l},{j},{_f17(W.grid.nodes[j])},{_f17(W.values[i, j])}")
        assert wigner_to_csv(W).encode() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_rejected(self, tmp_path, fmt, bad):
        import json

        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        values = W.values.copy()
        values[W.row_index(1), 5] = bad
        values[W.row_index(3), 0] = bad
        W = WignerGrid(W.l_lo, W.l_hi, W.grid, values, w, W.pad)
        path = tmp_path / f"bad.{fmt}"
        if fmt == "csv":
            path.write_text(wigner_to_csv(W))
        else:
            path.write_text(json.dumps({
                "format": "cylwig-wigner-v1", "l_lo": W.l_lo, "l_hi": W.l_hi,
                "n_phi": 24, "source_l_min": -2, "source_l_max": 2, "pad": W.pad,
                "values": values.tolist(),
            }))
        with pytest.raises(ValueError, match=r"\(l=1, phi_index=5\) holds non-finite"):
            read_wigner(path)

    def test_json_twin_accepted(self, tmp_path):
        w = OamWindow(-2, 2)
        W = wigner_from_oam(to_density(random_pure_state(w, 9)), 4, AngleGrid(24))
        payload = {
            "format": "cylwig-wigner-v1",
            "l_lo": W.l_lo,
            "l_hi": W.l_hi,
            "n_phi": W.grid.n_phi,
            "source_l_min": w.l_min,
            "source_l_max": w.l_max,
            "pad": W.pad,
            "values": W.values.tolist(),
        }
        import json

        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        back = read_wigner(path)
        assert np.array_equal(back.values, W.values)

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

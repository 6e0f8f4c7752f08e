"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible with `pytest -s`
or on failure) and then asserts.  Criterion 5's convergence-rate clause is
checked at the order the row tails give: generic pairs converge at first
order, so the overlap error halves per padding doubling; coherent pairs
converge at third order (their leading odd-part row tails cancel by parity),
so the error drops by ``((2P + l_max + 1/2) / (P + l_max + 1/2))^3`` per
doubling.  The README's testing section records the analysis.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cylwig import (
    AngleGrid,
    OamWindow,
    angle_marginal_tail,
    angle_wavefunction,
    apply_phase_function,
    autocorrelation_check,
    coherent_state,
    covariance_residual,
    default_angle_grid,
    flatness_check,
    hudson_certify,
    marginal_angle,
    marginal_oam,
    mix,
    oam_eigenstate,
    overlap,
    random_pure_state,
    reconstruct_density,
    star_product,
    to_density,
    von_mises_state,
    wigner_from_angle,
    wigner_from_oam,
)

TWO_PI = 2 * np.pi
CLI = [sys.executable, "-m", "cylwig"]


def _report(num, ok, detail=""):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def delta_target(W, l0):
    want = np.zeros_like(W.values)
    want[W.row_index(l0)] = 1.0 / TWO_PI
    return want


def test_criterion_1_delta_law():
    window = OamWindow(-8, 8)
    grid = AngleGrid(64)
    start = time.perf_counter()
    worst = 0.0
    for l0 in range(-8, 9):
        W = wigner_from_oam(to_density(oam_eigenstate(l0, window)), 8, grid)
        worst = max(worst, float(np.max(np.abs(W.values - delta_target(W, l0)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(1, ok, f"delta law max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_two_path_agreement():
    window = OamWindow(-4, 4)
    grid = default_angle_grid(window)
    pad = 8 * window.span
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        psi = random_pure_state(window, seed)
        Wa = wigner_from_angle(psi, pad, grid)
        Wo = wigner_from_oam(to_density(psi), pad, grid)
        worst = max(worst, float(np.max(np.abs(Wa.values - Wo.values))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert _report(2, ok, f"two-path max dev {worst:.2e} over 50 states, {elapsed:.1f}s")


def test_criterion_3_marginals():
    cases = [
        ("eigen", oam_eigenstate(3, OamWindow(-8, 8)), None),
        ("coherent", coherent_state(0, 0.0, 1.0, OamWindow(-8, 8)), None),
        ("vonmises-0.5", von_mises_state(0.5, OamWindow(-12, 12)), 0.5),
        ("vonmises-2", von_mises_state(2.0, OamWindow(-12, 12)), 2.0),
    ]
    grid = AngleGrid(64)
    angle_worst = oam_worst = vm_worst = 0.0
    for name, psi, kappa in cases:
        rho = to_density(psi)
        W = wigner_from_oam(rho, 32, grid)
        density = np.abs(angle_wavefunction(psi, grid)) ** 2
        marg = marginal_angle(W) + angle_marginal_tail(rho, W)
        angle_worst = max(angle_worst, float(np.max(np.abs(marg - density))))
        pops = marginal_oam(W)
        ls = W.rows()
        want = np.zeros(W.n_rows)
        sel = (ls >= psi.window.l_min) & (ls <= psi.window.l_max)
        want[sel] = np.abs(psi.coefficients) ** 2
        oam_worst = max(oam_worst, float(np.max(np.abs(pops - want))))
        if kappa is not None:
            vm = np.exp(2 * kappa * np.cos(grid.nodes)) / (TWO_PI * np.i0(2 * kappa))
            vm_worst = max(vm_worst, float(np.max(np.abs(marg - vm))))
    ok = angle_worst <= 1e-10 and oam_worst <= 1e-9 and vm_worst <= 1e-8
    assert _report(
        3,
        ok,
        f"angle marginal (with documented tail) {angle_worst:.2e}, "
        f"OAM marginal {oam_worst:.2e}, von Mises density {vm_worst:.2e}",
    )


def test_criterion_4_normalization():
    sources = [
        to_density(oam_eigenstate(3, OamWindow(-8, 8))),
        to_density(coherent_state(0, 0.0, 1.0, OamWindow(-8, 8))),
        to_density(coherent_state(2, 1.2, 1.0, OamWindow(-10, 10))),
        to_density(von_mises_state(0.5, OamWindow(-12, 12))),
        to_density(von_mises_state(2.0, OamWindow(-12, 12))),
        to_density(random_pure_state(OamWindow(-6, 6), 0)),
        mix([(0.5, random_pure_state(OamWindow(-6, 6), 1)),
             (0.5, random_pure_state(OamWindow(-6, 6), 2))]),
    ]
    worst = 0.0
    for rho in sources:
        grid = AngleGrid(max(64, 2 * rho.window.span + 4))
        W = wigner_from_oam(rho, 32, grid)
        worst = max(worst, abs(float(marginal_oam(W).sum()) - 1.0))
    ok = worst <= 1e-9
    assert _report(4, ok, f"total mass deviation {worst:.2e} at P=32")


def test_criterion_5_traciality_constant():
    window = OamWindow(-4, 4)
    W = wigner_from_oam(to_density(oam_eigenstate(0, window)), 8, AngleGrid(36))
    dev = abs(overlap(W, W) - 1.0)
    ok = dev <= 1e-12
    assert _report(5, ok, f"delta self-overlap deviation {dev:.2e}")


def _overlap_error_ratios(a, b, grid):
    exact = abs(np.vdot(a.coefficients, b.coefficients)) ** 2
    errs = []
    for pad in (64, 128, 256):
        Wa = wigner_from_oam(to_density(a), pad, grid)
        Wb = wigner_from_oam(to_density(b), pad, grid)
        errs.append(abs(overlap(Wa, Wb) - exact))
    return errs[0] / errs[1], errs[1] / errs[2]


def test_criterion_5_coherent_overlap_halving():
    # |overlap - |<psi1|psi2>|^2| per padding doubling over P in {64, 128, 256}.
    # A coherent profile is symmetric about an integer l0, so every odd
    # harmonic's leading 1/l row coefficient sum_k (-1)^k c_{k+d} conj(c_k)
    # cancels (k -> 2 l0 - d - k flips its sign).  Rows then fall off like
    # 1/l^2, products like 1/l^4, and the two-sided tail beyond
    # |l| = l_max + P is C / (P + l_max + 1/2)^3 (midpoint rule), so each
    # doubling divides the error by ((2P + l_max + 1/2) / (P + l_max + 1/2))^3
    # (6.67 and 7.28 here), within the criterion's +-0.3 slack.
    window = OamWindow(-8, 8)
    a = coherent_state(0, 0.0, 1.0, window)
    b = coherent_state(2, 1.0, 1.0, window)
    grid = AngleGrid(48)
    r1, r2 = _overlap_error_ratios(a, b, grid)
    edge = window.l_max + 0.5
    want1, want2 = (((2 * P + edge) / (P + edge)) ** 3 for P in (64, 128))
    ok = abs(r1 - want1) <= 0.3 and abs(r2 - want2) <= 0.3
    _report(
        5,
        ok,
        f"coherent overlap error ratios {r1:.2f}, {r2:.2f} "
        f"(third-order tail predicts {want1:.2f}, {want2:.2f} +- 0.3)",
    )
    assert ok, (
        f"overlap error ratios per padding doubling are {r1:.2f}, {r2:.2f}; "
        f"the third-order coherent-pair tail predicts {want1:.2f}, {want2:.2f} "
        "+- 0.3 (see README)"
    )


def test_criterion_5_generic_overlap_halving():
    # Generic pairs keep the 1/l row tails, so the error halves per doubling
    # (first-order prediction (2P + l_max + 1/2) / (P + l_max + 1/2): 1.88,
    # 1.94), within 2 +- 0.3 for every one of the ten seed pairs.
    window = OamWindow(-8, 8)
    grid = AngleGrid(48)
    ratios = [
        _overlap_error_ratios(
            random_pure_state(window, seed), random_pure_state(window, seed + 1), grid
        )
        for seed in range(0, 20, 2)
    ]
    bad = [(2 * i, r) for i, r in enumerate(ratios)
           if not all(1.7 <= x <= 2.3 for x in r)]
    lo = min(min(r) for r in ratios)
    hi = max(max(r) for r in ratios)
    ok = not bad
    _report(
        5,
        ok,
        f"random-pair overlap error ratios {lo:.2f}..{hi:.2f} over 10 pairs "
        "(first-order tail: 2 +- 0.3)",
    )
    assert ok, f"pairs (seed, ratios) outside 2 +- 0.3: {bad}"


def test_criterion_6_reconstruction_round_trip():
    window = OamWindow(-5, 5)
    grid = AngleGrid(64)
    psi = random_pure_state(window, 42)
    rho_pure = to_density(psi)
    rho_mixed = mix([(0.6, random_pure_state(window, 1)),
                     (0.4, random_pure_state(window, 2))])
    worst = 0.0
    slowest = 0.0
    for rho in (rho_pure, rho_mixed):
        W = wigner_from_oam(rho, 8, grid)
        start = time.perf_counter()
        res = reconstruct_density(W, window)
        slowest = max(slowest, time.perf_counter() - start)
        worst = max(worst, float(np.max(np.abs(res.matrix - rho.elements))))
    ok = worst <= 1e-9 and slowest < 5.0
    assert _report(6, ok, f"round-trip max element error {worst:.2e}, {slowest:.2f}s")


def test_criterion_7_covariance():
    window = OamWindow(-4, 4)
    grid = default_angle_grid(window)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for seed in range(10):
        psi = random_pure_state(window, seed)
        for _ in range(10):
            ld = int(rng.integers(-4, 5))
            t = int(rng.integers(0, grid.n_phi))
            res = covariance_residual(psi, ld, t * grid.spacing)
            worst = max(worst, res)
    ok = worst <= 1e-10
    assert _report(7, ok, f"covariance residual {worst:.2e} over 100 displacements")


def test_criterion_8_hudson_sweep():
    start = time.perf_counter()
    window = OamWindow(-4, 4)
    bad = []
    for seed in range(200):
        psi = random_pure_state(window, seed)
        if np.max(np.abs(psi.coefficients) ** 2) >= 0.999:
            continue
        rep = hudson_certify(psi)
        if rep.classification != "negative_witnessed" or rep.min_value >= -1e-6:
            bad.append(seed)
    eigen_bad = []
    for l0 in range(-8, 9):
        rep = hudson_certify(oam_eigenstate(l0, OamWindow(-8, 8)))
        if rep.classification != "oam_eigenstate" or not rep.min_value >= 0.0:
            eigen_bad.append(l0)
    elapsed = time.perf_counter() - start
    ok = not bad and not eigen_bad and elapsed < 30.0
    assert _report(
        8,
        ok,
        f"200 random all witnessed ({len(bad)} misses), "
        f"17 eigenstates certified ({len(eigen_bad)} misses), {elapsed:.1f}s",
    )


def test_criterion_9_negativity_claims():
    coh = hudson_certify(coherent_state(0, 0.0, 1.0, OamWindow(-8, 8)))
    vm2 = hudson_certify(von_mises_state(2.0, OamWindow(-12, 12)))
    vm0 = hudson_certify(von_mises_state(0.0, OamWindow(-8, 8)))
    ok = (
        coh.min_value < -1e-6
        and vm2.min_value < -1e-6
        and vm0.classification == "oam_eigenstate"
    )
    assert _report(
        9,
        ok,
        f"coherent min {coh.min_value:.3e}, von Mises(2) min {vm2.min_value:.3e}, "
        f"von Mises(0) -> {vm0.classification}",
    )


def test_criterion_10_flatness_lemma():
    witness = flatness_check(coherent_state(0, 0.0, 1.0, OamWindow(-8, 8)))
    worst = 0.0
    rng = np.random.default_rng(7)
    flat_ok = True
    for trial in range(20):
        coeffs = rng.uniform(-2, 2, size=4)

        def f(l):
            return float(np.polyval(coeffs, l))

        l0 = int(rng.integers(-4, 5))
        psi = apply_phase_function(oam_eigenstate(l0, OamWindow(-4, 4)), f)
        res = flatness_check(psi)
        flat_ok = flat_ok and res.flat
        worst = max(worst, res.max_violation)
    ok = (not witness.flat) and witness.witness is not None and flat_ok and worst <= 1e-10
    assert _report(
        10,
        ok,
        f"coherent witness at phi={witness.witness[0]:.3f}, "
        f"flat-family max violation {worst:.2e}",
    )


def test_criterion_11_autocorrelation_lemma():
    rng = np.random.default_rng(11)
    n = 512
    phi = -np.pi + TWO_PI * np.arange(n) / n
    ls = np.arange(-128, 129)
    proj = np.exp(-1j * ls[:, None] * phi[None, :]) / n
    worst = 0.0
    for trial in range(20):
        deg = 6
        a = rng.uniform(-1, 1, deg)
        b = rng.uniform(-1, 1, deg)
        lam = sum(a[k - 1] * np.cos(k * phi) + b[k - 1] * np.sin(k * phi)
                  for k in range(1, deg + 1))
        f = proj @ np.exp(1j * lam)
        res = autocorrelation_check(f, 12)
        worst = max(worst, res.max_abs)
    coh = autocorrelation_check(
        coherent_state(0, 0.0, 1.0, OamWindow(-8, 8)).coefficients, 12
    )
    ok = worst <= 1e-10 and not coh.ok
    assert _report(
        11,
        ok,
        f"flat-modulus autocorrelation max {worst:.2e}; coherent fails at "
        f"{coh.max_abs:.2e}",
    )


def test_criterion_12_star_product():
    window = OamWindow(-3, 3)
    grid = default_angle_grid(window)
    idem_worst = 0.0
    states = [random_pure_state(window, seed) for seed in range(10)]
    for psi in states:
        W = wigner_from_oam(to_density(psi), 16, grid)
        st = star_product(W, W, method="operator")
        idem_worst = max(idem_worst, float(np.max(np.abs(st.values - W.values))))
    devs = []
    for pad in (16, 32, 64):
        worst = 0.0
        for psi in states[:5]:
            W = wigner_from_oam(to_density(psi), pad, grid)
            op = star_product(W, W, method="operator")
            dr = star_product(W, W, method="direct")
            worst = max(worst, float(np.max(np.abs(op.values - dr.values))))
        devs.append(worst)
    r1, r2 = devs[0] / devs[1], devs[1] / devs[2]
    # "order >= 1" measured with the same ratio slack the criteria use for
    # first-order decay (2 +- 0.3): each doubling must shrink the deviation
    # by at least 1.7x
    ok = idem_worst <= 1e-10 and r1 >= 1.7 and r2 >= 1.7
    assert _report(
        12,
        ok,
        f"idempotency {idem_worst:.2e}; direct-vs-operator decay ratios "
        f"{r1:.2f}, {r2:.2f} per padding doubling",
    )


def test_criterion_13_cli_determinism(tmp_path):
    def run(*args):
        cp = subprocess.run(CLI + list(args), capture_output=True, text=False)
        assert cp.returncode == 0, cp.stderr
        return cp

    pairs = []
    for tag in ("a", "b"):
        state = tmp_path / f"state_{tag}.json"
        grid = tmp_path / f"grid_{tag}.csv"
        img = tmp_path / f"img_{tag}.ppm"
        run("state", "--kind", "coherent", "--l0", "1", "--phi0", "0.7",
            "--window", "-8:8", "-o", str(state))
        run("wigner", str(state), "--nphi", "48", "--pad", "16", "-o", str(grid))
        run("render", str(grid), "-o", str(img))
        scan = run("scan", "--samples", "5", "--window", "-4:4", "--seed", "3").stdout
        pairs.append((state.read_bytes(), grid.read_bytes(), img.read_bytes(), scan))
    ok = pairs[0] == pairs[1]
    seeds = [json.loads(line)["seed"]
             for line in pairs[0][3].decode().strip().splitlines()[:-1]]
    ok = ok and seeds == sorted(seeds)
    assert _report(13, ok, "state/wigner/render/scan outputs byte-identical across runs")

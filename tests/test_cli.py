import json
import subprocess
import sys

import numpy as np
import pytest

from cylwig import read_wigner, state_from_json

CLI = [sys.executable, "-m", "cylwig"]


def run(*args, check=True):
    cp = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and cp.returncode != 0:
        raise AssertionError(f"cylwig {' '.join(args)} failed: {cp.stderr}")
    return cp


def run_bytes(*args):
    return subprocess.run(CLI + list(args), capture_output=True)


class TestStateCommand:
    def test_eigen_state_file(self, tmp_path):
        out = tmp_path / "e.json"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(out))
        psi = state_from_json(out.read_text())
        assert psi.coefficient(0) == 1.0
        assert np.sum(np.abs(psi.coefficients)) == 1.0

    def test_vonmises_zero_matches_eigen_payload(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("state", "--kind", "vonmises", "--kappa", "0", "--window", "-8:8", "-o", str(a))
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_coherent_norm(self, tmp_path):
        out = tmp_path / "c.json"
        run("state", "--kind", "coherent", "--l0", "2", "--phi0", "1.5708",
            "--window", "-16:16", "-o", str(out))
        psi = state_from_json(out.read_text())
        assert abs(np.linalg.norm(psi.coefficients) - 1.0) < 1e-12

    def test_apply_transforms(self, tmp_path):
        out = tmp_path / "t.json"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-4:4",
            "--apply", "displace=2,0.5", "--apply", "lower", "-o", str(out))
        psi = state_from_json(out.read_text())
        assert abs(abs(psi.coefficient(1)) - 1.0) < 1e-14

    def test_invalid_flags_exit_2(self):
        cp = run("state", "--kind", "eigen", "--l0", "9", "--window", "-4:4", check=False)
        assert cp.returncode == 2
        cp = run("state", "--kind", "eigen", "--l0", "0", "--window", "oops", check=False)
        assert cp.returncode == 2

    def test_truncation_exit_3(self):
        cp = run("state", "--kind", "coherent", "--l0", "0", "--window", "-2:2", check=False)
        assert cp.returncode == 3
        assert "window" in cp.stderr


class TestWignerCommand:
    def test_eigen_rows(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(state))
        run("wigner", str(state), "--nphi", "64", "--pad", "8", "-o", str(grid))
        W = read_wigner(grid)
        assert np.all(W.row(0) == 1 / (2 * np.pi))
        off = np.delete(W.values, W.row_index(0), axis=0)
        assert np.all(off == 0.0)
        assert "0.15915494309189535" in grid.read_text()

    def test_methods_agree(self, tmp_path):
        state = tmp_path / "r.json"
        run("state", "--kind", "random", "--seed", "3", "--window", "-4:4", "-o", str(state))
        ga = tmp_path / "a.csv"
        go = tmp_path / "o.csv"
        run("wigner", str(state), "--method", "angle", "-o", str(ga))
        run("wigner", str(state), "--method", "oam", "-o", str(go))
        Wa, Wo = read_wigner(ga), read_wigner(go)
        assert np.max(np.abs(Wa.values - Wo.values)) <= 1e-10

    def test_density_with_angle_method_exit_2(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        dens = tmp_path / "d.json"
        run("state", "--kind", "eigen", "--l0", "1", "--window", "-4:4", "-o", str(state))
        run("wigner", str(state), "--nphi", "36", "--pad", "8", "-o", str(grid))
        run("reconstruct", str(grid), "--window", "-4:4", "-o", str(dens))
        cp = run("wigner", str(dens), "--method", "angle", check=False)
        assert cp.returncode == 2

    def test_band_limit_exit_3(self, tmp_path):
        state = tmp_path / "e.json"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(state))
        cp = run("wigner", str(state), "--nphi", "34", check=False)
        assert cp.returncode == 3


class TestCheckAndScan:
    def test_check_eigen(self, tmp_path):
        state = tmp_path / "e.json"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(state))
        cp = run("check", str(state))
        report = json.loads(cp.stdout)
        assert report["classification"] == "oam_eigenstate"
        assert report["min_value"] == 0

    def test_check_coherent(self, tmp_path):
        state = tmp_path / "c.json"
        run("state", "--kind", "coherent", "--l0", "0", "--window", "-8:8", "-o", str(state))
        cp = run("check", str(state))
        assert json.loads(cp.stdout)["classification"] == "negative_witnessed"

    def test_scan_stream_and_summary(self):
        cp = run("scan", "--samples", "8", "--window", "-4:4", "--seed", "7")
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 9
        seeds = [json.loads(line)["seed"] for line in lines[:-1]]
        assert seeds == list(range(7, 15))
        summary = json.loads(lines[-1])
        assert summary["samples"] == 8
        assert summary["summary"]["negative_witnessed"] == 8
        assert summary["summary"]["oam_eigenstate"] == 0

    def test_scan_negativity_is_not_an_error(self):
        cp = run("scan", "--samples", "2", "--window", "-4:4", "--seed", "0")
        assert cp.returncode == 0


class TestReconstructOverlapStar:
    @pytest.fixture()
    def delta_grid(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "1", "--window", "-4:4", "-o", str(state))
        run("wigner", str(state), "--nphi", "36", "--pad", "8", "-o", str(grid))
        return grid

    def test_reconstruct_delta(self, delta_grid, tmp_path):
        out = tmp_path / "d.json"
        run("reconstruct", str(delta_grid), "--window", "-4:4", "-o", str(out))
        data = json.loads(out.read_text())
        mat = np.array([[complex(re, im) for re, im in row] for row in data["elements"]])
        want = np.zeros((9, 9))
        want[5, 5] = 1.0
        assert np.max(np.abs(mat - want)) < 1e-12

    def test_overlap_purity(self, delta_grid):
        cp = run("overlap", str(delta_grid), str(delta_grid))
        assert abs(float(cp.stdout.strip()) - 1.0) < 1e-12

    def test_star_idempotent(self, delta_grid, tmp_path):
        out = tmp_path / "s.csv"
        run("star", str(delta_grid), str(delta_grid), "--method", "operator", "-o", str(out))
        a, b = read_wigner(delta_grid), read_wigner(out)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_rank_deficiency_exit_3(self, delta_grid):
        cp = run("reconstruct", str(delta_grid), "--window", "-9:9", check=False)
        assert cp.returncode == 3


class TestMalformedInput:
    def test_out_of_range_row_exit_2(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-8:8", "-o", str(state))
        run("wigner", str(state), "-o", str(grid))  # rows -136..136
        assert abs(float(run("overlap", str(grid), str(grid)).stdout) - 1.0) < 1e-12
        with open(grid, "a", encoding="utf-8") as fh:
            fh.write("-137,0,0.0,50.0\n")
        cp = run("overlap", str(grid), str(grid), check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "l=-137" in cp.stderr

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_value_exit_2(self, tmp_path, bad):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "-o", str(grid))
        lines = grid.read_text().splitlines()
        cell = lines.index(next(x for x in lines if x.startswith("0,3,")))
        lines[cell] = lines[cell].rsplit(",", 1)[0] + "," + bad
        grid.write_text("\n".join(lines) + "\n")
        cp = run("overlap", str(grid), str(grid), check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "(l=0, phi_index=3)" in cp.stderr

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("check", '{"format":"cylwig-state-v1","coefficients":[[1,0]]}'),
            ("wigner", '{"format":"cylwig-state-v1","coefficients":[[1,0]]}'),
            ("check", '{"format":"cylwig-state-v1","l_min":0,"coefficients":[1.0]}'),
            ("wigner", '{"format":"cylwig-state-v1","l_min":0,"coefficients":[[1,0,0]]}'),
            ("wigner", '{"format":"cylwig-density-v1","elements":[[[1,0]]]}'),
            ("wigner", '{"format":"cylwig-density-v1","l_min":0,"elements":[[1,0]]}'),
            ("wigner", "[1, 2]"),
            ("check", "[1, 2]"),
        ],
        ids=["check-no-l_min", "wigner-no-l_min", "check-scalar-coefficient",
             "wigner-triple-coefficient", "density-no-l_min", "density-flat-elements",
             "wigner-list", "check-list"],
    )
    def test_malformed_json_exit_2(self, tmp_path, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload + "\n")
        cp = run(command, str(path), check=False)
        assert cp.returncode == 2
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


class TestRender:
    def test_delta_has_one_nonwhite_row(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        img = tmp_path / "e.ppm"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-4:4", "-o", str(state))
        run("wigner", str(state), "--nphi", "36", "--pad", "4", "-o", str(grid))
        run("render", str(grid), "-o", str(img))
        data = img.read_bytes()
        header, _, rest = data.partition(b"\n255\n")
        magic, dims = header.split(b"\n")
        assert magic == b"P6"
        width, height = (int(v) for v in dims.split())
        assert (width, height) == (36, 17)  # rows -8..8 = span + 2*pad + 1
        pixels = np.frombuffer(rest, dtype=np.uint8).reshape(height, width, 3)
        nonwhite = np.any(pixels != 255, axis=2).any(axis=1)
        assert nonwhite.sum() == 1

    def test_coherent_shows_blue(self, tmp_path):
        state = tmp_path / "c.json"
        grid = tmp_path / "c.csv"
        img = tmp_path / "c.ppm"
        run("state", "--kind", "coherent", "--l0", "0", "--window", "-8:8", "-o", str(state))
        run("wigner", str(state), "--nphi", "48", "--pad", "16", "-o", str(grid))
        run("render", str(grid), "-o", str(img))
        data = img.read_bytes()
        _, _, rest = data.partition(b"\n255\n")
        pixels = np.frombuffer(rest, dtype=np.uint8).reshape(-1, 3).astype(int)
        assert np.any(pixels[:, 2] > pixels[:, 0])  # blue channel dominant somewhere

    def test_byte_identical_runs(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-4:4", "-o", str(state))
        run("wigner", str(state), "--nphi", "36", "--pad", "4", "-o", str(grid))
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        run("render", str(grid), "-o", str(a))
        run("render", str(grid), "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exit_2(self, tmp_path):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-4:4", "-o", str(state))
        run("wigner", str(state), "--nphi", "36", "--pad", "4", "-o", str(grid))
        cp = run("render", str(grid), "-o", str(tmp_path / "x.ppm"), "--range", "bad",
                 check=False)
        assert cp.returncode == 2


class TestRoundTripFidelity:
    def test_state_wigner_reconstruct_fidelity(self, tmp_path):
        state = tmp_path / "r.json"
        grid = tmp_path / "r.csv"
        dens = tmp_path / "r_dens.json"
        run("state", "--kind", "random", "--seed", "11", "--window", "-5:5", "-o", str(state))
        run("wigner", str(state), "--nphi", "64", "--pad", "8", "-o", str(grid))
        run("reconstruct", str(grid), "--window", "-5:5", "-o", str(dens))
        psi = state_from_json(state.read_text())
        data = json.loads(dens.read_text())
        mat = np.array([[complex(re, im) for re, im in row] for row in data["elements"]])
        fidelity = np.real(np.vdot(psi.coefficients, mat @ psi.coefficients))
        assert fidelity >= 1 - 1e-9

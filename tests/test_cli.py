import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from cylwig import cli, read_wigner, state_from_json, state_to_json

CLI = [sys.executable, "-m", "cylwig"]


def run(*args, check=True):
    cp = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and cp.returncode != 0:
        raise AssertionError(f"cylwig {' '.join(args)} failed: {cp.stderr}")
    return cp


def run_bytes(*args):
    return subprocess.run(CLI + list(args), capture_output=True)


def _feed(fifo, text: str) -> None:
    """Write ``text`` into the FIFO ``fifo`` for a reader that may close it
    before reading all of it."""
    try:
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)
    except BrokenPipeError:
        pass


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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "scan"])
    def test_non_finite_tolerance_exit_2(self, tmp_path, command, tol):
        """A NaN tolerance would pass every grid and print invalid JSON."""
        if command == "check":
            state = tmp_path / "e.json"
            run("state", "--kind", "eigen", "--window", "-4:4", "-o", str(state))
            args = ["check", str(state)]
        else:
            args = ["scan", "--samples", "2", "--window", "-4:4"]
        cp = run(*args, "--tol", tol, check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == f"error: tolerance must be finite and positive, got {tol}\n"


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

    @pytest.mark.parametrize("command", [["overlap"], ["star", "--method", "direct"]])
    def test_same_file_twice_matches_two_files(self, tmp_path, command):
        state = tmp_path / "r.json"
        grid = tmp_path / "r.csv"
        twin = tmp_path / "twin.csv"
        run("state", "--kind", "random", "--seed", "3", "--window", "-3:3", "-o", str(state))
        run("wigner", str(state), "--pad", "8", "-o", str(grid))
        twin.write_bytes(grid.read_bytes())
        once = run_bytes(command[0], str(grid), str(grid), *command[1:])
        twice = run_bytes(command[0], str(grid), str(twin), *command[1:])
        assert once.returncode == 0 and once.stdout == twice.stdout

    def test_complex_star_exit_3(self, tmp_path):
        grids = []
        for seed in (1, 2):
            state = tmp_path / f"r{seed}.json"
            grids.append(str(tmp_path / f"r{seed}.csv"))
            run("state", "--kind", "random", "--seed", str(seed), "--window", "-3:3",
                "-o", str(state))
            run("wigner", str(state), "--pad", "8", "-o", grids[-1])
        cp = run("star", *grids, check=False)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: star product has imaginary part ")
        assert cp.stderr.count("\n") == 1

    def test_rank_deficiency_exit_3(self, delta_grid):
        cp = run("reconstruct", str(delta_grid), "--window", "-9:9", check=False)
        assert cp.returncode == 3


class TestGridOutput:
    """``wigner`` and ``star`` stream the grid to ``-o`` or to stdout."""

    @pytest.fixture()
    def grid(self, tmp_path):
        state = tmp_path / "r.json"
        grid = tmp_path / "r.csv"
        run("state", "--kind", "random", "--seed", "3", "--window", "-3:3", "-o", str(state))
        run("wigner", str(state), "--pad", "8", "-o", str(grid))
        return state, grid

    @pytest.mark.parametrize(
        "command",
        [["wigner", "{state}", "--method", "oam"], ["wigner", "{state}", "--method", "angle"],
         ["star", "{grid}", "{grid}", "--method", "operator"],
         ["star", "{grid}", "{grid}", "--method", "direct"]],
        ids=["wigner_oam", "wigner_angle", "star_operator", "star_direct"],
    )
    def test_stdout_matches_file(self, tmp_path, grid, command):
        args = [a.format(state=grid[0], grid=grid[1]) for a in command]
        out = tmp_path / "out.csv"
        to_file = run_bytes(*args, "-o", str(out))
        to_stdout = run_bytes(*args)
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert to_stdout.returncode == 0
        assert to_stdout.stdout == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["wigner", "star"])
    def test_failed_write_exit_2(self, grid, command):
        """A write that fails part way through is one error line, exit 2."""
        state, grid = grid
        args = ["wigner", str(state)] if command == "wigner" else ["star", str(grid), str(grid)]
        cp = run(*args, "-o", "/dev/full", check=False)
        assert cp.returncode == 2
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


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

    def test_json_grid_exit_2(self, tmp_path):
        """A grid's payload as one JSON object is refused by every command
        that reads grids, in one line, and nothing is written."""
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "-o", str(grid))
        W = read_wigner(grid)
        twin = tmp_path / "grid.json"
        twin.write_text(json.dumps({
            "format": "cylwig-wigner-v1", "l_lo": W.l_lo, "l_hi": W.l_hi,
            "n_phi": W.grid.n_phi, "source_l_min": -2, "source_l_max": 2,
            "pad": W.pad, "values": W.values.tolist(),
        }))
        out = tmp_path / "out"
        for args in (["reconstruct", str(twin), "--window", "-2:2", "-o", str(out)],
                     ["render", str(twin), "-o", str(out)],
                     ["overlap", str(twin), str(grid)]):
            cp = run(*args, check=False)
            assert cp.returncode == 2, args
            assert cp.stdout == "" and not out.exists()
            assert cp.stderr == "error: missing or wrong '# format=cylwig-wigner-v1' header\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines + ["0,3,0.5"],  # three fields
            lambda lines: lines + [lines[-1] + ",1"],  # five fields
            lambda lines: lines[:2] + ["0,3,abc,0.1"] + lines[2:],  # non-numeric phi
            lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0] + ",x"] + lines[5:],
            lambda lines: lines[:4] + ["1.5" + lines[4][lines[4].index(","):]] + lines[5:],
            lambda lines: lines[:2],  # header only
            lambda lines: lines[:4] + ["  "] + lines[4:],  # a line of spaces
            lambda lines: [lines[0], "# l_lo=0 l_hi=100000000000 n_phi=4 source_l_min=0 "
                           "source_l_max=0 pad=0", "0,0,-3.1415926535897931,0.25",
                           "0,1,-1.5707963267948966,0.25"],  # huge header
            lambda lines: [lines[0], f"# l_lo=0 l_hi=-1 n_phi={2**52} source_l_min=0 "
                           "source_l_max=0 pad=0"] + lines[2:],  # no rows, 2**52 nodes
            lambda lines: [lines[0], lines[1].replace("pad=1", "pad=x")] + lines[2:],
        ],
        ids=["three_fields", "five_fields", "non_numeric_phi", "non_numeric_value",
             "fractional_l", "no_data_rows", "spaces_line", "huge_header",
             "l_hi_below_l_lo", "non_integer_pad"],
    )
    @pytest.mark.parametrize("command", ["render", "overlap"])
    def test_malformed_csv_exit_2(self, tmp_path, edit, command):
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "--pad", "1", "-o", str(grid))
        grid.write_text("\n".join(edit(grid.read_text().splitlines())) + "\n")
        args = [str(grid), "-o", str(tmp_path / "e.ppm")] if command == "render" else [
            str(grid), str(grid)]
        cp = run(command, *args, check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1

    def test_pipe_exit_2(self, tmp_path):
        """A grid read through a FIFO, or piped to ``/dev/stdin``, is refused
        in one line naming the cause: a pipe has no size to bound the grid
        by."""
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--l0", "0", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "-o", str(grid))
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_feed, args=(fifo, grid.read_text()), daemon=True)
        writer.start()
        try:
            fed = run("overlap", str(fifo), str(grid), check=False)
        finally:
            writer.join(timeout=10)
        piped = subprocess.run(
            CLI + ["render", "/dev/stdin", "-o", str(tmp_path / "e.ppm")],
            input=grid.read_text(), capture_output=True, text=True,
        )
        for cp, name in ((fed, fifo), (piped, "/dev/stdin")):
            assert cp.returncode == 2
            assert cp.stdout == "" and "expected shape" not in cp.stderr
            assert cp.stderr == f"error: wigner CSV {name} is a pipe or device, not a regular file\n"
        assert not (tmp_path / "e.ppm").exists()

    @pytest.mark.parametrize(
        "header, fit",
        [("source_l_min=-3 source_l_max=3 pad=0", "pad it by 2"),
         ("source_l_min=-5 source_l_max=5 pad=2", "pad it by 0")],
        ids=["pad_lowered", "window_widened"],
    )
    @pytest.mark.parametrize("method", ["direct", "operator"])
    def test_header_pad_mismatch_exit_2(self, tmp_path, header, fit, method):
        """A +-3 grid stored at pad 2 whose header misstates the pad, or the
        source window, is refused on reading: the star product would
        otherwise judge the padding by the header."""
        state = tmp_path / "r.json"
        grid = tmp_path / "r.csv"
        run("state", "--kind", "random", "--seed", "1", "--window", "-3:3", "-o", str(state))
        run("wigner", str(state), "--pad", "2", "-o", str(grid))
        lines = grid.read_text().splitlines()
        lines[1] = "# l_lo=-5 l_hi=5 n_phi=28 " + header
        grid.write_text("\n".join(lines) + "\n")
        cp = run("star", str(grid), str(grid), "--method", method, check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: pad ") and cp.stderr.count("\n") == 1
        assert fit in cp.stderr

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
            *(("check", '{"format":"cylwig-state-v1","l_min":%s,"coefficients":[[1,0]]}' % v)
              for v in ("1.5", "true", '"3"', "-2.9999", str(10**20))),
            ("wigner", '{"format":"cylwig-density-v1","l_min":1.5,"elements":[[[1,0]]]}'),
            ("wigner", '{"format":"cylwig-density-v1","l_min":%d,"elements":[[[1,0]]]}'
             % 10**20),
            ("check", '{"format":"cylwig-state-v1","l_min":0,"coefficients":[[%d,0]]}'
             % 10**400),
            ("wigner", '{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,%d]]]}'
             % 10**400),
            ("wigner", '{"format":["cylwig-state-v1"],"l_min":0,"coefficients":[[1,0]]}'),
        ],
        ids=["check-no-l_min", "wigner-no-l_min", "check-scalar-coefficient",
             "wigner-triple-coefficient", "density-no-l_min", "density-flat-elements",
             "wigner-list", "check-list", "check-l_min-float", "check-l_min-bool",
             "check-l_min-string", "check-l_min-near-integer", "check-l_min-beyond-2**53",
             "density-l_min-float", "density-l_min-beyond-2**53",
             "check-coefficient-beyond-float", "density-element-beyond-float",
             "wigner-format-list"],
    )
    def test_malformed_json_exit_2(self, tmp_path, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload + "\n")
        cp = run(command, str(path), check=False)
        assert cp.returncode == 2
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        if "0" * 400 in payload:
            assert "malformed cylwig-" in cp.stderr and "payload:" in cp.stderr


    @pytest.mark.parametrize("text", ["# format=cylwig-wigner-v1\n0,0,-3.14,0.25\n",
                                      '{"format":"cylwig-state-v1","l_min":0,'],
                             ids=["grid_csv", "truncated_state"])
    @pytest.mark.parametrize("command", ["check", "wigner"])
    def test_undecodable_json_named_exit_2(self, tmp_path, command, text):
        """Text that is not JSON is named by its path, in one wording: ``check``
        and ``wigner`` read their input through the same decoder."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        cp = run(command, str(path), check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith(f"error: {path} is not a JSON payload (Expecting ")
        assert cp.stderr.endswith(")\n") and cp.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("check", '{"format":"cylwig-density-v1","l_min":0,"elements":[[[1,0]]]}',
             "{path} holds a density matrix, not a pure state"),
            *((command, payload, message) for command in ("check", "wigner")
              for payload, message in (
                  ("not json", "{path} is not a JSON payload "
                   "(Expecting value: line 1 column 1 (char 0))"),
                  ("[1, 2]", "{path} holds a JSON list, not a payload"),
                  ('{"format":"cylwig-wigner-v1","l_min":0}',
                   "{path} holds payload format 'cylwig-wigner-v1', "
                   "not cylwig-state-v1 or cylwig-density-v1"),
              )),
        ],
        ids=["check-density", "check-not-json", "check-list", "check-foreign-format",
             "wigner-not-json", "wigner-list", "wigner-foreign-format"],
    )
    def test_not_a_state_refused_exit_2(self, tmp_path, command, payload, message):
        """``check`` certifies a pure state: a density file, text that is not
        JSON, a JSON list or a foreign ``format`` is refused in one line, and
        ``wigner`` words the last three alike; neither writes its output."""
        path, out = tmp_path / "in.json", tmp_path / "out"
        path.write_text(payload + "\n")
        cp = run(command, str(path), "-o", str(out), check=False)
        assert cp.returncode == 2
        assert cp.stdout == "" and not out.exists()
        assert cp.stderr == "error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize(
        "args",
        [["state", "--kind", "eigen", "--l0", str(10**20)],
         ["scan", "--samples", "1"]],
        ids=["state", "scan"],
    )
    def test_window_beyond_2_53_exit_2(self, args):
        bound = str(10**20)
        cp = run(*args, "--window", f"{bound}:{bound}", check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == f"error: window [{bound}, {bound}] has a bound beyond 2**53\n"


class TestNormAtTolerance:
    """A state whose norm misses 1 by 0.9e-12, within ``PureState``'s 1e-12,
    though its squared norm misses by 1.8e-12."""

    @pytest.fixture()
    def state(self, tmp_path):
        path = tmp_path / "r.json"
        run("state", "--kind", "random", "--seed", "4", "--window", "-5:5", "-o", str(path))
        psi = state_from_json(path.read_text())
        scaled = type(psi)(psi.window, psi.coefficients * (1 + 0.9e-12))
        path.write_text(state_to_json(scaled) + "\n")
        assert abs(np.linalg.norm(state_from_json(path.read_text()).coefficients)
                   - 1.0 - 0.9e-12) < 1e-15
        return path

    def test_check(self, state):
        report = json.loads(run("check", str(state)).stdout)
        assert report["classification"] == "negative_witnessed"

    def test_wigner_both_methods_agree(self, state, tmp_path):
        grids = []
        for method in ("oam", "angle"):
            out = tmp_path / f"{method}.csv"
            run("wigner", str(state), "--method", method, "-o", str(out))
            grids.append(read_wigner(out).values)
        assert np.max(np.abs(grids[0] - grids[1])) < 1e-13


class TestMemoryBudget:
    @pytest.mark.parametrize("command", [["wigner"], ["wigner", "--method", "angle"],
                                         ["check"]])
    def test_huge_pad_exit_3(self, tmp_path, command):
        state = tmp_path / "r.json"
        run("state", "--kind", "random", "--seed", "1", "--window", "-4:4", "-o", str(state))
        cp = run(command[0], str(state), "--pad", str(10**12), *command[1:], check=False)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "memory budget" in cp.stderr

    @pytest.mark.parametrize("kind", ["random", "eigen"])
    def test_huge_window_state_exit_3(self, kind):
        cp = run("state", "--kind", kind, "--window", "-100000000:100000000", check=False)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "memory budget" in cp.stderr

    def test_flatness_gate_exit_3(self, tmp_path):
        state = tmp_path / "e.json"
        run("state", "--kind", "eigen", "--window", "-4:4", "-o", str(state))
        cp = run("check", str(state), "--nphi", "40000", check=False)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("error: flatness check needs about ")
        assert cp.stderr.count("\n") == 1 and "memory budget" in cp.stderr


    def test_grid_over_budget_exit_3(self, tmp_path):
        """A grid over the memory budget exits 3 once its header is read."""
        state = tmp_path / "e.json"
        grid = tmp_path / "e.csv"
        run("state", "--kind", "eigen", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "-o", str(grid))
        code = "from cylwig import cli, errors; errors.MEMORY_BUDGET = 1024; cli.main()"
        cp = subprocess.run([sys.executable, "-c", code, "overlap", str(grid), str(grid)],
                            capture_output=True, text=True)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: wigner grid needs about ")
        assert cp.stderr.count("\n") == 1 and "memory budget" in cp.stderr


class TestNonFiniteState:
    """A non-finite input exits 2 with nothing written, whether it is the
    state command's parameter or a coefficient in a state file."""

    NAN_STATE = '{"format":"cylwig-state-v1","l_min":0,"coefficients":[[NaN,0],[1,0]]}'

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize("command", ["state", "wigner"])
    def test_exit_2_nothing_written(self, tmp_path, command, to_file):
        if command == "state":
            args = ["state", "--kind", "vonmises", "--kappa", "nan", "--window", "-4:4"]
        else:
            path = tmp_path / "nan.json"
            path.write_text(self.NAN_STATE + "\n")
            args = ["wigner", str(path), "--method", "angle"]
        out = tmp_path / "out"
        cp = run(*args, *(["-o", str(out)] if to_file else []), check=False)
        assert cp.returncode == 2
        assert cp.stdout == "" and not out.exists()
        assert "Traceback" not in cp.stderr
        last = cp.stderr.splitlines()[-1]
        if command == "state":
            assert last == "error: kappa must be finite and >= 0, got nan"
        else:
            assert last.startswith("error: coefficient 0 (l=") and "is not finite" in last

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_exit_2(self, sigma):
        cp = run("state", "--kind", "coherent", "--sigma", sigma, "--window", "-4:4",
                 check=False)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == f"error: sigma must be finite and positive, got {sigma}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            *((["--phi0", v], f"phi0={v} makes the phase l*phi0 non-finite on "
               "window [-8, 8]") for v in ("inf", "-inf", "nan")),
            (["--phi0", "1e308"],
             "phi0=1e+308 makes the phase l*phi0 non-finite on window [-8, 8]"),
            (["--sigma", "1e-300"], "sigma=1e-300 has a square outside the float range"),
            (["--sigma", "1e308"], "sigma=1e+308 has a square outside the float range"),
            (["--apply", "displace=1,inf"],
             "phid=inf makes the displacement phase non-finite on window [-8, 8]"),
            (["--apply", "displace=1,1e308"],
             "phid=1e+308 makes the displacement phase non-finite on window [-8, 8]"),
            (["--apply", "phase=1e308,1e308"], "phase function f(l=-8) is not finite: -inf"),
            (["--apply", "phase=nan"], "phase function f(l=-8) is not finite: nan"),
            (["--apply", "displace=%d,1" % 10**400],
             "window [%d, %d] has a bound beyond 2**53" % (10**400 - 8, 10**400 + 8)),
        ],
        ids=["phi0-inf", "phi0--inf", "phi0-nan", "phi0-1e308", "sigma-1e-300",
             "sigma-1e308", "displace-inf", "displace-1e308", "phase-1e308", "phase-nan",
             "displace-beyond-2**53"],
    )
    def test_non_finite_phase_or_width_exit_2(self, tmp_path, args, message):
        """A phase or a width that leaves the float range is refused by name
        in one line, with no numpy warning before it."""
        out = tmp_path / "s.json"
        cp = run("state", "--kind", "coherent", "--window", "-8:8", *args,
                 "-o", str(out), check=False)
        assert cp.returncode == 2
        assert cp.stdout == "" and not out.exists()
        assert cp.stderr == f"error: {message}\n"

    def test_large_kappa_exit_3(self):
        """``exp(kappa cos phi)`` would overflow here: the window is refused by
        name, with no RuntimeWarning on stderr."""
        cp = run("state", "--kind", "vonmises", "--kappa", "1000", "--window", "-4:4",
                 check=False)
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "for kappa=1000" in cp.stderr


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
        out = tmp_path / "x.ppm"
        for bad in ("bad", "1:-1", "nan:nan", "inf:inf", "-inf:1"):
            cp = run("render", str(grid), "-o", str(out), "--range", bad, check=False)
            assert cp.returncode == 2, bad
            assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
            assert not out.exists()


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


class TestInProcess:
    def test_redirected_streams_are_released(self, tmp_path):
        """Runs through the click entry point in one process, each under its
        own redirected stdout and stderr, leave none of those streams alive:
        a result line (``overlap``), text on stdout (``state``), a residual
        warning beside a payload (``reconstruct --method literal``) and an
        error line (``wigner`` of text that is not JSON)."""
        state, grid, bad = tmp_path / "s.json", tmp_path / "g.csv", tmp_path / "bad.json"
        run("state", "--kind", "random", "--seed", "2", "--window", "-2:2", "-o", str(state))
        run("wigner", str(state), "--pad", "2", "-o", str(grid))
        bad.write_text("not json\n")
        jobs = [
            (["overlap", str(grid), str(grid)], 0, ""),
            (["state", "--kind", "eigen", "--window", "-1:1"], 0, ""),
            (["reconstruct", str(grid), "--window", "-2:2", "--method", "literal"],
             0, "warning: reconstruction residual "),
            (["wigner", str(bad)], 2, f"error: {bad} is not a JSON payload"),
        ]
        released = []
        for args, code, warning in jobs * 3:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.cli.main(args=args, prog_name="cylwig", standalone_mode=False)
                    got = 0
                except SystemExit as exc:
                    got = exc.code
            assert got == code, args
            assert (out.getvalue() != "") == (code == 0), args
            assert err.getvalue().startswith(warning), args
            assert err.getvalue().count("\n") == (1 if warning else 0), args
            released += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert sum(ref() is not None for ref in released) == 0

"""Tests for the command line surface."""

import json
import re

import numpy as np
import pytest

from rmtlab.cli import main
from rmtlab.equilibrium import MultiCutError, NonConvergenceError
from rmtlab.mc import AcceptanceRateError
from rmtlab.orthopoly import UnderflowError


def strip_timestamp(text: str) -> str:
    return re.sub(r"# timestamp = .*", "", text)


def parse_table(path):
    """The numeric rows of a CSV output, each cell read back with float()."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])


def grid_columns(grid):
    return np.stack([g.ravel() for g in np.meshgrid(grid, grid, indexing="ij")], axis=1)


class TestEqm:
    def test_semicircle_json(self, tmp_path):
        out = tmp_path / "eqm.json"
        rc = main(["eqm", "--potential", "0,0,0.5", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["results"]["support"][0] == pytest.approx(-2.0, abs=1e-10)
        assert obj["results"]["support"][1] == pytest.approx(2.0, abs=1e-10)
        assert obj["config"]["potential"] == "0,0,0.5"
        assert obj["results"]["classification"] == []
        assert sorted(obj["results"]) == ["classification", "ell", "h", "moments", "support"]

    def test_multicut_exit3(self, tmp_path):
        out = tmp_path / "eqm.json"
        rc = main(["eqm", "--potential", "0,0,-2,0,0.25", "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_barely_two_cut_exit3(self, tmp_path):
        out = tmp_path / "eqm.json"
        rc = main(["eqm", "--potential", "0,0,-1.001,0,0.25", "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_hard_edge_negligible_leading_coefficient_exit0(self, tmp_path):
        # the endpoint equation -1 + b/4 + 4.7e-301 b^3 = 0 has the root
        # b = 4 of its linear part; the cubic term cannot move it
        import warnings

        out = tmp_path / "eqm.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["eqm", "--potential", "0,1,0,1e-300", "--hard-edge", "--out", str(out)])
        assert rc == 0
        support = json.loads(out.read_text())["results"]["support"]
        assert support == [0.0, pytest.approx(4.0, abs=1e-14)]

    def test_json_only(self, tmp_path, monkeypatch):
        # eqm writes JSON whatever --out is called; --format is gone
        monkeypatch.chdir(tmp_path)
        assert main(["eqm", "--potential", "0,0,0.5", "--out", "eqm.csv"]) == 0
        config = json.loads((tmp_path / "eqm.csv").read_text())["config"]
        assert sorted(config) == ["alpha", "command", "hard_edge", "out", "potential",
                                  "version"]
        assert main(["eqm", "--potential", "0,0,0.5", "--format", "csv",
                     "--out", "x.csv"]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_solver_diagnostics(self, tmp_path):
        out = tmp_path / "eqm.json"
        assert main(["eqm", "--potential", "0,0,-1,0,0.25", "--out", str(out)]) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["solver"] == "soft-newton"
        assert 1 <= diag["iterations"] <= 12
        assert diag["residual"] <= 1e-14
        assert abs(diag["margin"]) <= 1e-14  # h(0) = 0: critical
        assert main(["eqm", "--potential", "0,1", "--hard-edge", "--out", str(out)]) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["solver"] == "hard-newton"
        assert diag["margin"] == pytest.approx(1.0)

    def test_malformed_potential_exit2(self, tmp_path):
        out = tmp_path / "eqm.json"
        rc = main(["eqm", "--potential", "0,zap,1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestKernel:
    def test_sine_table(self, tmp_path):
        out = tmp_path / "k.csv"
        rc = main(["kernel", "--family", "sine", "--grid=-3:3:11",
                   "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 121
        for ln in lines[1:]:
            x, y, v = (float(t) for t in ln.split(","))
            if x == y:
                assert v == 1.0

    def test_matrix_family_columns(self, tmp_path):
        out = tmp_path / "k4.csv"
        rc = main(["kernel", "--family", "sine_beta4", "--grid", "0:1:3",
                   "--out", str(out)])
        assert rc == 0
        header = [ln for ln in out.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header == "x,y,k11,k12,k21,k22"

    @pytest.mark.parametrize("family", ["sine", "sine_beta1"])
    def test_table_parses_back_bit_identical(self, tmp_path, family):
        from rmtlab.kernels import KernelHandle

        out = tmp_path / "k.csv"
        assert main(["kernel", "--family", family, "--grid=-2:2:9", "--out", str(out)]) == 0
        grid = np.linspace(-2.0, 2.0, 9)
        want = np.reshape(KernelHandle(family).evaluate(grid[:, None], grid[None, :]),
                          (grid.size ** 2, -1))
        got = parse_table(out)
        assert got.shape == (81, 2 + want.shape[1])
        assert got[:, :2].tobytes() == grid_columns(grid).tobytes()
        assert np.ascontiguousarray(got[:, 2:]).tobytes() == want.tobytes()

    def test_bad_family_parameters_exit2(self, tmp_path):
        rc = main(["kernel", "--family", "bessel_hard", "--grid", "1:2:3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_grid_exit2(self, tmp_path):
        rc = main(["kernel", "--family", "sine", "--grid", "3:-3:11",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestOppoly:
    def test_recurrence_table(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["oppoly", "--potential", "0,0,0.5", "--N", "16",
                   "--nmax", "12", "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "k,a,b,gamma_sq"
        assert len(lines) == 1 + 13
        k, a, b, g = lines[4].split(",")
        assert float(a) == pytest.approx(3.0 / 16.0, abs=1e-11)

    def test_kernel_grid_emission(self, tmp_path):
        out = tmp_path / "t.csv"
        kout = tmp_path / "kn.csv"
        rc = main(["oppoly", "--potential", "0,0,0.5", "--N", "8",
                   "--nmax", "8", "--truncation", "6", "--out", str(out),
                   "--kernel-n", "8", "--kernel-grid=-1:1:5",
                   "--kernel-out", str(kout)])
        assert rc == 0
        lines = [ln for ln in kout.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == 1 + 25
        # each header records what made its file: the table's the truncation,
        # the kernel file's also the kernel arguments
        kernel_keys = {"# kernel_n = 8", "# kernel_grid = -1:1:5", f"# kernel_out = {kout}"}
        table_head = set(out.read_text().splitlines())
        assert "# truncation = 6.0" in table_head and not kernel_keys & table_head
        assert {"# truncation = 6.0"} | kernel_keys <= set(kout.read_text().splitlines())

    def test_kernel_grid_parses_back_bit_identical(self, tmp_path):
        from rmtlab import orthopoly as op
        from rmtlab.equilibrium import Potential

        kout = tmp_path / "kn.csv"
        assert main(["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16",
                     "--kernel-n", "12", "--kernel-grid=-1.5:1.5:13",
                     "--kernel-out", str(kout), "--out", str(tmp_path / "t.csv")]) == 0
        grid = np.linspace(-1.5, 1.5, 13)
        w = op.WeightSpec(Potential((0.0, 0.0, 0.5)), N=16)
        want = op.cd_kernel_grid(op.recurrence_table(w, 16), 12, grid, grid)
        got = parse_table(kout)
        assert got[:, :2].tobytes() == grid_columns(grid).tobytes()
        assert np.ascontiguousarray(got[:, 2]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["file", "empty_dir"])
    def test_cache_variable_is_ignored(self, tmp_path, monkeypatch, kind):
        # tables are recomputed on every run: RMTLAB_CACHE naming a regular
        # file or an empty directory changes nothing and gets nothing written
        target = tmp_path / "cache"
        if kind == "file":
            target.write_text("not a directory\n")
        else:
            target.mkdir()
        monkeypatch.setenv("RMTLAB_CACHE", str(target))
        out = tmp_path / "t.csv"
        assert main(["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "12",
                     "--out", str(out)]) == 0
        assert out.exists()
        if kind == "file":
            assert target.read_text() == "not a directory\n"
        else:
            assert list(target.iterdir()) == []

    def test_fractional_alpha(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["oppoly", "--potential", "0,0,0.5", "--alpha", "0.25",
                     "--N", "64", "--nmax", "64", "--out", str(out)]) == 0

    @pytest.mark.parametrize("args", [["--N", "8", "--nmax", "600"],
                                      ["--N", "8", "--nmax", "0"],
                                      ["--N", "0", "--nmax", "8"],
                                      ["--N", "8", "--nmax", "8", "--kernel-n", "9",
                                       "--kernel-grid=-1:1:3", "--kernel-out", "k.csv"],
                                      ["--N", "8", "--nmax", "8", "--kernel-out", "k.csv"]])
    def test_out_of_range_exit2(self, tmp_path, monkeypatch, capsys, args):
        # a bad --nmax, --N or --kernel-n (or --kernel-out without --kernel-n)
        # is a validation error, not a traceback, and writes no file
        monkeypatch.chdir(tmp_path)
        assert main(["oppoly", "--potential", "0,0,0.5", "--out", "t.csv"] + args) == 2
        assert capsys.readouterr().err.startswith("rmtlab: ")
        assert list(tmp_path.iterdir()) == []

    def test_constant_shift_of_the_potential(self, tmp_path, monkeypatch, capsys):
        # V + 800 leaves K_n as it is and writes the underflowing norms as
        # 0.0; V - 800 overflows them, a numerical failure
        monkeypatch.chdir(tmp_path)
        kernels = {}
        for c in ("0", "800"):
            assert main(["oppoly", f"--potential={c},0,0.5", "--N", "1", "--nmax", "8",
                         "--kernel-n", "8", "--kernel-grid=-1:1:3", "--kernel-out", f"k{c}.csv",
                         "--out", f"t{c}.csv"]) == 0
            kernels[c] = parse_table(tmp_path / f"k{c}.csv")[:, 2]
        np.testing.assert_allclose(kernels["800"], kernels["0"], rtol=1e-12, atol=0.0)
        assert (parse_table(tmp_path / "t800.csv")[:, 3] == 0.0).all()
        assert main(["oppoly", "--potential=-800,0,0.5", "--N", "1", "--nmax", "8",
                     "--kernel-n", "8", "--kernel-grid=-1:1:3", "--kernel-out", "k.csv",
                     "--out", "t.csv"]) == 3
        assert "non-finite value in table column 'gamma_sq'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k0.csv", "k800.csv",
                                                             "t0.csv", "t800.csv"]

    def test_huge_constant_term(self, tmp_path, monkeypatch):
        # V(0) = 1e30 would round away x^2/2 if it were evaluated with it;
        # it enters only the norms, so a, b and K_n are those of V(0) = 0
        monkeypatch.chdir(tmp_path)
        for c in ("0", "1e30"):
            assert main(["oppoly", f"--potential={c},0,0.5", "--N", "8", "--nmax", "8",
                         "--kernel-n", "8", "--kernel-grid=-1:1:5", "--kernel-out",
                         f"k{c}.csv", "--out", f"t{c}.csv"]) == 0
        t0, t30 = parse_table(tmp_path / "t0.csv"), parse_table(tmp_path / "t1e30.csv")
        assert np.array_equal(t30[:, :3], t0[:, :3])
        assert (t30[:, 3] == 0.0).all()
        assert np.array_equal(parse_table(tmp_path / "k1e30.csv"), parse_table(tmp_path / "k0.csv"))
        assert main(["converge", "--potential=1e30,0,0.5", "--mode", "bulk", "--n", "16,32",
                     "--out", "c.csv"]) == 0

    def test_recurrence_delta_header(self, tmp_path):
        # the virial residual of the table's one Stieltjes pass, a
        # deterministic diagnostic that reruns write the same
        heads = []
        for name in ("a.csv", "b.csv"):
            assert main(["oppoly", "--potential", "0,0,-1,0,0.25", "--N", "64", "--nmax", "64",
                         "--out", str(tmp_path / name)]) == 0
            heads.append([ln for ln in (tmp_path / name).read_text().splitlines()
                          if ln.startswith("# diag.")])
        (line,), _ = heads
        assert heads[1] == heads[0] and line.startswith("# diag.recurrence_delta = ")
        assert 0.0 <= float(line.split(" = ")[1]) <= 1e-12

    def test_too_few_nodes_exit3(self, tmp_path, monkeypatch, capsys):
        from rmtlab import orthopoly

        real = orthopoly._stieltjes
        monkeypatch.setattr(orthopoly, "_stieltjes",
                            lambda w, n, lo, hi, nodes: real(w, n, lo, hi, 128))
        rc = main(["oppoly", "--potential", "0,0,0.5", "--N", "16",
                   "--nmax", "16", "--out", str(tmp_path / "t.csv")])
        assert rc == 3 and not (tmp_path / "t.csv").exists()
        assert "virial residual" in capsys.readouterr().err

    def test_window_that_cuts_the_weight_exit3(self, tmp_path, capsys):
        # the window passes the weight's own tail check, but P_64 spreads
        # over |x| < 16; the table came out with a_64 = 49.06 instead of 64
        rc = main(["oppoly", "--potential", "0,0,0.5", "--N", "1", "--nmax", "64",
                   "--truncation", "14", "--out", str(tmp_path / "t.csv")])
        assert rc == 3 and not (tmp_path / "t.csv").exists()
        assert "virial residual" in capsys.readouterr().err


class TestConverge:
    def test_grid_out_reuses_main_pass(self, tmp_path, monkeypatch):
        from rmtlab import orthopoly

        calls = []
        table = orthopoly.recurrence_table
        monkeypatch.setattr(orthopoly, "recurrence_table",
                            lambda w, n, *a, **k: calls.append(n) or table(w, n, *a, **k))
        out, grid_out = tmp_path / "conv.csv", tmp_path / "grid.csv"
        rc = main(["converge", "--potential", "0,0,0.5", "--mode", "edge",
                   "--n", "32,16", "--grid=-2:2:5", "--workers", "1",
                   "--out", str(out), "--grid-out", str(grid_out)])
        assert rc == 0
        assert sorted(calls) == [16, 32]

        def rows(p):
            return [ln.split(",") for ln in p.read_text().splitlines()
                    if not ln.startswith("#")][1:]

        sup = {int(r[0]): float(r[2]) for r in rows(out)}
        got = np.array([[float(v) for v in r] for r in rows(grid_out)])
        assert len(got) == 25
        # the grid is the n = 32 pass itself, so its sup error is the row's
        assert np.abs(got[:, 2] - got[:, 3]).max() == sup[32]

    def test_grid_out_parses_back_bit_identical(self, tmp_path):
        from rmtlab import equilibrium as eqm
        from rmtlab import kernels as kr
        from rmtlab import orthopoly as op

        grid_out = tmp_path / "grid.csv"
        assert main(["converge", "--potential", "0,0,0.5", "--mode", "edge",
                     "--n", "24", "--grid=-2:2:7", "--workers", "1",
                     "--out", str(tmp_path / "conv.csv"), "--grid-out", str(grid_out)]) == 0
        pot = eqm.Potential((0.0, 0.0, 0.5))
        grid = np.linspace(-2.0, 2.0, 7)
        w = op.WeightSpec(pot, N=24)
        win = op.soft_edge_window(eqm.solve_equilibrium(pot), grid)
        want = op.rescaled_kernel(op.recurrence_table(w, 24), 24, win)
        got = parse_table(grid_out)
        assert got[:, :2].tobytes() == grid_columns(grid).tobytes()
        assert np.ascontiguousarray(got[:, 2]).tobytes() == want.tobytes()
        ref = kr.airy_kernel(grid[:, None], grid[None, :])
        assert np.ascontiguousarray(got[:, 3]).tobytes() == ref.tobytes()

    def test_bulk_errors_decrease(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--potential", "0,0,0.5", "--mode", "bulk",
                   "--n", "8,16,32", "--workers", "1", "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,mode,sup_error,l1_error,runtime_seconds"
        sups = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert len(sups) == 3
        assert sups[0] > sups[1] > sups[2]

    def test_hard_edge_measure_soft_edge_errors_decrease(self, tmp_path):
        # the soft edge of a hard-edge measure scales with h(b)/sqrt(b): the
        # Airy error falls like n^(-2/3) (0.63 per doubling)
        out = tmp_path / "conv.csv"
        assert main(["converge", "--potential", "0,1", "--hard-edge", "--mode", "edge",
                     "--n", "64,128,256", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        sups = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert sups[1] <= 0.7 * sups[0] and sups[2] <= 0.7 * sups[1]
        assert sups[2] < 0.03

    @pytest.mark.parametrize("argv", [
        ["--mode", "bulk", "--potential", "0,0,0.5"],
        ["--mode", "edge", "--potential", "0,0,0.5"],
        ["--mode", "hard", "--potential", "0,1", "--hard-edge"],
        ["--mode", "origin", "--potential", "0,0,0.5", "--alpha", "1"],
    ], ids=["bulk", "edge", "hard", "origin"])
    def test_equilibrium_solves_per_command(self, tmp_path, monkeypatch, argv):
        # N = n_max = n for every table, so the command's own measure of V
        # picks every table's window; with alpha = 1, |x|^2 moves the window
        # of n to degree n + 1, one more solve per table, of (n/(n + 1)) V
        from rmtlab import equilibrium as eqm

        solves = []
        solve = eqm.solve_equilibrium
        monkeypatch.setattr(eqm, "solve_equilibrium", lambda V: solves.append(V) or solve(V))
        assert main(["converge", *argv, "--n", "8,16,24",
                     "--out", str(tmp_path / "conv.csv")]) == 0
        v = solves[0].coefficients
        shifted = [tuple(c * (n / (n + 1.0)) for c in v) for n in (8, 16, 24) if "--alpha" in argv]
        assert [V.coefficients for V in solves] == [v] + shifted

    @pytest.mark.parametrize("argv, rate, band", [
        (["--mode", "edge", "--potential", "0,0,0.5"], -2.0 / 3.0, 0.03),
        (["--mode", "edge", "--potential", "0,0,0,0,0.25"], -2.0 / 3.0, 0.03),
        (["--mode", "hard", "--potential", "0,1", "--hard-edge"], -2.0, 0.02),
        (["--mode", "origin", "--potential", "0,0,0.5", "--alpha", "1"], -1.0, 0.03),
    ], ids=["edge_hermite", "edge_quartic", "hard_laguerre", "origin_alpha1"])
    def test_fitted_exponent_of_the_sup_error(self, tmp_path, argv, rate, band):
        # the least-squares exponent of sup_error against n over n = 64 ...
        # 512 (-0.676, -0.662, -2.000 and -0.994 measured).  Bulk is left
        # out: its log2 ratios (1.18, 1.10, 1.05) are not a clean power law
        out = tmp_path / "conv.csv"
        assert main(["converge", *argv, "--n", "64,128,256,512", "--workers", "1",
                     "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        n, sup = np.array([[float(v) for v in ln.split(",")[:3:2]] for ln in lines[1:]]).T
        slope = np.polyfit(np.log(n), np.log(sup), 1)[0]
        assert abs(slope - rate) <= band, slope

    def test_recurrence_delta_header(self, tmp_path):
        # the largest virial residual of the command's tables, deterministic,
        # so reruns write the same line
        heads = []
        for name in ("a.csv", "b.csv"):
            assert main(["converge", "--potential", "0,1", "--hard-edge", "--mode", "hard",
                         "--n", "16,64", "--out", str(tmp_path / name)]) == 0
            heads.append([ln for ln in (tmp_path / name).read_text().splitlines()
                          if ln.startswith("# diag.")])
        (line,), _ = heads
        assert heads[1] == heads[0] and line.startswith("# diag.recurrence_delta = ")
        assert 0.0 <= float(line.split(" = ")[1]) <= 1e-12

    def test_worker_independence(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, workers in [(a, "1"), (b, "2")]:
            rc = main(["converge", "--potential", "0,0,0.5", "--mode", "bulk",
                       "--n", "8,16", "--workers", workers, "--out", str(path)])
            assert rc == 0

        def errs(p):
            return [ln.split(",")[2] for ln in p.read_text().splitlines()
                    if ln and not ln.startswith("#") and not ln.startswith("n,")]

        assert errs(a) == errs(b)


class TestRh:
    def test_diagnostics(self, tmp_path):
        out = tmp_path / "rh.csv"
        rc = main(["rh", "--potential", "0,0,0.5", "--n", "16,32",
                   "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        checks = {r[0] for r in rows}
        assert {"det_M_minus_1", "det_A_minus_1", "connection_identity",
                "A_jump_0", "A_jump_pi", "matching_sup", "a_inf"} <= checks
        for r in rows:
            if r[0].startswith("det_") or r[0] == "connection_identity":
                assert float(r[2]) <= 1e-8
        m = {int(r[1]): float(r[2]) for r in rows if r[0] == "matching_sup"}
        assert m[32] < m[16]

    @pytest.mark.parametrize("potential", ["0,0,0.5", "0,0,-1,0,0.25"])
    def test_documented_n_range(self, tmp_path, potential):
        # both ends of [1, 4096]; the critical quartic's local parametrix
        # overflows Airy at n = 8192
        out = tmp_path / "rh.csv"
        assert main(["rh", "--potential", potential, "--n", "1,4096", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines() if ln.startswith("matching_sup")]
        assert [r[1] for r in rows] == ["1", "4096"]


class TestSample:
    def test_gaussian_outputs(self, tmp_path):
        out = tmp_path / "batch.bin"
        rc = main(["sample", "--beta", "2", "--n", "16", "--count", "20",
                   "--seed", "7", "--bins", "10", "--range=-2.2:2.2:0",
                   "--window", "0:0.5:0.3183", "--csv", "--out", str(out)])
        assert rc == 0
        from rmtlab.mc import SampleBatch

        batch = SampleBatch.from_bytes(out.read_bytes())
        assert batch.n == 16 and batch.count == 20 and batch.seed == 7
        assert (tmp_path / "batch_hist.csv").exists()
        assert (tmp_path / "batch_spacing.csv").exists()
        assert (tmp_path / "batch.csv").exists()

    def test_side_files_next_to_batch_in_dotted_directory(self, tmp_path, monkeypatch):
        # the side-file base drops only the batch name's own extension, so a
        # dot in the directory name keeps every file in that directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.d").mkdir()
        rc = main(["sample", "--beta", "2", "--n", "16", "--count", "20", "--seed", "7",
                   "--window", "0:0.5:0.3183", "--csv", "--workers", "1",
                   "--out", "run.d/batch"])
        assert rc == 0
        assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == [
            "batch", "batch.csv", "batch_hist.csv", "batch_spacing.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.d"]

    def test_metropolis_requires_potential(self, tmp_path):
        rc = main(["sample", "--beta", "2", "--n", "8", "--count", "4",
                   "--seed", "1", "--metropolis", "--out",
                   str(tmp_path / "b.bin")])
        assert rc == 2

    @pytest.mark.parametrize("extra", [
        ["--n", "600"], ["--count", "20000"], ["--n", "0"], ["--count", "0"],
        ["--metropolis", "--potential", "0,0,0.5", "--n", "200"],
        ["--metropolis", "--potential", "0,0,0.5", "--steps", "0"],
        ["--N", "0"], ["--bins", "1001"], ["--range", "1:2"], ["--window", "0:x:1"],
        ["--window", "10:0.1:1"],
    ])
    def test_out_of_range_exit2(self, tmp_path, extra):
        argv = ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
                "--out", str(tmp_path / "b.bin"), "--workers", "1"]
        assert main(argv + extra) == 2
        assert not list(tmp_path.iterdir())

    def test_metropolis_huge_constant_term(self, tmp_path):
        # the one-body log-weight drops V(0), so V(0) = 1e30 draws the same batch
        for c in ("0", "1e30"):
            assert main(["sample", "--beta", "2", "--n", "8", "--count", "8", "--seed", "3",
                         "--metropolis", f"--potential={c},0,0.5", "--steps", "40",
                         "--out", str(tmp_path / f"m{c}.bin"), "--workers", "1"]) == 0
        assert (tmp_path / "m1e30.bin").read_bytes() == (tmp_path / "m0.bin").read_bytes()

    def test_metropolis_diagnostics_header(self, tmp_path):
        out = tmp_path / "m.bin"
        rc = main(["sample", "--beta", "2", "--n", "8", "--count", "16",
                   "--seed", "2", "--metropolis", "--potential", "0,0,0.5",
                   "--steps", "40", "--out", str(out), "--workers", "1"])
        assert rc == 0
        head = dict(ln[2:].split(" = ") for ln in
                    (tmp_path / "m_hist.csv").read_text().splitlines()
                    if ln.startswith("# ") and " = " in ln)
        for name in ("acceptance_rate", "proposal_width"):
            lo, mid, hi = (float(head[f"{name}_{s}"]) for s in ("min", "median", "max"))
            assert 0.0 < lo <= mid <= hi
        assert 0.1 <= float(head["acceptance_rate_min"])
        assert float(head["acceptance_rate_max"]) <= 0.6

    def test_byte_identical_reruns(self, tmp_path):
        # same config, same output path, run twice: identical up to the
        # timestamp header line
        out = tmp_path / "run.bin"
        texts = []
        for _ in range(2):
            rc = main(["sample", "--beta", "1", "--n", "8", "--count", "10",
                       "--seed", "3", "--bins", "8", "--range=-2.5:2.5:0",
                       "--out", str(out)])
            assert rc == 0
            hist = (tmp_path / "run_hist.csv").read_text()
            texts.append((out.read_bytes(), strip_timestamp(hist)))
        assert texts[0] == texts[1]


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "pearcey", "--s", "0", "--grid=-30:30:3"],
    ["kernel", "--family", "pearcey", "--s", "20", "--grid=-1:1:3"],
    ["kernel", "--family", "bessel_hard", "--alpha", "0", "--grid=-1:1:3"],
    ["kernel", "--family", "airy_beta1", "--grid=-40:0:3"],
    ["kernel", "--family", "airy", "--grid=-2000:0:3"],
    ["converge", "--potential", "0,0,0.5", "--mode", "edge", "--n", "0"],
    ["converge", "--potential", "0,0,0.5", "--mode", "edge", "--n", "600"],
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "8", "--grid=-50:50:5"],
    ["rh", "--potential", "0,0,0.5", "--n", "16", "--delta", "5"],
    ["rh", "--potential", "0,0,0.5", "--n", "16", "--delta", "0"],
    ["rh", "--potential", "0,0,0.5", "--n", "0"],
    ["rh", "--potential", "0,0,0.5", "--n", "-3"],
    # n and delta each in range whose local parametrix overflows airy
    ["rh", "--potential", "0,0,0.5", "--n", "4096", "--delta", "0.4"],
    ["rh", "--potential", "0,0,-1,0,0.25", "--n", "4096", "--delta", "0.3"],
    # the density is infinite at a hard edge and zero at the critical
    # quartic's origin, so neither gives a scaling window
    ["converge", "--potential", "0,1", "--hard-edge", "--mode", "bulk", "--n", "32"],
    ["converge", "--potential", "0,1", "--hard-edge", "--mode", "origin", "--n", "32"],
    ["converge", "--potential", "0,0,-1,0,0.25", "--mode", "origin", "--n", "32"],
    # the hard-edge kernel needs a hard-edge weight
    ["converge", "--potential", "0,0,0.5", "--mode", "hard", "--n", "32"],
    # a histogram range that holds no eigenvalue
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--range", "10:20:1"],
    ["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16", "--truncation", "nan"],
    ["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16", "--truncation", "inf"],
    # a hard-edge V' = (x - 19)(x - 21) that is negative between its roots
    ["eqm", "--potential", "0,399,-20,0.3333333333333333", "--hard-edge"],
    # non-finite coefficients and parameters
    ["eqm", "--potential", "0,0,nan"],
    ["oppoly", "--potential", "0,0,nan", "--N", "8", "--nmax", "8"],
    ["eqm", "--potential", "0,0,0.5", "--alpha", "nan"],
    ["kernel", "--family", "bessel_origin", "--alpha", "nan", "--grid=0.1:1:3"],
    ["kernel", "--family", "bessel_hard", "--alpha", "inf", "--grid=0.5:1:3"],
    ["kernel", "--family", "pearcey", "--s", "nan", "--grid=-0.5:0.5:2"],
    # a spacing window needs a finite x0, half-width > 0 and density > 0
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:0.5:-1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:0.5:0"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:0.5:inf"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:0.5:nan"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:0:1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:-0.5:1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "0:inf:1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "nan:0.5:1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "inf:0.5:1"],
    # finite ends only: x0 + half-width overflows
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--window", "1e308:1e308:1"],
    # grids are finite and hold at most 1000 points a side
    ["kernel", "--family", "sine", "--grid=0:1:100000000"],
    ["kernel", "--family", "sine", "--grid=0:1:1001"],
    ["kernel", "--family", "sine", "--grid=0:inf:3"],
    ["kernel", "--family", "sine", "--grid=-inf:0:3"],
    ["kernel", "--family", "sine", "--grid=nan:1:3"],
    ["oppoly", "--potential", "0,0,0.5", "--N", "8", "--nmax", "8", "--kernel-n", "8",
     "--kernel-grid=0:1:100000000", "--kernel-out", "k.csv"],
    ["oppoly", "--potential", "0,0,0.5", "--N", "8", "--nmax", "8", "--kernel-n", "8",
     "--kernel-grid=-inf:1:3", "--kernel-out", "k.csv"],
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "8",
     "--grid=0:1:100000000"],
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "8", "--grid=0:inf:3"],
    # the batch record stores the seed as an int64
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "9223372036854775808"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "-1"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--range=-inf:inf:0"],
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--range=-2:2:nan"],
    # finite ends whose width hi - lo overflows
    ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--range=-1e308:1e308:0"],
])
def test_rejected_input_exit2_without_file(tmp_path, monkeypatch, capsys, argv):
    # an out-of-range argument is a validation error (exit 2), not a
    # traceback, and leaves no output behind
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o.csv", "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith("rmtlab: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("potential, delta", [("0,0,0.5", "0.4"), ("0,0,-1,0,0.25", "0.3")])
def test_rh_names_n_and_delta_when_the_parametrix_overflows(tmp_path, capsys, potential, delta):
    # each lies in its own range; together they overflow airy on the circle
    out = tmp_path / "rh.csv"
    assert main(["rh", "--potential", potential, "--n", "4096", "--delta", delta,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n 4096" in err and f"--delta {delta}" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--window", "0:0.5:-1"], ["--window", "0:0:1"], ["--window", "0:0.5:nan"],
    ["--range=-inf:inf:0"], ["--seed", "9223372036854775808"], ["--seed", "-1"],
    ["--range=-1e308:1e308:0"], ["--window", "1e308:1e308:1"],
])
@pytest.mark.parametrize("sampler", ["gaussian", "metropolis"])
def test_sample_inputs_checked_before_any_draw(tmp_path, monkeypatch, capsys, sampler, extra):
    from rmtlab import mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample before checking the inputs")

    monkeypatch.setattr(mc, "sample_gaussian", no_draw)
    monkeypatch.setattr(mc, "sample_invariant", no_draw)
    monkeypatch.chdir(tmp_path)
    argv = ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
            "--workers", "1", "--out", "b.bin"]
    if sampler == "metropolis":
        argv += ["--metropolis", "--potential", "0,0,0.5"]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err.startswith("rmtlab: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [["--potential", "0,0,0,0,0.25"], ["--N", "8"],
                                   ["--hard-edge"], ["--alpha", "0.5"]])
def test_metropolis_arguments_need_metropolis(tmp_path, monkeypatch, capsys, extra):
    # the Gaussian sampler reads none of --potential, --N, --hard-edge and
    # --alpha, so a header recording them would describe a batch that was
    # not drawn
    from rmtlab import mc

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample before checking the inputs")

    monkeypatch.setattr(mc, "sample_gaussian", no_draw)
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
                 "--out", "b.bin"] + extra) == 2
    assert capsys.readouterr().err == (
        "rmtlab: --potential, --N, --hard-edge and --alpha need --metropolis\n")
    assert list(tmp_path.iterdir()) == []


def test_metropolis_hard_edge_histogram(tmp_path):
    # V = x on the hard edge with alpha = 0.5 at n = N = 32: the histogram of
    # 128 records lies within 0.15 (perfbench's Metropolis bound) of the
    # equilibrium density (1/2 pi) sqrt((4 - x)/x), whatever alpha, averaged
    # over each bin by its distribution function (1/2 pi) [sqrt(x(4 - x))
    # + 4 arcsin(sqrt(x)/2)], as the density is singular at 0 (measured
    # 0.027 ... 0.044 on seeds 1-5)
    out = tmp_path / "h.bin"
    assert main(["sample", "--metropolis", "--potential", "0,1", "--hard-edge",
                 "--alpha", "0.5", "--beta", "2", "--n", "32", "--count", "128",
                 "--seed", "1", "--range", "0:4:0", "--bins", "25", "--workers", "1",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "h_hist.csv").read_text().splitlines()
    head = dict(ln[2:].split(" = ") for ln in lines if ln.startswith("# ") and " = " in ln)
    assert (head["hard_edge"], head["alpha"]) == ("True", "0.5")
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    density = np.array([float(ln.split(",")[1]) for ln in rows])
    x = np.linspace(0.0, 4.0, 26)
    cdf = (np.sqrt(x * (4.0 - x)) + 4.0 * np.arcsin(np.sqrt(x) / 2.0)) / (2.0 * np.pi)
    assert np.abs(density - np.diff(cdf) / np.diff(x)).max() <= 0.15


@pytest.mark.parametrize("argv", [
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "32,513"],
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "0,32"],
    ["rh", "--potential", "0,0,0.5", "--n", "64,0"],
    ["rh", "--potential", "0,0,0.5", "--n=-1,64"],
    ["rh", "--potential", "0,0,0.5", "--n", "64,4097"],
    ["rh", "--potential", "0,0,0.5", "--n", "10000000000"],
])
def test_n_list_checked_before_the_solve(tmp_path, monkeypatch, capsys, argv):
    from rmtlab import equilibrium as eqm

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the n list")

    monkeypatch.setattr(eqm, "solve_equilibrium", no_solve)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o.csv"]) == 2
    assert capsys.readouterr().err.startswith("rmtlab: bad n list")
    assert list(tmp_path.iterdir()) == []


def test_largest_seed_round_trips(tmp_path):
    from rmtlab.mc import SampleBatch

    out = tmp_path / "b.bin"
    assert main(["sample", "--beta", "2", "--n", "8", "--count", "4", "--workers", "1",
                 "--seed", str(2 ** 63 - 1), "--out", str(out)]) == 0
    assert SampleBatch.from_bytes(out.read_bytes()).seed == 2 ** 63 - 1


@pytest.mark.parametrize("dirs, existing, argv", [
    # a missing directory
    ([], [], ["eqm", "--potential", "0,0,0.5", "--out", "missing/x.json"]),
    # --out names a directory
    (["o.csv"], [], ["kernel", "--family", "sine", "--grid=-1:1:3", "--out", "o.csv"]),
    # --kernel-out fails after --out, whose earlier contents are gone too
    ([], ["table.csv"], ["oppoly", "--potential", "0,0,0.5", "--N", "8", "--nmax", "8",
                         "--kernel-n", "8", "--kernel-grid=-1:1:3",
                         "--kernel-out", "nodir/k.csv", "--out", "table.csv"]),
    # the histogram path is a directory, after the batch and the raw CSV
    (["d/x_hist.csv"], [], ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
                            "--csv", "--workers", "1", "--out", "d/x.bin"]),
], ids=["missing_dir", "out_is_dir", "bad_kernel_out", "hist_is_dir"])
def test_unwritable_output_exit2_without_file(tmp_path, monkeypatch, capsys, dirs, existing,
                                              argv):
    monkeypatch.chdir(tmp_path)
    for d in dirs:
        (tmp_path / d).mkdir(parents=True)
    for f in existing:
        (tmp_path / f).write_text("an earlier table\n")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("rmtlab: cannot write ")
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


def test_metropolis_acceptance_outside_the_band_exit3_without_file(tmp_path, monkeypatch, capsys):
    # one tuning step at N = 200 on the critical quartic leaves the
    # proposal too wide for the [0.1, 0.6] acceptance band
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--metropolis", "--potential", "0,0,-1,0,0.25", "--beta", "1",
                 "--n", "2", "--N", "200", "--count", "8", "--steps", "1", "--seed", "1",
                 "--out", "m.bin"]) == 3
    assert capsys.readouterr().err == ("rmtlab: numerical failure: tuned acceptance rate in "
                                       "[0.055, 0.113] leaves the [0.1, 0.6] band\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json"])
def test_non_finite_result_exit3_without_file(tmp_path, monkeypatch, capsys, fmt):
    # the support is +-1.4e150 and the moments overflow: a numerical
    # failure, with no nan or Infinity written anywhere
    monkeypatch.chdir(tmp_path)
    assert main(["eqm", "--potential", "0,0,1e-300", "--out", f"o.{fmt}"]) == 3
    err = capsys.readouterr().err
    assert "rmtlab: numerical failure: non-finite value" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family, grid, rc, named", [
    ("sine", "-1e308:1e308:2", 2, "bad grid"),
    ("sine", "-1e307:1e307:2", 2, "sine_kernel"),
    ("sine_beta4", "-1e307:1e307:2", 2, "matrix_kernel_bulk"),
    ("sine_beta1", "-1e6:1e6:3", 0, None),
    ("airy", "0:2000:2", 2, "airy_kernel"),
    ("airy_beta1", "0:2000:2", 2, "matrix_kernel_edge"),
    ("bessel_hard", "1:2e6:2", 2, "bessel_hard_kernel"),
    ("bessel_origin", "1:400:2", 2, "bessel_origin_kernel")])
def test_kernel_grid_at_the_range_ends(tmp_path, monkeypatch, capsys, family, grid, rc, named):
    # a grid wider than the doubles, a difference past 1e307 and an argument
    # past the Airy or Bessel range exit 2 naming what rejected them, without
    # a warning; the sine integral serves every finite argument
    import warnings

    monkeypatch.chdir(tmp_path)
    alpha = ["--alpha", "0.5"] if family.startswith("bessel") else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["kernel", "--family", family, *alpha, f"--grid={grid}", "--out", "k.csv"]) == rc
    if named:
        assert capsys.readouterr().err.startswith(f"rmtlab: {named}")
        assert list(tmp_path.iterdir()) == []
    else:
        assert (tmp_path / "k.csv").exists()


def test_overflowing_moments_raise_before_numpy_warns(tmp_path, monkeypatch):
    import warnings

    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["eqm", "--potential", "0,0,1e-300", "--out", "o.json"]) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("truncation", ["1e155", "1e300"])
def test_huge_truncation_exit3_without_warning(tmp_path, monkeypatch, capsys, truncation):
    # the weight underflows on every quadrature node, or on all but too few:
    # a numerical failure, with no RuntimeWarning on the way
    import warnings

    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16",
                     "--truncation", truncation, "--out", "o.csv"]) == 3
    assert capsys.readouterr().err.startswith("rmtlab: numerical failure: ")
    assert list(tmp_path.iterdir()) == []


PACKAGE_ERRORS = [MultiCutError, NonConvergenceError, UnderflowError, AcceptanceRateError]


def test_every_package_error_is_arithmetic():
    # cli.run maps ArithmeticError to exit 3, so no error class of the
    # package can escape that branch
    import importlib
    import inspect
    import pkgutil

    import rmtlab

    found = []
    for info in pkgutil.iter_modules(rmtlab.__path__):
        mod = importlib.import_module(f"rmtlab.{info.name}")
        found += [cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                  if issubclass(cls, Exception) and cls.__module__ == mod.__name__]
    assert set(found) >= set(PACKAGE_ERRORS)
    assert all(issubclass(cls, ArithmeticError) for cls in found)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_package_error_exit3_without_file(tmp_path, monkeypatch, capsys, error):
    from rmtlab import equilibrium

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(equilibrium, "solve_equilibrium", fail)
    monkeypatch.chdir(tmp_path)
    assert main(["eqm", "--potential", "0,0,0.5", "--out", "o.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("rmtlab: numerical failure: injected")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit2_without_file(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    assert main(["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "8,16",
                 "--workers", workers, "--out", "o.csv"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_singular_linear_system_exit3(tmp_path, monkeypatch):
    # LinAlgError is a ValueError but a numerical failure
    from rmtlab import rh

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(rh, "diagnostics", singular)
    assert main(["rh", "--potential", "0,0,0.5", "--n", "16",
                 "--out", str(tmp_path / "rh.csv")]) == 3


def test_header_does_not_depend_on_cpu_count(tmp_path, monkeypatch):
    # without --workers the header records the argument as given, not the
    # pool size resolved from the host's CPU count
    monkeypatch.chdir(tmp_path)
    heads = []
    for cpus in (1, 8):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert main(["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
                     "--out", "o.bin"]) == 0
        heads.append([ln for ln in (tmp_path / "o_hist.csv").read_text().splitlines()
                      if ln.startswith("# ") and not ln.startswith("# timestamp")])
    assert heads[0] == heads[1]
    assert "# workers = None" in heads[0]


class TestHelp:
    @pytest.mark.parametrize("cmd", ["eqm", "kernel", "oppoly", "converge",
                                     "rh", "sample"])
    def test_subcommand_help_exits_zero(self, cmd, capsys):
        rc = main([cmd, "--help"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--out" in out

    def test_top_help(self, capsys):
        assert main(["--help"]) == 0
        assert "eqm" in capsys.readouterr().out


def test_parser_is_built_once_and_runs_share_no_arguments(tmp_path, monkeypatch, capsys):
    # the cached parser fills a new namespace per run: --kernel-out of the
    # first run does not reach the third, and --help in between exits 0
    from rmtlab import cli

    monkeypatch.chdir(tmp_path)
    base = ["oppoly", "--potential", "0,0,0.5", "--N", "8", "--nmax", "8"]
    assert main(base + ["--kernel-n", "8", "--kernel-grid=-1:1:3", "--kernel-out", "k.csv",
                        "--out", "t1.csv"]) == 0
    assert main(["oppoly", "--help"]) == 0
    assert main(base + ["--out", "t2.csv"]) == 0
    assert "--kernel-out" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.csv", "t1.csv", "t2.csv"]
    assert (strip_timestamp((tmp_path / "t1.csv").read_text()).replace("t1.csv", "t2.csv")
            == strip_timestamp((tmp_path / "t2.csv").read_text()))
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------------------
# hostile inputs and documented corners

HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "1" + "0" * 30)

# every numeric argument of every subcommand, "{}" in its place; each
# template runs once per hostile value
HOSTILE_TEMPLATES = [
    "eqm --potential={},0,0.5",
    "eqm --potential=0,{},0.5",
    "eqm --potential=0,0,{}",
    "eqm --potential=0,0,0.5 --alpha={}",
    "eqm --potential=0,1 --hard-edge --alpha={}",
    "kernel --family sine --grid={}:1:3",
    "kernel --family sine --grid=0:{}:3",
    "kernel --family sine --grid=0:1:{}",
    "kernel --family airy --grid={}:1:3",
    "kernel --family airy_beta1 --grid=-1:{}:2",
    "kernel --family bessel_hard --alpha={} --grid=0.5:1:2",
    "kernel --family bessel_origin --alpha={} --grid=0.5:1:2",
    "kernel --family pearcey --s={} --grid=-0.5:0.5:2",
    "oppoly --potential={},0,0.5 --N 8 --nmax 8",
    "oppoly --potential=0,{},0.5 --N 8 --nmax 8",
    "oppoly --potential=0,0,{} --N 8 --nmax 8",
    "oppoly --potential=0,0,0.5 --alpha={} --N 8 --nmax 8",
    "oppoly --potential=0,1 --hard-edge --alpha={} --N 8 --nmax 8",
    "oppoly --potential=0,0,0.5 --N={} --nmax 8",
    "oppoly --potential=0,0,0.5 --N 8 --nmax={}",
    "oppoly --potential=0,0,0.5 --N 8 --nmax 8 --truncation={}",
    "oppoly --potential=0,1 --hard-edge --alpha=0.5 --N 8 --nmax 8 --truncation={}",
    "oppoly --potential=0,0,0.5 --N 8 --nmax 8 --kernel-n={} --kernel-grid=-1:1:3 "
    "--kernel-out k.csv",
    "oppoly --potential=0,0,0.5 --N 8 --nmax 8 --kernel-n 8 --kernel-grid={}:1:3 "
    "--kernel-out k.csv",
    "oppoly --potential=0,0,0.5 --N 8 --nmax 8 --kernel-n 8 --kernel-grid=-1:{}:3 "
    "--kernel-out k.csv",
    "oppoly --potential=0,0,0.5 --N 8 --nmax 8 --kernel-n 8 --kernel-grid=-1:1:{} "
    "--kernel-out k.csv",
    "converge --potential={},0,0.5 --mode bulk --n 8,16",
    "converge --potential=0,{},0.5 --mode edge --n 8,16",
    "converge --potential=0,0,{} --mode bulk --n 8,16",
    "converge --potential=0,0,0.5 --alpha={} --mode origin --n 8,16",
    "converge --potential=0,1 --hard-edge --alpha={} --mode hard --n 8,16",
    "converge --potential=0,0,0.5 --mode bulk --n={}",
    "converge --potential=0,0,0.5 --mode bulk --n 8 --grid={}:1:3",
    "converge --potential=0,0,0.5 --mode edge --n 8 --grid=-1:{}:3",
    "converge --potential=0,0,0.5 --mode bulk --n 8 --grid=-1:1:{}",
    "rh --potential={},0,0.5 --n 16",
    "rh --potential=0,{},0.5 --n 16",
    "rh --potential=0,0,{} --n 16",
    "rh --potential=0,0,0.5 --n={}",
    "rh --potential=0,0,0.5 --n 16 --delta={}",
    "sample --beta 2 --n={} --count 4 --seed 1",
    "sample --beta 2 --n 8 --count={} --seed 1",
    "sample --beta 2 --n 8 --count 4 --seed={}",
    "sample --beta 2 --n 8 --count 4 --seed 1 --bins={}",
    "sample --beta 2 --n 8 --count 4 --seed 1 --range={}:2:0",
    "sample --beta 2 --n 8 --count 4 --seed 1 --range=-2:{}:0",
    "sample --beta 2 --n 8 --count 4 --seed 1 --range=-2:2:{}",
    "sample --beta 2 --n 8 --count 4 --seed 1 --window={}:0.5:0.3",
    "sample --beta 2 --n 8 --count 4 --seed 1 --window=0:{}:0.3",
    "sample --beta 2 --n 8 --count 4 --seed 1 --window=0:0.5:{}",
    "sample --beta 2 --n 8 --count 4 --seed 1 --N={}",
    "sample --beta 2 --n 8 --count 4 --seed 1 --potential={},0,0.5",
    # one chain or at most 8 draws run in this process, so a huge --workers
    # starts no process (test_mc checks the pool size)
    "sample --beta 2 --n 8 --count 4 --seed 1 --workers={}",
    "sample --metropolis --potential={},0,0.5 --beta 2 --n 4 --count 4 --steps 20 --seed 1",
    "sample --metropolis --potential=0,{},0.5 --beta 2 --n 4 --count 4 --steps 20 --seed 1",
    "sample --metropolis --potential=0,0,{} --beta 2 --n 4 --count 4 --steps 20 --seed 1",
    "sample --metropolis --potential=0,0,0.5 --beta 2 --n 4 --N={} --count 4 --steps 20 "
    "--seed 1",
    "sample --metropolis --potential=0,0,0.5 --beta 2 --n={} --count 4 --steps 20 --seed 1",
    "sample --metropolis --potential=0,0,0.5 --beta 2 --n 4 --count={} --steps 20 --seed 1",
    "sample --metropolis --potential=0,0,0.5 --beta 2 --n 4 --count 4 --steps={} --seed 1",
    "sample --metropolis --potential=0,0,0.5 --beta 2 --n 4 --count 1 --steps 20 --seed 1 "
    "--workers={}",
    "sample --metropolis --potential=0,1 --hard-edge --alpha={} --beta 2 --n 4 --count 4 "
    "--steps 20 --seed 1",
]

# two-point grids whose off-diagonal entries lie inside the kernel's
# diagonal band, where the value is a Cauchy mean of complex numerator
# values (complex J of order 100 among them): each exits 0
BAND_ROWS = [
    "kernel --family bessel_hard --alpha=100 --grid=2000:2000.00001:2",
    "kernel --family bessel_origin --alpha=10 --grid=100:100.0001:2",
    "kernel --family airy --grid=-30:-29.9999:2",
    "kernel --family pearcey --s=3 --grid=0.5:0.500001:2",
]

CORNERS = [
    # the README's documented limits: alpha <= 100 on both weights at
    # n_max = 512, converge at n = 512, Pearcey at |x|, |y| <= 20 and
    # |s| <= 10, the largest seed, the largest Gaussian and Metropolis n
    "oppoly --potential=0,0,0.5 --alpha=40 --N 512 --nmax 512",
    "oppoly --potential=0,0,0.5 --alpha=100 --N 512 --nmax 512",
    "oppoly --potential=0,1 --hard-edge --alpha=100 --N 512 --nmax 512",
    "converge --potential=0,0,0.5 --mode edge --n 512",
    "converge --potential=0,0,0.5 --mode origin --alpha=100 --n 32,64",
    "converge --potential=0,1 --hard-edge --mode edge --n 32,64,128,256",
    "kernel --family bessel_hard --alpha=100 --grid=0.1:1:3",
    "kernel --family bessel_origin --alpha=100 --grid=0.1:1:3",
    "kernel --family pearcey --s=10 --grid=-20:20:2",
    "kernel --family pearcey --s=-10 --grid=-20:20:2",
    *BAND_ROWS,
    "sample --beta 4 --n 512 --count 2 --seed 9223372036854775807",
    "sample --metropolis --potential=0,0,0.5 --beta 4 --n 128 --count 1 --steps 1 --seed 1",
    "rh --potential=0,0,0.5 --n 1",
    # n and delta whose local parametrix overflows airy (exit 2), and the
    # widest disk that still passes at n = 4096
    "rh --potential=0,0,0.5 --n 4096 --delta 0.4",
    "rh --potential=0,0,-1,0,0.25 --n 4096 --delta 0.3",
    "rh --potential=0,0,0.5 --n 4096 --delta 0.35",
    # overflow, a constant shift of V and alpha or truncation past their bounds
    "eqm --potential=0,1e300,0.5",
    "eqm --potential=0,0,1e-300",
    "eqm --potential=0,0,-1,0,0.25",
    "eqm --potential=0,0,-1.001,0,0.25",
    "eqm --potential=0,0,0.5 --format csv",
    "oppoly --potential=0,0,0.5 --N 1 --nmax 8 --kernel-n 8 --kernel-grid=-1:1:3 "
    "--kernel-out k.csv",
    "oppoly --potential=800,0,0.5 --N 1 --nmax 8 --kernel-n 8 --kernel-grid=-1:1:3 "
    "--kernel-out k.csv",
    "oppoly --potential=-800,0,0.5 --N 1 --nmax 8 --kernel-n 8 --kernel-grid=-1:1:3 "
    "--kernel-out k.csv",
    "oppoly --potential=0,0,0.5 --alpha=1000 --N 8 --nmax 8",
    "oppoly --potential=0,1 --hard-edge --alpha=1e300 --N 8 --nmax 8",
    "converge --potential=0,0,0.5 --mode origin --alpha=1e300 --n 32",
    "kernel --family bessel_hard --alpha=1e300 --grid=0.1:1:3",
    "kernel --family bessel_hard --alpha=1000 --grid=0.1:1:3",
    "oppoly --potential=0,0,0.5 --alpha=0.5 --N 16 --nmax 16 --truncation=1e300",
    "oppoly --potential=0,1 --hard-edge --alpha=0.5 --N 16 --nmax 16 --truncation=1e300",
    "oppoly --potential=0,0,0.5 --N 16 --nmax 16 --truncation=1e308",
    # arguments that only --metropolis reads, and n lists checked before the solve
    "sample --beta 2 --n 8 --count 4 --seed 1 --potential=0,0,0,0,0.25",
    "sample --beta 2 --n 8 --count 4 --seed 1 --N 8",
    "sample --beta 2 --n 8 --count 4 --seed 1 --hard-edge",
    "sample --beta 2 --n 8 --count 4 --seed 1 --alpha=0.5",
    "converge --potential=0,0,0.5 --mode bulk --n 32,513",
    "rh --potential=0,0,0.5 --n 64,0",
]

# rows that still fail, each with the CHANGES.md FOUND line that records it
STILL_FAILING = {}


def _hostile_rows():
    # a 0 in another coefficient or a corner may repeat a row: each runs once
    rows = dict.fromkeys([t.format(v) for t in HOSTILE_TEMPLATES for v in HOSTILE] + CORNERS)
    return [pytest.param(row, id=row, marks=pytest.mark.xfail(
                strict=True, reason=STILL_FAILING[row])) if row in STILL_FAILING else
            pytest.param(row, id=row) for row in rows]


@pytest.mark.parametrize("command", _hostile_rows())
def test_hostile_input_and_documented_corner(tmp_path, monkeypatch, capsys, command):
    # exit 0, 2 or 3 without a warning or a traceback; no file after exit 2
    # or 3, and no nan or inf in any file written with exit 0
    import warnings

    from rmtlab.mc import SampleBatch

    monkeypatch.chdir(tmp_path)
    argv = command.split() + ["--out", "o.bin" if command.startswith("sample") else "o.txt"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    assert rc in (0, 2, 3)
    assert rc == 0 or command not in BAND_ROWS
    assert "Traceback" not in capsys.readouterr().err
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    if rc:
        assert files == []
    for p in files:
        if p.suffix == ".bin":
            assert np.isfinite(SampleBatch.from_bytes(p.read_bytes()).eigenvalue_sets).all()
        else:
            assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", p.read_text())

import builtins
import errno
import io
import json
import warnings
import zipfile

import numpy as np
import pytest

from conftest import CONFIG_DIR, desk_scenario, older_edges, small_config
from nozzleflow import region, solver
from nozzleflow.cli import main
from nozzleflow.harness import load_trajectory
from nozzleflow.config import parse_config_text
from nozzleflow.solver import STORED_BYTES_MAX

SMALL = {"n = 2000": "n = 300", "T = 5.0": "T = 1.0"}


class TestConstants:
    def test_log_branch_values(self, capsys):
        assert main(["constants", "5/3"]) == 0
        out = capsys.readouterr().out
        assert "l=7.46410161" in out
        assert "sigma1=1.19615242" in out
        assert "sigma2=1.73205080" in out

    def test_json_format(self, capsys):
        assert main(["--format", "json", "constants", "1.4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l"] == pytest.approx(10.47213595499958, rel=1e-10)

    def test_bad_gamma_is_usage_error(self, capsys):
        assert main(["constants", "2.5"]) == 64

    def test_least_gamma_resolves_sigma1(self, capsys):
        assert main(["--format", "json", "constants", "1.0000000020000637"]) == 0
        sigma1 = json.loads(capsys.readouterr().out)["sigma1"]
        assert (sigma1 - 1.0) / 1.0000000020000637e-9 == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("gamma", ["1.000000001", "1.0000000020000634",
                                       "1.0000000000000002"])
    def test_gamma_too_close_to_1_is_usage_error(self, gamma, capsys):
        # 1.000000001 once exited 65: sigma1 lay within the bracket's 1e-9
        # of 1, so its bisection found no sign change.
        assert main(["constants", gamma]) == 64
        assert "too close to 1 to resolve sigma1" in capsys.readouterr().err


class TestCheck:
    def test_desk_config_passes(self, capsys):
        assert main(["check", str(CONFIG_DIR / "p1_desk.cfg")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        assert "FAIL" not in out

    def test_bad_data_fails(self, tmp_path, capsys):
        cfg = small_config("p1_desk", tmp_path, dict(SMALL, **{
            "z0 = -0.5 + 0.012*(1 - 1/(1 + 10*x))": "z0 = -0.3"}))
        assert main(["check", str(cfg)]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_vacuum_data_fail_certification(self, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {"z0 = -3.6 + 0*x": "z0 = -2.6 + 0*x"})
        assert main(["check", str(cfg)]) == 2
        assert "FAIL" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == 2
        bundle = json.loads((out / "report.json").read_text())["certification"]
        certs = {c["name"]: c for c in bundle["certificates"]}
        assert not certs["initial-membership"]["passed"]
        data = certs["data-conditions"]
        assert not data["passed"]
        assert [i["name"] for i in data["items"]] == ["w0(x) - z0(x) >= vacuum gap"]
        # The certificates a run records are those `check` prints.
        assert main(["--format", "json", "check", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out) == bundle

    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.cfg"]) == 66

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nkindd = P1\n")
        assert main(["check", str(bad)]) == 65
        assert "bad.cfg:2" in capsys.readouterr().err


class TestMalformedValues:
    """Inputs that once ended in a traceback (exit 1) or a wrong exit code."""

    @pytest.mark.parametrize("deep", [
        "(" * 2000 + "-3.6" + ")" * 2000,
        "-" * 2000 + "3.6",
        "-3.6 + " + "^".join(["x"] * 2000),
    ], ids=["parentheses", "unary-signs", "power-chain"])
    def test_deeply_nested_expression(self, deep, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {"z0 = -3.6 + 0*x": f"z0 = {deep}"})
        assert main(["check", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert "nested deeper" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("z0", ["1/0 + 0*x", "0^-1 + 0*x", "2 * 1/0 * x", "10^400 + 0*x",
                                    "(-8)^(1/3)", "(-8)^(1/3) + 0*x", "x + (-8)^(1/3)"])
    def test_constant_part_that_cannot_be_evaluated(self, z0, tmp_path, capsys):
        # Each once exited 1 with a traceback, or warned and evaluated to the
        # real part of the complex value.
        cfg = small_config("p3_desk", tmp_path, {"z0 = -3.6 + 0*x": f"z0 = {z0}",
                                                 "n = 2000": "n = 100"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == 65
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and repr(z0) in err

    def test_long_flat_expression_checks(self, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path,
                           {"z0 = -3.6 + 0*x": "z0 = -3.6" + " + 0*x" * 3000})
        assert main(["check", str(cfg)]) == 0

    @pytest.mark.parametrize("old,new", [
        ("T = 5.0", "T = nan"),
        ("T = 5.0", "T = inf"),
        ("n = 2000", "n = 0"),
        ("n = 2000", "n = -5"),
        ("cfl = 0.9", "cfl = nan"),
    ])
    def test_value_out_of_range(self, old, new, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {old: new})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert new.split(" = ")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stride", [0, -3])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_csv_stride_below_one_is_refused(self, command, stride, tmp_path, capsys):
        # Both once exited 0, and simulate wrote every snapshot, as stride 1.
        cfg = small_config("p3_desk", tmp_path, {"csv_stride = 50": f"csv_stride = {stride}"})
        assert main(["--out", str(tmp_path / "out"), command, str(cfg)]) == 65
        err = capsys.readouterr().err
        assert err == f"{cfg}: csv_stride must be at least 1, got {stride}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,n,cells", [
        ("p3_desk", 1, 0), ("p3_desk", 2, 0), ("p3_desk", 3, 0), ("p3_desk", 8, 0),
        ("p3_desk", 12, 1), ("p3_desk", 20, 1), ("p3_desk", 26, 1),
        ("p2_desk", 1, 0), ("p2_desk", 2, 1), ("p2_desk", 3, 1),
        ("p1_desk", 1, 1), ("p1_desk", 2, 1),
    ])
    def test_grid_too_coarse_for_the_window(self, name, n, cells, tmp_path, capsys):
        cfg = small_config(name, tmp_path, {"n = 2000": f"n = {n}"})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert f"n = {n} leaves {cells} cell(s) in the reporting window" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_run_too_large_to_store_is_refused_before_any_output(self, command,
                                                                  tmp_path, capsys):
        # cfl = 1e-9 asks for 9.4e10 steps: once `simulate` wrote the
        # certificates and then ended in an allocation traceback.
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 100",
                                                 "cfl = 0.9": "cfl = 1e-9"})
        out = tmp_path / "out"
        assert main(["--out", str(out), command, str(cfg)]) == 65
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "K + 1 = 94312796210 snapshots" in captured.err
        assert "over the ceiling of 1073741824 bytes" in captured.err

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    @pytest.mark.parametrize("n", [4000, 8000])
    def test_desk_configs_are_within_the_storage_ceiling(self, name, n):
        scn = parse_config_text((CONFIG_DIR / f"{name}.cfg").read_text().replace(
            "n = 2000", f"n = {n}")).to_scenario()
        assert scn.stored_bytes <= STORED_BYTES_MAX

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_huge_grid_is_refused_before_any_cell_array(self, command, tmp_path, capsys,
                                                        monkeypatch):
        # n = 10**9 once built the grid's 8 GB of cell centres for its window
        # count before the storage ceiling could refuse it.
        def no_cells(grid):
            raise AssertionError(f"an array of {grid.n} cells was built")

        monkeypatch.setattr(solver.Grid, "cells", no_cells)
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": f"n = {10 ** 12}"})
        out = tmp_path / "out"
        assert main(["--out", str(out), command, str(cfg)]) == 65
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "over the ceiling of 1073741824 bytes" in captured.err

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 27, 300, 2000, 8000])
    @pytest.mark.parametrize("T", [None, 0.0])
    def test_least_trusted_cells_is_a_floor(self, name, n, T):
        # So the arithmetic refusal refuses no run the storage ceiling lets by.
        scn = desk_scenario(name, n=n, **({} if T is None else {"T": T}))
        assert scn.least_trusted_cells <= scn.trusted_cells

    def test_p3_grid_too_coarse_for_the_outflow_ghosts(self, tmp_path, capsys):
        # At T = 0 the grid is the window, so two cells fit the launch fan.
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 2", "T = 5.0": "T = 0.0"})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert "n = 2: the P3 outflow ghosts" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_majorant_table_at_its_node_cap_is_a_data_error(self, command, tmp_path,
                                                             capsys, monkeypatch):
        # p3_desk's s(x) table (x_max = 17.5833) needs 16384 intervals; at
        # a cap of 4096 it once returned its last level whatever its accuracy.
        monkeypatch.setattr(region, "QUADRATURE_MAX_INTERVALS", 4096)
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 250"})
        assert main(["--out", str(tmp_path / "out"), command, str(cfg)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("s(x) of the power profile on [0, 17.5833] misses its "
                              "tolerance")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name,n", [("p3_desk", 27), ("p2_desk", 4), ("p1_desk", 3)])
    def test_coarsest_grid_that_fits_the_window_runs(self, name, n, tmp_path):
        # The grid runs, but no traced path gets the samples a check needs.
        cfg = small_config(name, tmp_path, {"n = 2000": f"n = {n}"})
        assert main(["--quiet", "--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 3

    @pytest.mark.parametrize("key,value", [
        ("margin_tol_factor", "5.0"), ("strict_margin", "1e-9"), ("compat_tol", "1e-8"),
        ("cert_samples", "2048"), ("blow_limit", "1e6"),
        ("snapshot_stride", "1"), ("fan", "20"), ("wall_margin_frac", "0.02"),
    ])
    def test_fixed_tolerance_is_not_a_key(self, key, value, tmp_path, capsys):
        section = "[solver]" if key == "snapshot_stride" else "[monitors]"
        cfg = small_config("p3_desk", tmp_path, {section: f"{section}\n{key} = {value}"})
        assert main(["check", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err
        assert "Traceback" not in err

    def test_loose_coverage_config_is_rejected(self, tmp_path, capsys):
        # Once it printed "run OK" with one path checked per family.
        cfg = small_config("p1_desk", tmp_path, {
            "n = 2000": "n = 300", "order = 2": "order = 2\nsnapshot_stride = 10",
            "csv_stride = 50": "csv_stride = 50\nfan = 1\nwall_margin_frac = 0.95"})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        assert "unknown key 'snapshot_stride'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [27, 50])
    def test_p3_grid_with_no_checkable_path_fails(self, n, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": f"n = {n}"})
        sim, ver = tmp_path / "sim", tmp_path / "ver"
        assert main(["--quiet", "--out", str(sim), "simulate", str(cfg)]) == 3
        assert main(["--out", str(ver), "verify", str(sim / "trajectory.npz")]) == 3
        assert "family 1: checked=0/20 " in capsys.readouterr().out
        for report in (sim / "report.json", ver / "verify_report.json"):
            post = json.loads(report.read_text())["characteristics"]
            for stats in post["families"].values():
                assert (stats["checked"], stats["paths"], stats["bounds_ok"]) == (0, 20, False)
            assert len(post["paths"]) == 40
            assert not any(path["ok"] for path in post["paths"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 5, 100])
    def test_p2_at_time_zero_certifies_and_runs(self, n, tmp_path):
        # The boundary data are one instant, with one-sided rates.  The run
        # stores that one instant, so no path has the samples of a check.
        cfg = small_config("p2_desk", tmp_path, {"n = 2000": f"n = {n}", "T = 1.0": "T = 0.0"})
        assert main(["--quiet", "check", str(cfg)]) == 0
        assert main(["--quiet", "--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["monitors"]["flags"]["ok"]
        assert [stats["checked"] for stats in
                report["characteristics"]["families"].values()] == [0, 0]

    def test_readme_config_example_parses(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        scn = parse_config_text(example, source="README.md").to_scenario()
        assert scn.config_text == example


class TestValuesPastTheFloatRange:
    """Each once ended in an ``OverflowError`` traceback (exit 1)."""

    @staticmethod
    def _one_line(capsys, *expected):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        for text in expected:
            assert text in captured.err

    @pytest.mark.parametrize("argv", [["constants", "1e400"], ["constants", "-1e400"],
                                      ["feasible", "1e400", "0.1", "m"]],
                             ids=["constants", "constants-negative", "feasible"])
    def test_adiabatic_exponent_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 64
        self._one_line(capsys, f"got {argv[1]}")

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_adiabatic_exponent_in_a_config_is_a_data_error(self, command, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {"gamma = 5/3": "gamma = 1e400"})
        assert main(["--out", str(tmp_path / "out"), command, str(cfg)]) == 65
        self._one_line(capsys, f"{cfg}:5: adiabatic exponent", "got 1e400")

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("old,new", [("amp = 0.05", "amp = 1e300"),
                                         ("rate = 10", "rate = 1e-300")])
    def test_region_grown_past_the_floats_is_refused(self, command, old, new, tmp_path,
                                                     capsys):
        # exp(I) of the majorant integral overflows in the speed bounds.
        cfg = small_config("p3_desk", tmp_path, {old: new})
        assert main(["--out", str(tmp_path / "out"), command, str(cfg)]) == 65
        self._one_line(capsys, "region 'l' grows by exp(I) past the float range")

    @pytest.mark.parametrize("cfl", ["1e-320", "5e-324"])
    def test_step_count_past_the_floats_is_a_data_error(self, cfl, tmp_path, capsys):
        # T*lambda/(cfl*dx) overflows, or cfl*dx underflows to 0.
        cfg = small_config("p3_desk", tmp_path, {"cfl = 0.9": f"cfl = {cfl}"})
        assert main(["check", str(cfg)]) == 65
        self._one_line(capsys, f"({float(cfl):g}*", "is past the float range")


class TestFeasible:
    def test_feasible_point(self, capsys):
        assert main(["feasible", "5/3", "0.005", "m"]) == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_infeasible_report(self, capsys):
        assert main(["feasible", "5/3", "0.12", "m"]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["m", "r", "l"])
    @pytest.mark.parametrize("integral", ["354", "354.8", "400", "1e308"])
    def test_integral_past_the_float_range_is_infeasible(self, integral, kind, capsys):
        # From about I = 354.89 exp(2I) overflows; at 354 only kind r's search
        # overflows, and m and l search as for any I.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["feasible", "5/3", integral, kind]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"INFEASIBLE kind={kind} ") and "slack -1 " in out
        assert out.count("\n") == 1 and err == ""

    @pytest.mark.parametrize("integral", ["-1e3", "-inf", "-2.5E-1"])
    def test_negative_integral_needs_no_separator(self, integral, capsys):
        # argparse's own pattern reads -1e3 and -inf as options.
        assert main(["feasible", "5/3", integral, "m"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err == (f"total majorant integral must be finite and "
                                     f"nonnegative, got {float(integral)}\n")

    @pytest.mark.parametrize("kind", ["m", "r", "l"])
    @pytest.mark.parametrize("integral", ["nan", "inf", "-inf"])
    def test_integral_not_finite_is_a_usage_error(self, integral, kind, capsys):
        assert main(["feasible", "5/3", "--", integral, kind]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err == (f"total majorant integral must be finite and "
                                     f"nonnegative, got {integral}\n")


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = small_config("p1_desk", tmp, SMALL)
    out = tmp / "artifacts"
    assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == 0
    return out


class TestSimulateTraceVerify:
    def test_simulate_artifacts(self, sim_out):
        assert (sim_out / "report.json").exists()
        assert (sim_out / "fields.csv").exists()

    def test_trace_writes_path_csv(self, sim_out, tmp_path, capsys):
        traj = sim_out / "trajectory.npz"
        code = main(["--out", str(tmp_path), "trace", str(traj),
                     "--family", "1", "--x0", "0.7"])
        assert code == 0
        files = list(tmp_path.glob("path_f1_*.csv"))
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("t,x,z,w,value,A,B,C,margin_lower")

    def test_verify_reports_ok(self, sim_out, tmp_path, capsys):
        traj = sim_out / "trajectory.npz"
        code = main(["--out", str(tmp_path), "verify", str(traj)])
        assert code == 0
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        assert payload["ok"]
        assert payload["conservative_residual"] is not None
        assert "family 1: checked=20/20 " in capsys.readouterr().out

    def test_verify_json_format_prints_the_report(self, sim_out, tmp_path, capsys):
        code = main(["--format", "json", "--out", str(tmp_path), "verify",
                     str(sim_out / "trajectory.npz")])
        assert code == 0
        assert capsys.readouterr().out == (tmp_path / "verify_report.json").read_text()

    @pytest.mark.parametrize("t0", ["-0.5", "1.2"])
    def test_launch_time_outside_the_run_is_a_usage_error(self, sim_out, tmp_path, capsys, t0):
        # The run's T is 1.
        assert main(["--out", str(tmp_path), "trace", str(sim_out / "trajectory.npz"),
                     "--family", "2", "--x0", "0.3", "--t0", t0]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err == f"launch time {float(t0)} outside the stored run's [0, 1.0]\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_launch_at_either_end_of_the_run_traces(self, sim_out, tmp_path, t0):
        assert main(["--quiet", "--out", str(tmp_path), "trace",
                     str(sim_out / "trajectory.npz"), "--family", "2", "--x0", "0.3",
                     "--t0", str(t0)]) == 0
        rows = (tmp_path / f"path_f2_x0.3_t{t0:g}.csv").read_text().splitlines()
        assert len(rows) >= 2 and float(rows[1].split(",")[0]) == t0

    def test_launch_between_stored_times_samples_stored_times(self, sim_out, tmp_path):
        traj = load_trajectory(sim_out / "trajectory.npz")
        t0 = 0.5 * float(traj.times[40] + traj.times[41])
        assert main(["--quiet", "--out", str(tmp_path), "trace", str(sim_out / "trajectory.npz"),
                     "--family", "2", "--x0", "0.3", "--t0", repr(t0)]) == 0
        path_csv, = tmp_path.glob("path_f2_*.csv")
        t = np.loadtxt(path_csv, delimiter=",", skiprows=1, usecols=0)
        assert t[0] == traj.times[41] and t.size > 3 and np.isin(t, traj.times).all()

    def test_launch_past_the_end_of_a_blown_up_run_is_a_usage_error(self, tmp_path, capsys):
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 100",
                                                 "cfl = 0.9": "cfl = 2.0"})
        assert main(["--quiet", "--out", str(tmp_path / "run"), "simulate", str(cfg)]) == 4
        npz = tmp_path / "run" / "trajectory.npz"
        end = float(load_trajectory(npz).times[-1])
        assert end < 4.0  # T is 5
        assert main(["--out", str(tmp_path / "path"), "trace", str(npz),
                     "--family", "1", "--x0", "0.3", "--t0", "4"]) == 64
        assert capsys.readouterr().err == f"launch time 4.0 outside the stored run's [0, {end}]\n"
        assert not (tmp_path / "path").exists()

    def test_simulate_missing_input(self):
        assert main(["simulate", "missing.cfg"]) == 66

    def test_simulate_sweep_directory(self, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        small_config("p1_desk", sweep, SMALL, filename="a.cfg")
        small_config("p1_desk", sweep, SMALL, filename="b.cfg")
        out = tmp_path / "sweep_out"
        assert main(["--out", str(out), "simulate", str(sweep)]) == 0
        assert (out / "a" / "report.json").exists()
        assert (out / "b" / "report.json").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["a.cfg: exit 0", "b.cfg: exit 0"]

    def test_sweep_runs_the_configs_after_one_that_fails(self, tmp_path, capsys):
        # A config that raises takes the exit code it takes alone, prints
        # one stderr line that names it, and the sweep goes on.
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        bad = small_config("p1_desk", sweep, {"kind = P1": "kind = P9"}, filename="a_bad.cfg")
        small_config("p1_desk", sweep, SMALL, filename="b_good.cfg")
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", str(sweep)]) == 65
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["a_bad.cfg: exit 65", "b_good.cfg: exit 0"]
        assert (out / "b_good" / "report.json").exists() and not (out / "a_bad").exists()
        assert main(["--out", str(tmp_path / "alone"), "simulate", str(bad)]) == 65
        alone = capsys.readouterr().err
        assert "kind must be P1, P2 or P3, got 'P9'" in alone and alone.count("\n") == 1
        assert captured.err == "a_bad.cfg: " + alone


def _duct_table(path, amp):
    """A duct table of a(x) = amp*(1 + 10x)^-2 on [0, 8] at ``path``."""
    x = np.linspace(0.0, 8.0, 161)
    np.savetxt(path, np.column_stack((x, amp * (1.0 + 10.0 * x) ** -2.0)))


@pytest.fixture(scope="module")
def table_npz(tmp_path_factory):
    """A stored p3 run of a tabulated duct, ``duct.txt`` beside its config."""
    tmp = tmp_path_factory.mktemp("table")
    _duct_table(tmp / "duct.txt", 0.05)
    cfg = small_config("p3_desk", tmp, {
        "n = 2000": "n = 250",
        "family = power\namp = 0.05\nrate = 10\ndecay = 2\n":
            "family = table\ntable = duct.txt\ntail_bound = 0.001\n"})
    # The table's slope misses the |a'| certificate next to the wall.
    assert main(["--quiet", "--out", str(tmp / "out"), "simulate", "--force", str(cfg)]) == 0
    return tmp / "out" / "trajectory.npz"


class TestTabulatedDuct:
    """A stored run of a ``family = table`` duct carries the table's rows,
    so it is verified against its own duct from any directory."""

    @pytest.mark.parametrize("other", [None, 0.06])
    def test_verifies_the_same_from_any_directory(self, table_npz, other, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(table_npz.parent.parent)
        assert main(["--out", str(tmp_path / "home"), "verify", str(table_npz)]) == 0
        # Elsewhere: no table, or another one of the same name.
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        if other is not None:
            _duct_table(elsewhere / "duct.txt", other)
        monkeypatch.chdir(elsewhere)
        assert main(["--out", "v", "verify", str(table_npz)]) == 0
        want = (tmp_path / "home" / "verify_report.json").read_text()
        assert (elsewhere / "v" / "verify_report.json").read_text() == want
        assert main(["--out", "t", "trace", str(table_npz), "--family", "1", "--x0", "0.5"]) == 0

    def test_file_without_the_rows_is_refused_beside_its_table(self, table_npz, tmp_path,
                                                                monkeypatch, capsys):
        with np.load(table_npz) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["meta"]))
        assert len(meta.pop("table")) == 161
        arrays["meta"] = np.array(json.dumps(meta))
        bare = tmp_path / "bare.npz"
        np.savez(bare, **arrays)
        monkeypatch.chdir(table_npz.parent.parent)
        assert main(["--out", str(tmp_path / "v"), "verify", str(bare)]) == 65
        assert capsys.readouterr().err == (f"{bare}: meta record holds no (x, a) rows of "
                                           "the config's duct table\n")


@pytest.fixture(scope="module")
def p3_npz(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("p3")
    cfg = small_config("p3_desk", tmp, {"n = 2000": "n = 250"})
    out = tmp / "artifacts"
    assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == 0
    return out / "trajectory.npz"


def _narrow(arrays):
    arrays["z"], arrays["w"] = arrays["z"][:, :10], arrays["w"][:, :10]


def _cut_times(arrays):
    arrays["times"] = arrays["times"][:5]


def _drop_w(arrays):
    del arrays["w"]


def _short_w(arrays):
    arrays["w"] = arrays["w"][:, :-1]


def _tiny_cfl_blown_up(arrays):
    # A blown-up run may hold fewer than K + 1 rows, but no run of a config
    # past the storage ceiling (K + 1 = 94312796210 here) is ever stored.
    meta = json.loads(str(arrays["meta"]))
    meta["config_text"] = meta["config_text"].replace("cfl = 0.9", "cfl = 1e-9")
    meta["blown_up"] = True
    arrays["meta"] = np.array(json.dumps(meta))


def _damaged(npz, damage, dest):
    with np.load(npz) as data:
        arrays = {name: data[name] for name in data.files}
    damage(arrays)
    np.savez_compressed(dest, **arrays)
    return dest


def _config_sets_fan(arrays):
    meta = json.loads(str(arrays["meta"]))
    meta["config_text"] += "fan = 20\n"  # the last section is [monitors]
    arrays["meta"] = np.array(json.dumps(meta))


def _half(path, dest):
    raw = path.read_bytes()
    dest.write_bytes(raw[:len(raw) // 2])


def _zeroed(path, dest):
    raw = path.read_bytes()
    mid = len(raw) // 2
    dest.write_bytes(raw[:mid] + bytes(64) + raw[mid + 64:])


def _text(path, dest):
    dest.write_text("times, z, w\n0.0, 1.0, 2.0\n")


def _objects(path, dest):
    def objects(arrays):
        arrays["z"] = arrays["z"].astype(object)
    _damaged(path, objects, dest)


def _one_array(path, dest):
    with np.load(path) as data, open(dest, "wb") as fh:
        np.save(fh, data["z"])


class TestUnreadableTrajectoryFiles:
    # Each once ended in a traceback (exit 1): a zip without its directory,
    # a bad CRC, a pickle numpy refused, an entry of objects, and one .npy
    # array, which np.load returns in place of an archive.
    @pytest.mark.parametrize("spoil", [_half, _zeroed, _text, _objects, _one_array],
                             ids=["half", "zeroed", "text", "objects", "npy"])
    @pytest.mark.parametrize("command", [["verify"], ["trace", "--family", "1", "--x0", "0.5"]],
                             ids=["verify", "trace"])
    def test_unreadable_file_is_a_data_error(self, p3_npz, tmp_path, capsys, spoil, command):
        bad = tmp_path / "bad.npz"
        spoil(p3_npz, bad)
        argv = [command[0], str(bad), *command[1:]]
        assert main(["--out", str(tmp_path / "out"), *argv]) == 65
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{bad}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["verify"], ["trace", "--family", "1", "--x0", "0.5"]],
                             ids=["verify", "trace"])
    def test_missing_file_cannot_be_opened(self, tmp_path, capsys, command):
        argv = [command[0], str(tmp_path / "none.npz"), *command[1:]]
        assert main(["--out", str(tmp_path / "out"), *argv]) == 66
        assert capsys.readouterr().err.startswith("cannot open input")


#: The commands that read one input file, with the arguments after it.
_READERS = {"verify": [], "trace": ["--family", "1", "--x0", "0.5"], "check": []}


class TestInputsAndOutputsThatCannotBeOpened:
    # Each once ended in a traceback (exit 1): IsADirectoryError,
    # PermissionError and FileExistsError.
    @staticmethod
    def _one_line(capsys, start, path):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(start) and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", list(_READERS))
    def test_directory_is_an_input_that_cannot_be_opened(self, tmp_path, capsys, command):
        assert main(["--out", str(tmp_path / "out"), command, str(tmp_path),
                     *_READERS[command]]) == 66
        self._one_line(capsys, "cannot open input", tmp_path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(_READERS))
    def test_unreadable_file_is_an_input_that_cannot_be_opened(self, p3_npz, tmp_path,
                                                                capsys, monkeypatch, command):
        # Run as root, chmod cannot make a file unreadable: the open call
        # refuses it instead, for the builtin open and pathlib's io.open.
        target = str(CONFIG_DIR / "p3_desk.cfg" if command == "check" else p3_npz)
        plain = io.open

        def denied(file, *args, **kwargs):
            if str(file) == target:
                raise PermissionError(errno.EACCES, "Permission denied", target)
            return plain(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", denied)
        monkeypatch.setattr(io, "open", denied)
        assert main(["--out", str(tmp_path / "out"), command, target, *_READERS[command]]) == 66
        self._one_line(capsys, "cannot open input", target)

    def test_out_naming_a_file_cannot_be_created(self, p3_npz, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 250"})
        assert main(["--quiet", "--out", str(taken), "simulate", str(cfg)]) == 73
        self._one_line(capsys, "cannot create output directory", taken)
        for command in ("verify", "trace"):
            assert main(["--out", str(taken / "sub"), command, str(p3_npz),
                         *_READERS[command]]) == 73
            self._one_line(capsys, "cannot create output directory", taken / "sub")
        assert taken.read_text() == ""


class TestCourantNumberPastOne:
    """With the certified step, cfl > 1 lets a speed the region allows cross
    more than a cell per step: ``check`` and ``simulate`` warn on one line,
    and nothing else changes."""

    def test_warns_and_still_blows_up(self, tmp_path, capsys):
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 100",
                                                 "cfl = 0.9": "cfl = 2.0"})
        assert main(["--out", str(tmp_path / "loud"), "simulate", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cfl = 2 > 1" in err and str(cfg) in err
        assert main(["check", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cfl = 2 > 1" in err
        # The files are those of a quiet run, which prints nothing.
        assert main(["--quiet", "--out", str(tmp_path / "quiet"), "simulate", str(cfg)]) == 4
        assert capsys.readouterr().err == ""
        for name in ("certificates.txt", "report.json", "monitor_report.json",
                     "trajectory.npz"):
            assert ((tmp_path / "loud" / name).read_bytes()
                    == (tmp_path / "quiet" / name).read_bytes()), name

    def test_desk_config_prints_nothing(self, tmp_path, capsys):
        assert main(["check", str(CONFIG_DIR / "p3_desk.cfg")]) == 0
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 250"})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 0
        assert capsys.readouterr().err == ""


class TestStoredTrajectoryFiles:
    @pytest.mark.parametrize("damage", [_narrow, _cut_times, _drop_w, _short_w,
                                        _tiny_cfl_blown_up],
                             ids=["narrowed", "times_cut", "w_missing", "w_short",
                                  "tiny_cfl_blown_up"])
    def test_malformed_file_is_a_data_error(self, p3_npz, tmp_path, capsys, damage):
        bad = _damaged(p3_npz, damage, tmp_path / "bad.npz")
        assert main(["--out", str(tmp_path), "verify", str(bad)]) == 65
        err = capsys.readouterr().err
        assert "bad.npz" in err and "Traceback" not in err

    def test_embedded_config_that_sets_fan_is_rejected(self, p3_npz, tmp_path, capsys):
        bad = _damaged(p3_npz, _config_sets_fan, tmp_path / "fan.npz")
        assert main(["--out", str(tmp_path / "v"), "verify", str(bad)]) == 65
        assert main(["--out", str(tmp_path / "t"), "trace", str(bad),
                     "--family", "1", "--x0", "0.5"]) == 65
        err = capsys.readouterr().err
        assert "fan.npz:config" in err and "unknown key 'fan'" in err
        assert not (tmp_path / "v").exists()

    def test_trace_past_the_p3_window_is_a_usage_error(self, p3_npz, sim_out, tmp_path,
                                                       capsys):
        # At t = 0 the trusted domain is the reporting window, on P1 as on P3.
        for npz in (p3_npz, sim_out / "trajectory.npz"):
            assert main(["--out", str(tmp_path), "trace", str(npz),
                         "--family", "1", "--x0", "1.5"]) == 64
            assert "trusted extent" in capsys.readouterr().err
            assert main(["--out", str(tmp_path), "trace", str(npz),
                         "--family", "1", "--x0", "0.9"]) == 0


class TestFilesWithEdgeTraces:
    @pytest.mark.parametrize("name", ["p1", "p3"])
    def test_edge_trace_entries_are_not_read(self, name, sim_out, p3_npz, tmp_path):
        # Files written before the stored run was times, z and w also held
        # the x = 0 edge traces.  They load and verify as the run does.
        new = sim_out / "trajectory.npz" if name == "p1" else p3_npz
        old = tmp_path / "old.npz"
        old.write_bytes(new.read_bytes())
        with zipfile.ZipFile(old, "a", zipfile.ZIP_DEFLATED) as npz:
            for entry, values in zip(("z_edge", "w_edge"), older_edges(load_trajectory(new))):
                with npz.open(entry + ".npy", "w") as out:
                    np.lib.format.write_array(out, values, allow_pickle=False)
        with np.load(old) as data:
            assert sorted(data.files) == ["meta", "times", "w", "w_edge", "z", "z_edge"]
        back, plain = load_trajectory(old), load_trajectory(new)
        assert all(getattr(back, key).tobytes() == getattr(plain, key).tobytes()
                   for key in ("times", "z", "w"))
        codes = [main(["--quiet", "--out", str(tmp_path / path.stem), "verify", str(path)])
                 for path in (new, old)]
        assert codes == [0, 0]
        assert (tmp_path / "old" / "verify_report.json").read_bytes() == \
            (tmp_path / new.stem / "verify_report.json").read_bytes()


@pytest.fixture(scope="module")
def p2_npz(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("p2")
    cfg = small_config("p2_desk", tmp, {"n = 2000": "n = 150"})
    out = tmp / "artifacts"
    assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == 0
    return out / "trajectory.npz"


def _planted(value, row, col):
    def plant(arrays):
        arrays["z"] = arrays["z"].copy()
        arrays["z"][row, col] = value
    return plant


class TestValuesNotFinite:
    # A NaN or inf mid-run once reached the tracer as a position (an
    # IndexError); a NaN near the start made verify fail its checks (exit 3).
    @pytest.mark.parametrize("plant", [_planted(np.nan, 50, 10), _planted(np.inf, 50, 10),
                                       _planted(np.nan, 3, 2)],
                             ids=["nan_mid_run", "inf_mid_run", "nan_early"])
    def test_stored_value_not_finite_is_a_data_error(self, p2_npz, tmp_path, capsys, plant):
        bad = _damaged(p2_npz, plant, tmp_path / "bad.npz")
        assert main(["--out", str(tmp_path / "v"), "verify", str(bad)]) == 65
        err = capsys.readouterr().err
        assert "bad.npz" in err and "not finite" in err and "Traceback" not in err
        assert not (tmp_path / "v").exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_unknown_flag(self, capsys):
        assert main(["constants", "5/3", "--nope"]) == 64

    def test_missing_required_argument(self, capsys):
        assert main(["trace", "x.npz", "--family", "1"]) == 64

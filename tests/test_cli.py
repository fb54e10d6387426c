import json

import numpy as np
import pytest

from conftest import CONFIG_DIR, small_config
from nozzleflow.cli import main

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

    def test_long_flat_expression_checks(self, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path,
                           {"z0 = -3.6 + 0*x": "z0 = -3.6" + " + 0*x" * 3000})
        assert main(["check", str(cfg)]) == 0

    @pytest.mark.parametrize("old,new", [
        ("T = 5.0", "T = nan"),
        ("T = 5.0", "T = inf"),
        ("n = 2000", "n = 0"),
        ("snapshot_stride = 1", "snapshot_stride = 0"),
        ("fan = 20", "fan = 0"),
        ("n = 2000", "n = -5"),
        ("cfl = 0.9", "cfl = nan"),
    ])
    def test_value_out_of_range(self, old, new, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {old: new})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert new.split(" = ")[0] in err
        assert "Traceback" not in err

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

    def test_p3_grid_too_coarse_for_the_outflow_ghosts(self, tmp_path, capsys):
        # At T = 0 the grid is the window, so two cells fit the launch fan.
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 2", "T = 5.0": "T = 0.0"})
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert "n = 2: the P3 outflow ghosts" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,n", [("p3_desk", 27), ("p2_desk", 4), ("p1_desk", 3)])
    def test_coarsest_grid_that_fits_the_window_runs(self, name, n, tmp_path):
        cfg = small_config(name, tmp_path, {"n = 2000": f"n = {n}"})
        assert main(["--quiet", "--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 0

    @pytest.mark.parametrize("key,value", [
        ("margin_tol_factor", "5.0"), ("strict_margin", "1e-9"), ("compat_tol", "1e-8"),
        ("cert_samples", "2048"), ("blow_limit", "1e6"),
    ])
    def test_fixed_tolerance_is_not_a_key(self, key, value, tmp_path, capsys):
        cfg = small_config("p3_desk", tmp_path, {"[monitors]": f"[monitors]\n{key} = {value}"})
        assert main(["check", str(cfg)]) == 65
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 5, 100])
    def test_p2_at_time_zero_certifies_and_runs(self, n, tmp_path):
        # The boundary data are one instant, with one-sided rates.
        cfg = small_config("p2_desk", tmp_path, {"n = 2000": f"n = {n}", "T = 1.0": "T = 0.0"})
        assert main(["--quiet", "check", str(cfg)]) == 0
        assert main(["--quiet", "--out", str(tmp_path / "out"), "simulate", str(cfg)]) == 0


class TestFeasible:
    def test_feasible_point(self, capsys):
        assert main(["feasible", "5/3", "0.005", "m"]) == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_infeasible_report(self, capsys):
        assert main(["feasible", "5/3", "0.12", "m"]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out


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


class TestStoredTrajectoryFiles:
    @pytest.mark.parametrize("damage", [_narrow, _cut_times, _drop_w, _short_w],
                             ids=["narrowed", "times_cut", "w_missing", "w_short"])
    def test_malformed_file_is_a_data_error(self, p3_npz, tmp_path, capsys, damage):
        with np.load(p3_npz) as data:
            arrays = {name: data[name] for name in data.files}
        damage(arrays)
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **arrays)
        assert main(["--out", str(tmp_path), "verify", str(bad)]) == 65
        err = capsys.readouterr().err
        assert "bad.npz" in err and "Traceback" not in err

    def test_trace_past_the_p3_window_is_a_usage_error(self, p3_npz, sim_out, tmp_path,
                                                       capsys):
        # At t = 0 the trusted domain is the reporting window, on P1 as on P3.
        for npz in (p3_npz, sim_out / "trajectory.npz"):
            assert main(["--out", str(tmp_path), "trace", str(npz),
                         "--family", "1", "--x0", "1.5"]) == 64
            assert "trusted extent" in capsys.readouterr().err
            assert main(["--out", str(tmp_path), "trace", str(npz),
                         "--family", "1", "--x0", "0.9"]) == 0


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_unknown_flag(self, capsys):
        assert main(["constants", "5/3", "--nope"]) == 64

    def test_missing_required_argument(self, capsys):
        assert main(["trace", "x.npz", "--family", "1"]) == 64

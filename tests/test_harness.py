import json

import numpy as np
import pytest

from conftest import desk_scenario, region_l, small_config, uniform_scenario
from nozzleflow import solver
from nozzleflow.characteristics import launch_fan
from nozzleflow.config import load_config
from nozzleflow.errors import DomainError
from nozzleflow.harness import (EXIT_BLOWUP, EXIT_CERT, EXIT_MONITOR, EXIT_OK,
                                Monitors, certify, characteristic_pass,
                                conservative_residual, load_trajectory,
                                run_scenario, write_fields_csv)
from nozzleflow.solver import run

SMALL = {"n = 2000": "n = 300", "T = 5.0": "T = 1.0"}


@pytest.fixture(scope="module")
def p1_small_run():
    scn = desk_scenario("p1_desk", n=300, T=1.0)
    monitors = Monitors(scn)
    traj, final = run(scn, monitors)
    return scn, traj, monitors.finalize()


class TestCertify:
    def test_desk_scenarios_pass(self):
        for name in ("p1_desk", "p2_desk", "p3_desk"):
            bundle = certify(desk_scenario(name))
            assert bundle.passed, bundle.render_text()

    def test_shifted_data_fails_membership(self, tmp_path):
        path = small_config("p1_desk", tmp_path, dict(SMALL, **{
            "z0 = -0.5 + 0.012*(1 - 1/(1 + 10*x))": "z0 = -0.3"}))
        bundle = certify(load_config(path).to_scenario())
        assert not bundle.passed
        failing = {c.name: c for c in bundle.certificates if not c.passed}
        assert "initial-membership" in failing
        assert any("z_hi" in item.name for item in
                   failing["initial-membership"].items if not item.passed)

    def test_nonpositive_inflow_functional_fails_data_conditions(self, tmp_path):
        path = small_config("p2_desk", tmp_path, {
            "z0 = 1.1 + 0.006*(1 - 1/(1 + 10*x))":
            "z0 = 1.1 - 0.06*(1 - 1/(1 + 10*x))"})
        bundle = certify(load_config(path).to_scenario())
        failing = {c.name for c in bundle.certificates if not c.passed}
        assert "data-conditions" in failing


class TestConservativeResidual:
    def test_uniform_straight_duct_is_exact(self, law53):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, n=64, T=0.5)
        traj, _ = run(scn)
        rep = conservative_residual(traj)
        assert rep.max_linf < 1e-12

    def test_needs_full_stride(self, law53):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, n=64,
                               T=0.5, snapshot_stride=2)
        traj, _ = run(scn)
        with pytest.raises(DomainError):
            conservative_residual(traj)

    def test_refinement_shrinks_residual(self):
        res = {}
        for n in (300, 600):
            scn = desk_scenario("p3_desk", n=n, T=1.0)
            traj, _ = run(scn)
            res[n] = conservative_residual(traj).max_linf
        assert res[300] / res[600] >= 1.5

    def test_planted_sign_mutation_is_caught(self, monkeypatch):
        scn = desk_scenario("p3_desk", n=200, T=0.5)
        healthy = conservative_residual(run(scn)[0]).max_linf

        def flipped(z, w, a, law):
            s = 0.125 * (law.gamma - 1.0) * a * (w - z) * (w + z)
            return s, s  # wrong sign on the second equation

        monkeypatch.setattr(solver, "source_pair", flipped)
        scn2 = desk_scenario("p3_desk", n=200, T=0.5)
        mutated = conservative_residual(run(scn2)[0]).max_linf
        assert mutated > 20.0 * healthy


class TestMonitors:
    def test_clean_run_reports_ok(self, p1_small_run):
        _, _, report = p1_small_run
        assert report.ok
        assert report.containment_ok_raw
        assert report.min_gap.min() >= report.C3 - report.margin_tol
        assert report.first_violation is None

    def test_report_serializes(self, p1_small_run):
        _, _, report = p1_small_run
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["flags"]["ok"]
        assert payload["steps"] > 0


class TestCharacteristicPass:
    def test_desk_small(self, p1_small_run):
        scn, traj, _ = p1_small_run
        result = characteristic_pass(traj)
        assert result["ok"]
        for fam in ("1", "2"):
            stats = result["families"][fam]
            assert stats["paths"] >= scn.fan
            assert stats["bounds_ok"]
            assert stats["speed_margin"] > 0
            fan = launch_fan(traj, int(fam))
            assert stats["samples"] == sum(path.n for path in fan)
            assert stats["exits"] == {
                reason: sum(path.exit_reason == reason for path in fan)
                for reason in ("end", "left", "cone")}
        assert result["derivative_bounds"]["ok"]

    def test_weak_barrier_scale_fails(self, p1_small_run):
        scn, traj, _ = p1_small_run
        result = characteristic_pass(traj, M=scn.profile.M / 100.0)
        assert not result["ok"]


class TestRunScenario:
    def test_small_p1_produces_artifacts(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, SMALL)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == EXIT_OK
        for name in ("certificates.txt", "certificates.json", "report.json",
                     "monitor_report.json", "fields.csv", "trajectory.npz"):
            assert (out / name).exists(), name
        header = (out / "fields.csv").read_text().splitlines()[0]
        assert header == ("t,x,rho,v,z,w,z_x,w_x,Phi,Psi,margin_z_lo,"
                          "margin_z_hi,margin_w_lo,margin_w_hi,gap,lambda1,lambda2")
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_OK
        assert report["certification"]["passed"]

    def test_certification_failure_exits_2(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, dict(SMALL, **{
            "z0 = -0.5 + 0.012*(1 - 1/(1 + 10*x))": "z0 = -0.3"}))
        assert run_scenario(cfg, tmp_path / "out") == EXIT_CERT

    def test_override_reaches_monitor_violation(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, dict(SMALL, **{
            "z0 = -0.5 + 0.012*(1 - 1/(1 + 10*x))": "z0 = -0.3"}))
        code = run_scenario(cfg, tmp_path / "out", force=True)
        assert code == EXIT_MONITOR
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["certification_overridden"]
        assert report["monitors"]["first_violation"]["step"] == 0

    def test_unstable_run_exits_4(self, tmp_path):
        # the instability needs a horizon to develop, so keep T at desk scale
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 300",
                                                 "cfl = 0.9": "cfl = 2.0"})
        assert run_scenario(cfg, tmp_path / "out") == EXIT_BLOWUP
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["exit_code"] == EXIT_BLOWUP
        assert "blow_up" in report

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, SMALL)
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "fields.csv").read_bytes() == \
            (tmp_path / "b" / "fields.csv").read_bytes()
        assert (tmp_path / "a" / "monitor_report.json").read_bytes() == \
            (tmp_path / "b" / "monitor_report.json").read_bytes()


class TestTrajectoryRoundTrip:
    def test_save_load(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, SMALL)
        scn = load_config(cfg).to_scenario()
        traj, _ = run(scn)
        traj.save(tmp_path / "t.npz")
        back = load_trajectory(tmp_path / "t.npz")
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.z, traj.z)
        assert back.scenario.problem == "P1"
        assert back.grid.dx == pytest.approx(traj.grid.dx)

    def test_csv_stride(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, SMALL)
        scn = load_config(cfg).to_scenario()
        traj, _ = run(scn)
        write_fields_csv(traj, tmp_path / "f.csv", stride=max(1, len(traj.times) // 3))
        lines = (tmp_path / "f.csv").read_text().splitlines()
        window_cells = int(scn.runtime_arrays()["window"].sum())
        assert (len(lines) - 1) % window_cells == 0


class _Recorder:
    """Monitor stand-in that keeps every full-width field the solver yields."""

    def __init__(self):
        self.z, self.w = [], []

    def observe(self, fld, bv, prev, dt):
        self.z.append(fld.z.copy())
        self.w.append(fld.w.copy())


def _full_width_npz(traj, recorder, path):
    """Save ``traj`` the way files were written before snapshots were trimmed:
    with every column of the recorded fields."""
    meta = {"config_text": traj.scenario.config_text, "blown_up": False,
            "snapshot_stride": traj.snapshot_stride}
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), times=traj.times,
                        dts=traj.dts, z=np.array(recorder.z), w=np.array(recorder.w),
                        z_edge=traj.z_edge, w_edge=traj.w_edge)


@pytest.fixture(scope="module")
def p3_recorded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("p3")
    scn = load_config(small_config("p3_desk", tmp, {"n = 2000": "n = 250"})).to_scenario()
    recorder = _Recorder()
    traj, _ = run(scn, recorder)
    _full_width_npz(traj, recorder, tmp / "full.npz")
    return traj, recorder, tmp / "full.npz"


class TestTrustedColumns:
    def test_p3_stores_the_window_plus_two_cells(self, p3_recorded):
        traj, recorder, _ = p3_recorded
        scn = traj.scenario
        window_cells = int(scn.runtime_arrays()["window"].sum())
        assert scn.trusted_cells == window_cells + 2 < scn.grid.n
        assert traj.z.shape == (len(recorder.z), scn.trusted_cells)
        assert np.array_equal(traj.z, np.array(recorder.z)[:, :scn.trusted_cells])
        assert np.array_equal(traj.w, np.array(recorder.w)[:, :scn.trusted_cells])

    def test_p1_and_p2_store_every_cell(self):
        for name in ("p1_desk", "p2_desk"):
            scn = desk_scenario(name, n=120, T=0.5)
            traj, _ = run(scn)
            assert scn.trusted_cells == scn.grid.n
            assert traj.z.shape[1] == traj.w.shape[1] == scn.grid.n

    def test_full_width_file_is_trimmed_on_load(self, p3_recorded):
        traj, _, full = p3_recorded
        back = load_trajectory(full)
        assert np.array_equal(back.z, traj.z)
        assert np.array_equal(back.w, traj.w)
        assert characteristic_pass(back) == characteristic_pass(traj)
        got, want = conservative_residual(back), conservative_residual(traj)
        for name in ("times", "linf_rho", "l1_rho", "linf_mom", "l1_mom"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_each_snapshot_is_held_once(self, p3_recorded):
        traj, _, full = p3_recorded
        back = load_trajectory(full)
        stacked = back.z
        assert back._rows is None
        fld = solver.Field(traj.z[-1].copy(), traj.w[-1].copy(), 99.0, back.grid)
        bv = solver.boundary_update(fld, fld.t, back.scenario)
        back.append(fld, 0.5, bv)
        assert back.z.shape == (stacked.shape[0] + 1, stacked.shape[1])
        assert np.array_equal(back.z[:-1], stacked)
        assert back.times[-1] == 99.0

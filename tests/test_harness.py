import dataclasses
import json
import zipfile

import numpy as np
import pytest

from conftest import desk_scenario, region_l, small_config, uniform_scenario
from nozzleflow import solver
from nozzleflow.characteristics import boundary_fan, launch_fan
from nozzleflow.cli import main
from nozzleflow.config import load_config
from nozzleflow.errors import BlowUpError, DomainError, VacuumStateError
from nozzleflow.harness import (_BLOCK, _FACES, EXIT_BLOWUP, EXIT_CERT,
                                EXIT_DATAERR, EXIT_MONITOR, EXIT_OK, Monitors,
                                certify, characteristic_pass,
                                conservative_residual, load_trajectory,
                                run_scenario, write_fields_csv)
from nozzleflow.region import membership_margins
from nozzleflow.riccati import phi_psi_zw
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


class _PerStepMonitors(Monitors):
    """The monitors as they were before block evaluation: each step on its
    own, gradients and time differences over the whole grid.  Kept as the
    reference the block evaluation must match bitwise."""

    def __init__(self, scn):
        super().__init__(scn)
        arrays = scn.runtime_arrays()
        self.window = arrays["window"]
        self.s_win = arrays["s"][self.window]
        self.a_win = arrays["a"][self.window]

    def observe(self, fld, bv, prev, dt):
        z = fld.z[self.window]
        w = fld.w[self.window]
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            self.finite_ok = False
        margins = membership_margins(z, w, self.s_win, self.scn.region)
        for face in _FACES:
            arr = margins[face]
            i = int(np.argmin(arr))
            self.margin_series[face].append(float(arr[i]))
            self.margin_argmin[face].append(i)
        self.series["t"].append(fld.t)
        self.series["gap"].append(float((w - z).min()))
        zx = np.gradient(fld.z, self.dx)[self.window]
        wx = np.gradient(fld.w, self.dx)[self.window]
        self.series["zx"].append(float(np.abs(zx).max()))
        self.series["wx"].append(float(np.abs(wx).max()))
        if prev is not None and dt > 0.0:
            self.series["zt"].append(float(np.abs((fld.z - prev.z)[self.window]).max() / dt))
            self.series["wt"].append(float(np.abs((fld.w - prev.w)[self.window]).max() / dt))
        phi, psi = phi_psi_zw(z, w, zx, wx, self.a_win, self.scn.law)
        self.series["phi_min"].append(float(phi.min()))
        self.series["phi_max"].append(float(phi.max()))
        self.series["psi_min"].append(float(psi.min()))
        self.series["psi_max"].append(float(psi.max()))
        self.series["edge"].append(abs(bv.z_edge + bv.w_edge)
                                   if self.scn.problem == "P1" else 0.0)


class _Both:
    """Hands every state of a run to the block and the per-step monitors."""

    def __init__(self, scn):
        self.block, self.reference = Monitors(scn), _PerStepMonitors(scn)

    def observe(self, *args):
        self.block.observe(*args)
        self.reference.observe(*args)


_SERIES = ("times", "min_gap", "max_abs_zx", "max_abs_wx", "max_abs_zt",
           "max_abs_wt", "phi_min", "phi_max", "psi_min", "psi_max", "edge_defect")
_SCALARS = ("lip_estimate", "margin_tol", "C3", "containment_ok_raw",
            "containment_ok", "vacuum_ok", "finite_ok", "edge_ok", "first_violation")


def _assert_block_matches_per_step(both):
    got, want = both.block.finalize(), both.reference.finalize()
    for name in _SERIES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for face in _FACES:
        assert np.array_equal(got.min_margins[face], want.min_margins[face]), face
    assert both.block.margin_argmin == both.reference.margin_argmin
    for name in _SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.to_dict() == want.to_dict()
    return got


class TestBlockMonitors:
    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    def test_desk_runs_match_per_step(self, name, n):
        scn = desk_scenario(name, n=n)
        both = _Both(scn)
        run(scn, both)
        report = _assert_block_matches_per_step(both)
        steps = len(report.times) - 1
        assert steps > _BLOCK and steps % _BLOCK != 0
        assert report.ok

    @pytest.mark.parametrize("T", [0.0, 1e-4])
    def test_runs_shorter_than_a_block(self, T):
        scn = desk_scenario("p3_desk", n=250, T=T)
        both = _Both(scn)
        traj, _ = run(scn, both)
        report = _assert_block_matches_per_step(both)
        assert len(report.times) == len(traj.times) == (1 if T == 0.0 else 2)
        assert len(report.max_abs_zt) == len(report.times) - 1

    def test_out_of_region_data_flagged_at_step_zero(self):
        scn = desk_scenario("p1_desk", n=200, T=0.02)
        shifted = dataclasses.replace(scn, z0=lambda x, f=scn.z0: f(x) + 0.2)
        both = _Both(shifted)
        run(shifted, both)
        report = _assert_block_matches_per_step(both)
        assert not report.containment_ok
        assert report.first_violation["step"] == 0

    @pytest.mark.parametrize("n, T", [(64, 0.05), (128, 5.0)])
    def test_vacuum_in_the_window_raises(self, law53, n, T):
        scn = uniform_scenario("P3", -3.0, -3.0, region_l(), law53, n=n, T=T)
        with pytest.raises(VacuumStateError):
            run(scn, _PerStepMonitors(scn))
        monitors = Monitors(scn)
        if T < 1.0:  # 10 steps: the error comes with the last block
            run(scn, monitors)
            with pytest.raises(VacuumStateError):
                monitors.finalize()
        else:  # 122 steps: the first full block raises inside the run
            with pytest.raises(VacuumStateError):
                run(scn, monitors)

    def test_vacuum_before_a_blow_up_is_the_error_reported(self, tmp_path, capsys):
        # At n = 100 this unstable run reaches a vacuum state in the window
        # some steps before it blows up, inside one block.
        cfl2 = {"n = 2000": "n = 100", "cfl = 0.9": "cfl = 2.0"}
        scn = load_config(small_config("p1_desk", tmp_path, cfl2)).to_scenario()
        with pytest.raises(VacuumStateError):
            run(scn, _PerStepMonitors(scn))
        monitors = Monitors(scn)
        with pytest.raises(BlowUpError):
            run(scn, monitors)
        with pytest.raises(VacuumStateError):
            monitors.finalize()
        cfg = small_config("p1_desk", tmp_path, cfl2)
        assert main(["--out", str(tmp_path / "out"), "simulate", str(cfg)]) == EXIT_DATAERR
        assert "vacuum gap" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "certificates.json", "certificates.txt"]

    def test_blow_up_reports_the_partial_series(self):
        scn = desk_scenario("p1_desk", n=300, T=5.0, cfl=2.0)
        both = _Both(scn)
        with pytest.raises(BlowUpError) as err:
            run(scn, both)
        report = _assert_block_matches_per_step(both)
        assert len(report.times) == len(err.value.trajectory.times)
        assert len(report.times) > 1


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

    @pytest.mark.parametrize("subs,code", [
        (SMALL, EXIT_OK),
        ({"n = 2000": "n = 300", "cfl = 0.9": "cfl = 2.0"}, EXIT_BLOWUP),
    ], ids=["clean", "blow-up"])
    def test_monitor_series_written_once(self, subs, code, tmp_path):
        cfg = small_config("p1_desk", tmp_path, subs)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == code
        summary = json.loads((out / "report.json").read_text())["monitors"]
        record = json.loads((out / "monitor_report.json").read_text())
        assert "series" not in summary and record["series"]["times"]
        assert record == dict(summary, series=record["series"])

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


def _savez_compressed(traj, path, z=None, w=None):
    """Save ``traj`` the way files were written before the level-1 writer,
    optionally with other snapshots ``z``, ``w``."""
    meta = {"config_text": traj.scenario.config_text, "blown_up": traj.blown_up,
            "snapshot_stride": traj.snapshot_stride}
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), times=traj.times,
                        dts=traj.dts, z=traj.z if z is None else z,
                        w=traj.w if w is None else w,
                        z_edge=traj.z_edge, w_edge=traj.w_edge)


class TestTrajectoryWriter:
    @pytest.fixture(scope="class")
    def p3_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("writer")
        scn = load_config(small_config("p3_desk", tmp, {"n = 2000": "n = 250"})).to_scenario()
        traj, _ = run(scn)
        return traj, tmp

    def test_np_load_gives_the_stored_arrays_bitwise(self, p3_run):
        traj, tmp = p3_run
        traj.save(tmp / "new.npz")
        with zipfile.ZipFile(tmp / "new.npz") as npz:
            assert sorted(info.filename for info in npz.infolist()) == sorted(
                name + ".npy" for name in
                ("meta", "times", "dts", "z", "w", "z_edge", "w_edge"))
            assert all(info.compress_type == zipfile.ZIP_DEFLATED
                       for info in npz.infolist())
        with np.load(tmp / "new.npz", allow_pickle=False) as data:
            for name in ("times", "dts", "z", "w", "z_edge", "w_edge"):
                stored = getattr(traj, name)
                assert data[name].dtype == stored.dtype, name
                assert data[name].tobytes() == stored.tobytes(), name
            meta = json.loads(str(data["meta"]))
        assert meta == {"config_text": traj.scenario.config_text,
                        "blown_up": False, "snapshot_stride": 1}

    def test_old_savez_file_verifies_the_same(self, p3_run):
        traj, tmp = p3_run
        traj.save(tmp / "level1.npz")
        _savez_compressed(traj, tmp / "level6.npz")
        for name in ("level1", "level6"):
            assert main(["--quiet", "--out", str(tmp / f"verify_{name}"), "verify",
                         str(tmp / f"{name}.npz")]) == EXIT_OK
        assert (tmp / "verify_level1" / "verify_report.json").read_bytes() == \
            (tmp / "verify_level6" / "verify_report.json").read_bytes()

    def test_blown_up_partial_run_saves_and_loads(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 100",
                                                 "cfl = 0.9": "cfl = 2.0"})
        with pytest.raises(BlowUpError) as err:
            run(load_config(cfg).to_scenario())
        partial = err.value.trajectory
        partial.save(tmp_path / "partial.npz")
        back = load_trajectory(tmp_path / "partial.npz")
        assert back.blown_up
        for name in ("times", "dts", "z", "w", "z_edge", "w_edge"):
            assert np.array_equal(getattr(back, name), getattr(partial, name)), name


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
    _savez_compressed(traj, path, z=np.array(recorder.z), w=np.array(recorder.w))


def _recorded(tmp_path_factory, name, n):
    tmp = tmp_path_factory.mktemp(name)
    scn = load_config(small_config(name, tmp, {"n = 2000": f"n = {n}"})).to_scenario()
    recorder = _Recorder()
    traj, _ = run(scn, recorder)
    _full_width_npz(traj, recorder, tmp / "full.npz")
    return traj, recorder, tmp / "full.npz"


@pytest.fixture(scope="module")
def p3_recorded(tmp_path_factory):
    return _recorded(tmp_path_factory, "p3_desk", 250)


def _same_checks(back, traj):
    assert characteristic_pass(back) == characteristic_pass(traj)
    got, want = conservative_residual(back), conservative_residual(traj)
    for name in ("times", "linf_rho", "l1_rho", "linf_mom", "l1_mom"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestTrustedColumns:
    def test_p3_stores_the_window_plus_two_cells(self, p3_recorded):
        traj, recorder, _ = p3_recorded
        scn = traj.scenario
        window_cells = int(scn.runtime_arrays()["window"].sum())
        assert scn.trusted_cells == window_cells + 2 < scn.grid.n
        assert traj.z.shape == (len(recorder.z), scn.trusted_cells)
        assert np.array_equal(traj.z, np.array(recorder.z)[:, :scn.trusted_cells])
        assert np.array_equal(traj.w, np.array(recorder.w)[:, :scn.trusted_cells])

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    def test_reach_sets_the_stored_width_and_bounds_every_sample(self, name):
        scn = desk_scenario(name, n=120, T=0.5)
        traj, _ = run(scn)
        lam = scn.speed_bounds.lambda_abs_max
        # reach climbs at lambda_abs_max until T/2 when a speed can be
        # positive, and stays at the window's edge when both are negative.
        top = scn.x_interest + (0.0 if name == "p3_desk" else 0.5 * lam * scn.T)
        assert float(scn.reach(0.0)) == scn.x_interest
        assert float(scn.reach(scn.T)) == pytest.approx(scn.x_interest)
        cells = int((scn.runtime_arrays()["x"] <= top + 1e-9).sum())
        assert scn.trusted_cells == cells + 2 < scn.grid.n
        assert traj.z.shape[1] == traj.w.shape[1] == scn.trusted_cells
        for family in (1, 2):
            paths = launch_fan(traj, family)
            if scn.problem == "P2":
                paths += boundary_fan(traj, family)
            for path in paths:
                assert np.all(path.x <= scn.reach(path.t)), (family, path.x0, path.t0)

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk"])
    def test_columns_past_the_rule_are_never_read(self, tmp_path_factory, name):
        traj, recorder, _ = _recorded(tmp_path_factory, name, 120)
        m = traj.scenario.trusted_cells
        z, w = np.array(recorder.z), np.array(recorder.w)
        assert m < z.shape[1]
        z[:, m:] = np.nan
        w[:, m:] = np.nan
        path = tmp_path_factory.mktemp(name) / "nan_tail.npz"
        _savez_compressed(traj, path, z=z, w=w)
        _same_checks(load_trajectory(path), traj)

    def test_full_width_file_is_trimmed_on_load(self, p3_recorded):
        traj, _, full = p3_recorded
        back = load_trajectory(full)
        assert np.array_equal(back.z, traj.z)
        assert np.array_equal(back.w, traj.w)
        _same_checks(back, traj)

    def test_each_snapshot_is_held_once(self, p3_recorded):
        traj, _, full = p3_recorded
        back = load_trajectory(full)
        for held in (traj, back):
            assert held._rows is None
            assert held.z.shape == held.w.shape == (len(held.times), held.scenario.trusted_cells)

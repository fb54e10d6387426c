import contextlib
import dataclasses
import json
import re
import zipfile

import numpy as np
import pytest

from conftest import (desk_config_text, desk_scenario, older_edges, older_steps, region_l,
                      small_config, thinned_run_file, uniform_scenario)
from nozzleflow import characteristics as chars
from nozzleflow import harness, solver
from nozzleflow.characteristics import FAN, launch_fan
from nozzleflow.cli import main
from nozzleflow.config import load_config, parse_config_text
from nozzleflow.errors import (BlowUpError, RunAbortedError, TrajectoryFileError,
                               VacuumStateError)
from nozzleflow.harness import (_FACES, EXIT_BLOWUP, EXIT_CERT,
                                EXIT_DATAERR, EXIT_MONITOR, EXIT_OK,
                                MonitorReport, certify, characteristic_pass,
                                conservative_residual, load_trajectory,
                                monitor_report, run_scenario, write_fields_csv,
                                write_path_csv)
from nozzleflow.region import NozzleProfile, membership_margins
from nozzleflow.riccati import phi_psi_zw
from nozzleflow.solver import _BLOCK, Trajectory, run, step

SMALL = {"n = 2000": "n = 300", "T = 5.0": "T = 1.0"}


@pytest.fixture(scope="module")
def p1_small_run():
    scn = desk_scenario("p1_desk", n=300, T=1.0)
    traj, _ = run(scn)
    return scn, traj, monitor_report(traj)


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

    def test_needs_full_stride(self, tmp_path, capsys):
        # A file that stored every second step has no residual to check: its
        # times are not the step times of its config.
        thinned = thinned_run_file(tmp_path)
        assert main(["--out", str(tmp_path / "out"), "verify", str(thinned)]) == EXIT_DATAERR
        assert "not those of its config's run" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

        def flipped(gap, total, coef):
            s = coef * gap * total
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

    def test_min_gap_is_the_least_gap_in_the_window(self, p1_small_run):
        scn, traj, report = p1_small_run
        gap = traj.w[:, :scn.window_cells] - traj.z[:, :scn.window_cells]
        assert np.array_equal(report.min_gap, gap.min(axis=1))

    def test_planted_negative_gap_fails_on_the_gap_face(self, p1_small_run):
        scn, _, clean = p1_small_run
        k, cell = 7, 3
        margin = {face: vals.copy() for face, vals in clean.min_margins.items()}
        argmin = {face: cells.copy() for face, cells in clean.margin_argmin.items()}
        margin["gap"][k], argmin["gap"][k] = -0.5, cell
        series = {"t": clean.times, "zx": clean.max_abs_zx, "wx": clean.max_abs_wx,
                  "zt": clean.max_abs_zt, "wt": clean.max_abs_wt,
                  "phi_min": clean.phi_min, "phi_max": clean.phi_max,
                  "psi_min": clean.psi_min, "psi_max": clean.psi_max,
                  "margin": margin, "argmin": argmin}
        report = MonitorReport.from_series(scn, series, clean.finite_ok)
        assert clean.containment_ok and clean.first_violation is None
        assert not report.containment_ok and not report.containment_ok_raw
        assert report.first_violation == {
            "step": k, "t": float(clean.times[k]), "face": "gap", "cell": cell,
            "margin": -0.5, "inequality": "margin gap >= -tol"}
        assert report.reached_vacuum and not report.vacuum_ok and not report.ok
        assert report.to_dict()["series"]["min_gap"][k] == -0.5


@contextlib.contextmanager
def _recording_steps(scn):
    """Within the block, ``solver.step`` (which ``run`` calls through the
    module) keeps the full-width z and w of every state it returns, in the
    lists it yields, after those of the initial field of ``scn``."""
    first = scn.initial_field()
    z, w = [first.z.copy()], [first.w.copy()]

    def recording(*args, **kwargs):
        new = step(*args, **kwargs)
        cells = new.state[2:-2]
        z.append(cells[:, 0].copy())
        w.append(cells[:, 1].copy())
        return new

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "step", recording)
        yield z, w


def _per_step_report(scn, zs, ws) -> MonitorReport:
    """The monitors as they were before block evaluation: each step of the
    full-width fields ``zs``, ``ws`` on its own, gradients and time
    differences over the whole grid.  Kept as the reference the block
    evaluation must match bitwise; a vacuum state raises VacuumStateError."""
    arrays = scn.runtime_arrays
    window = arrays["x"] <= scn.x_interest + 1e-12
    s_win, a_win = scn.majorant_integral(arrays["x"][window]), arrays["a"][window]
    dx, dt, times = scn.grid.dx, scn.dt, scn.step_times
    series = {key: [] for key in ("zx", "wx", "zt", "wt", "phi_min", "phi_max",
                                  "psi_min", "psi_max")}
    margin = {face: [] for face in _FACES}
    argmin = {face: [] for face in _FACES}
    finite_ok = True
    for k, (z_full, w_full) in enumerate(zip(zs, ws)):
        z, w = z_full[window], w_full[window]
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            finite_ok = False
        margins = membership_margins(z, w, s_win, scn.region)
        for face in _FACES:
            arr = margins[face]
            i = int(np.argmin(arr))
            margin[face].append(float(arr[i]))
            argmin[face].append(i)
        zx = np.gradient(z_full, dx)[window]
        wx = np.gradient(w_full, dx)[window]
        series["zx"].append(float(np.abs(zx).max()))
        series["wx"].append(float(np.abs(wx).max()))
        if k > 0 and dt > 0.0:
            series["zt"].append(float(np.abs((z_full - zs[k - 1])[window]).max() / dt))
            series["wt"].append(float(np.abs((w_full - ws[k - 1])[window]).max() / dt))
        phi, psi = phi_psi_zw(z, w, zx, wx, a_win, scn.law)
        series["phi_min"].append(float(phi.min()))
        series["phi_max"].append(float(phi.max()))
        series["psi_min"].append(float(psi.min()))
        series["psi_max"].append(float(psi.max()))
    series = {key: np.asarray(vals) for key, vals in series.items()}
    series["t"] = np.asarray(times[:len(zs)])
    series["margin"] = {face: np.asarray(vals) for face, vals in margin.items()}
    series["argmin"] = {face: np.asarray(vals) for face, vals in argmin.items()}
    return MonitorReport.from_series(scn, series, finite_ok)


_SERIES = ("times", "min_gap", "max_abs_zx", "max_abs_wx", "max_abs_zt",
           "max_abs_wt", "phi_min", "phi_max", "psi_min", "psi_max")
_SCALARS = ("lip_estimate", "margin_tol", "C3", "containment_ok_raw",
            "containment_ok", "vacuum_ok", "finite_ok", "first_violation")


def _assert_block_matches_per_step(traj, fields):
    got, want = monitor_report(traj), _per_step_report(traj.scenario, *fields)
    for name in _SERIES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for face in _FACES:
        assert np.array_equal(got.min_margins[face], want.min_margins[face]), face
        assert np.array_equal(got.margin_argmin[face], want.margin_argmin[face]), face
    for name in _SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.to_dict() == want.to_dict()
    return got


class TestBlockMonitors:
    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    def test_desk_runs_match_per_step(self, name, n):
        scn = desk_scenario(name, n=n)
        with _recording_steps(scn) as fields:
            traj, _ = run(scn)
        report = _assert_block_matches_per_step(traj, fields)
        steps = len(report.times) - 1
        assert steps > _BLOCK and steps % _BLOCK != 0
        assert report.ok

    @pytest.mark.parametrize("T", [0.0, 1e-4])
    def test_runs_shorter_than_a_block(self, T):
        scn = desk_scenario("p3_desk", n=250, T=T)
        with _recording_steps(scn) as fields:
            traj, _ = run(scn)
        report = _assert_block_matches_per_step(traj, fields)
        assert len(report.times) == len(traj.times) == (1 if T == 0.0 else 2)
        assert len(report.max_abs_zt) == len(report.times) - 1

    def test_out_of_region_data_flagged_at_step_zero(self):
        scn = desk_scenario("p1_desk", n=200, T=0.02)
        shifted = dataclasses.replace(scn, z0=lambda x, f=scn.z0: f(x) + 0.2)
        with _recording_steps(shifted) as fields:
            traj, _ = run(shifted)
        report = _assert_block_matches_per_step(traj, fields)
        assert not report.containment_ok
        assert report.first_violation["step"] == 0

    @pytest.mark.parametrize("n, T", [(64, 0.05), (128, 5.0)])
    def test_vacuum_in_the_window_raises(self, law53, n, T):
        scn = uniform_scenario("P3", -3.0, -3.0, region_l(), law53, n=n, T=T)
        with _recording_steps(scn) as fields:
            traj, _ = run(scn)
        with pytest.raises(VacuumStateError):
            _per_step_report(scn, *fields)
        # The vacuum is at step 0; the series end with its block: all 10
        # steps of the short run, the first 64 of the 122-step one.
        report = monitor_report(traj)
        assert report.reached_vacuum and not report.vacuum_ok
        assert len(report.times) == len(report.min_gap) == min(_BLOCK, len(traj.times))
        assert len(report.phi_min) == 0

    def test_vacuum_before_a_blow_up_is_the_error_reported(self, tmp_path):
        # At n = 100 this unstable run reaches a vacuum state in the window
        # some steps before it blows up, inside one block.
        cfl2 = {"n = 2000": "n = 100", "cfl = 0.9": "cfl = 2.0"}
        scn = load_config(small_config("p1_desk", tmp_path, cfl2)).to_scenario()
        with _recording_steps(scn) as fields, pytest.raises(BlowUpError) as err:
            run(scn)
        with pytest.raises(VacuumStateError):
            _per_step_report(scn, *fields)
        # The block of the vacuum is recorded, with Phi and Psi up to it.
        report = monitor_report(err.value.trajectory)
        assert report.reached_vacuum and not report.vacuum_ok
        assert len(report.times) == len(report.min_gap) > len(report.phi_min)

    def test_blow_up_reports_the_partial_series(self):
        # This unstable run blows up at step 81 of 104, with no vacuum state
        # in the window before (at cfl = 2 a vacuum comes first).
        scn = desk_scenario("p1_desk", n=300, T=5.0, cfl=1.44)
        with _recording_steps(scn) as fields, pytest.raises(BlowUpError) as err:
            run(scn)
        report = _assert_block_matches_per_step(err.value.trajectory, fields)
        assert len(report.times) == len(err.value.trajectory.times)
        assert len(report.times) > 1


class TestCharacteristicPass:
    def test_desk_small(self, p1_small_run):
        scn, traj, _ = p1_small_run
        result = characteristic_pass(traj)
        assert result["ok"]
        for fam in ("1", "2"):
            stats = result["families"][fam]
            assert stats["paths"] == stats["checked"] == FAN
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
        weak = dataclasses.replace(
            scn, profile=dataclasses.replace(scn.profile, M=scn.profile.M / 100.0))
        stored = {name: getattr(traj, name) for name in solver._STORED}
        result = characteristic_pass(Trajectory.from_npz(weak, stored))
        assert not result["ok"]

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 120), ("p3_desk", 300)])
    def test_one_walk_per_relaunch_round(self, name, n, monkeypatch):
        # Both families and, on P2, the boundary fans share one lockstep
        # walk; each relaunch round walks only a batch of the launches still
        # short, and the paths are assembled once, after the last round.
        traj = run(desk_scenario(name, n=n, T=1.0))[0]
        walks, assembled = [], []
        walk, assemble = chars._walk, chars._assemble

        def counted_walk(history, launches):
            walked = walk(history, launches)
            walks.append((launches, walked[1].sum(axis=0)))
            return walked

        def counted_assemble(history, launches, walked):
            paths = assemble(history, launches, walked)
            assembled.append(paths)
            return paths

        monkeypatch.setattr(chars, "_walk", counted_walk)
        monkeypatch.setattr(chars, "_assemble", counted_assemble)
        result = characteristic_pass(traj)
        fans = 2 if name == "p2_desk" else 1
        assert walks[0][0][2].tolist() == [1] * fans * FAN + [2] * fans * FAN
        for (_, before), (batch, _) in zip(walks, walks[1:]):
            assert 0 < batch[0].size <= (before < chars.MIN_SAMPLES).sum()
        if name != "p1_desk":
            assert len(walks) > 1  # some launches are moved
        assert len(assembled) == 1
        paths = assembled[0]
        assert len(paths) == 2 * fans * FAN
        assert sum(p.n for p in paths) == sum(
            stats["samples"] for stats in result["families"].values())


class TestMajorantTable:
    """s(x) places the invariant rectangle at x; only the region checks read
    it, so the scenario builds its quadrature table at the first of them."""

    @staticmethod
    def _builds(monkeypatch, allowed: bool) -> list:
        """The x_hi of every quadrature table built from now on; with
        ``allowed`` false, building one fails the test."""
        built, build = [], NozzleProfile.quadrature_table

        def counted(profile, x_hi):
            assert allowed, "a quadrature table was built"
            built.append(x_hi)
            return build(profile, x_hi)

        monkeypatch.setattr(NozzleProfile, "quadrature_table", counted)
        return built

    def test_only_simulate_builds_the_table_once(self, tmp_path, monkeypatch):
        cfg = small_config("p3_desk", tmp_path, {"n = 2000": "n = 250"})
        sim = tmp_path / "sim"
        built = self._builds(monkeypatch, True)
        assert main(["--quiet", "--out", str(sim), "simulate", str(cfg)]) == EXIT_OK
        assert built == [load_config(cfg).to_scenario().grid.x_max]
        self._builds(monkeypatch, False)
        stored = str(sim / "trajectory.npz")
        assert main(["--quiet", "--out", str(tmp_path / "ver"), "verify", stored]) == EXIT_OK
        assert main(["--quiet", "--out", str(tmp_path / "tr"), "trace", stored,
                     "--family", "1", "--x0", "0.5"]) == EXIT_OK
        # A rung of the refinement ladder: run, launch fans, residual.
        traj, _ = run(desk_scenario("p3_desk", n=300))
        launch_fan(traj, (1, 2))
        conservative_residual(traj)

    def test_call_order_does_not_matter(self):
        fresh = desk_scenario("p3_desk", n=250, T=1.0)
        traj, _ = run(fresh)
        cells = fresh.grid.cells()
        want_s = fresh.majorant_integral(cells)
        want = monitor_report(traj)
        used = desk_scenario("p3_desk", n=250, T=1.0)
        # Tables for a small x and for one past x_max, read first.
        for x_hi in (0.5, 3.0 * used.grid.x_max):
            used.profile.cum_abar(np.linspace(0.0, x_hi, 7),
                                  used.profile.quadrature_table(x_hi))
        stored = {name: getattr(traj, name) for name in solver._STORED}
        got = monitor_report(Trajectory.from_npz(used, stored))
        assert used.majorant_integral(cells).tobytes() == want_s.tobytes()
        for face in _FACES:
            assert got.min_margins[face].tobytes() == want.min_margins[face].tobytes()
        assert got.to_dict() == want.to_dict()


def _per_row_writes(fh, row_format, cols):
    """The CSV rows as they were written before one ``%`` covered a whole
    table: one ``%`` and one write per row.  Kept as the reference."""
    for row in np.column_stack(cols).tolist():
        fh.write(row_format % tuple(row))


class TestCsvWriters:
    """One ``%`` over the joined row format writes the bytes that one ``%``
    per row wrote."""

    @staticmethod
    def _assert_same_bytes(write, path):
        write(path / "joined.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_write_rows", _per_row_writes)
            write(path / "per_row.csv")
        joined, per_row = ((path / name).read_bytes() for name in ("joined.csv", "per_row.csv"))
        assert joined == per_row and len(joined.splitlines()) > 2

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p3_desk", 250)])
    def test_fields_csv(self, tmp_path, name, n):
        traj, _ = run(desk_scenario(name, n=n))
        self._assert_same_bytes(lambda out: write_fields_csv(traj, out), tmp_path)

    def test_path_csv(self, tmp_path):
        traj, _ = run(desk_scenario("p1_desk", n=300))
        scn = traj.scenario
        path = chars.trace(traj, 0.6, 2)
        assert path.n > 2
        self._assert_same_bytes(lambda out: write_path_csv(path, scn.delta1, scn.profile.M,
                                                           scn.profile.alpha, out), tmp_path)


_MONITOR_SERIES = ("min_margin_z_lo", "min_margin_z_hi", "min_margin_w_lo",
                   "min_margin_w_hi", "min_gap")


class TestRunScenario:
    def test_small_p1_produces_artifacts(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path, SMALL)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "certificates.txt", "fields.csv", "monitor_report.json", "report.json",
            "trajectory.npz"]
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

    @pytest.mark.parametrize("n,T,code", [
        pytest.param(100, "5.0", EXIT_BLOWUP, id="100-4"),
        pytest.param(120, "1.25", EXIT_MONITOR, id="120-3"),
    ])
    def test_vacuum_state_exits_with_its_reports(self, n, T, code, tmp_path):
        # n = 100: the run blows up after a vacuum state, and the blow-up
        # sets the exit; n = 120, T = 1.25: the run reaches a vacuum at step
        # 11 of 12 and no blow-up, and the monitors end it with no post-pass.
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": f"n = {n}", "T = 5.0": f"T = {T}",
                                                 "cfl = 0.9": "cfl = 2.0"})
        out = tmp_path / "out"
        assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == code
        report = json.loads((out / "report.json").read_text())
        record = json.loads((out / "monitor_report.json").read_text())
        assert report["exit_code"] == code
        assert ("blow_up" in report) == (code == EXIT_BLOWUP)
        assert (out / "trajectory.npz").exists() == (code == EXIT_BLOWUP)
        assert record["flags"]["vacuum"] is False
        assert report["monitors"] == {key: val for key, val in record.items()
                                      if key != "series"}

    @pytest.mark.parametrize("n", [80, 100, 110])
    def test_wall_turning_sonic_exits_4_with_the_partial_run(self, n, tmp_path, capsys):
        # At cfl = 5 the wall state turns sonic some steps into the run (at
        # n = 60 and 120 to 200 the state blows up first).
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": f"n = {n}",
                                                 "cfl = 0.9": "cfl = 5.0"})
        out = tmp_path / "out"
        assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == EXIT_BLOWUP
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_BLOWUP
        assert report["blow_up"]["message"].startswith("wall boundary needs")
        assert 0.0 < report["blow_up"]["t"] < 5.0
        back = load_trajectory(out / "trajectory.npz")
        assert back.blown_up and back.times[-1] < report["blow_up"]["t"]
        record = json.loads((out / "monitor_report.json").read_text())
        assert record["steps"] <= len(back.times) - 1

    @pytest.mark.parametrize("n, cfl", [(100, "2.0"), (100, "5.0")],
                             ids=["vacuum-then-blow-up", "sonic-wall"])
    def test_verify_of_a_blown_up_run_exits_4(self, n, cfl, tmp_path, capsys):
        # Once `verify` ran the post-pass on these partial runs and ended in
        # a math domain error traceback (exit 1).
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": f"n = {n}",
                                                 "cfl = 0.9": f"cfl = {cfl}"})
        sim, ver = tmp_path / "sim", tmp_path / "ver"
        assert main(["--quiet", "--out", str(sim), "simulate", str(cfg)]) == EXIT_BLOWUP
        capsys.readouterr()
        assert main(["--out", str(ver), "verify", str(sim / "trajectory.npz")]) == EXIT_BLOWUP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("blow-up")
        payload = json.loads((ver / "verify_report.json").read_text())
        back = load_trajectory(sim / "trajectory.npz")
        report = json.loads((sim / "report.json").read_text())
        # The failure's time, cell and message travel in the file.
        assert payload == {"blow_up": dict(report["blow_up"],
                                           t_last_stored=float(back.times[-1]),
                                           steps=len(back.times) - 1), "ok": False}
        assert payload["blow_up"]["t_last_stored"] < report["blow_up"]["t"]
        if cfl == "2.0":
            assert report["blow_up"]["t"] == pytest.approx(2.4)
            assert report["blow_up"]["cell"] == 17
        else:
            assert report["blow_up"]["message"].startswith("wall boundary needs")

    def test_blown_up_file_of_an_older_writer_verifies(self, tmp_path):
        # Files written before the failure's details were stored hold only
        # the flag; `verify` still exits 4 with what the file has.
        cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 100",
                                                 "cfl = 0.9": "cfl = 2.0"})
        with pytest.raises(BlowUpError) as err:
            run(load_config(cfg).to_scenario())
        partial = err.value.trajectory
        _savez_compressed(partial, tmp_path / "old.npz")
        assert main(["--quiet", "--out", str(tmp_path / "ver"), "verify",
                     str(tmp_path / "old.npz")]) == EXIT_BLOWUP
        payload = json.loads((tmp_path / "ver" / "verify_report.json").read_text())
        assert payload == {"blow_up": {"t_last_stored": float(partial.times[-1]),
                                       "steps": len(partial.times) - 1}, "ok": False}

    @pytest.mark.parametrize("name, subs, code", [
        ("p1_desk", {"n = 2000": "n = 300"}, EXIT_OK),
        ("p3_desk", {"n = 2000": "n = 250"}, EXIT_OK),
        ("p1_desk", {"n = 2000": "n = 300", "cfl = 0.9": "cfl = 1.44"}, EXIT_BLOWUP),
    ], ids=["p1", "p3", "p1-blow-up"])
    def test_monitors_are_a_function_of_the_stored_file(self, name, subs, code, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(small_config(name, tmp_path, subs), out) == code
        record = json.loads((out / "monitor_report.json").read_text())
        assert monitor_report(load_trajectory(out / "trajectory.npz")).to_dict() == record

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
        assert "series" not in summary
        assert record == dict(summary, series=record["series"])
        # The four envelope faces and the gap, one entry per step; the
        # times are the run's, and the gap face's margin is the gap.
        assert sorted(record["series"]) == sorted(_MONITOR_SERIES)
        assert {len(v) for v in record["series"].values()} == {summary["steps"] + 1}

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

    def test_rung_of_another_n_reloads_as_itself(self, tmp_path):
        # A ladder rung parsed from the config text with its own n line.
        scn = parse_config_text(desk_config_text("p3_desk", {"n = 2000": "n = 250"})
                                ).to_scenario()
        traj, _ = run(scn)
        traj.save(tmp_path / "rung.npz")
        back = load_trajectory(tmp_path / "rung.npz")
        assert back.grid.n == 250
        for name in solver._STORED:
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes(), name
        got, want = monitor_report(back), monitor_report(traj)
        for face in _FACES:
            assert got.min_margins[face].tobytes() == want.min_margins[face].tobytes()
        assert got.to_dict() == want.to_dict()

    def test_run_of_a_replaced_scenario_is_refused(self, tmp_path, capsys):
        # dataclasses.replace keeps the config text, whose cfl gives half
        # the steps of the run that was saved.
        scn = load_config(small_config("p3_desk", tmp_path, {"n = 2000": "n = 100"})
                          ).to_scenario()
        traj, _ = run(dataclasses.replace(scn, cfl=0.45))
        assert len(traj.times) > scn.steps + 1
        traj.save(tmp_path / "half.npz")
        with pytest.raises(TrajectoryFileError, match="not those of its config's run"):
            load_trajectory(tmp_path / "half.npz")
        assert main(["--out", str(tmp_path / "v"), "verify",
                     str(tmp_path / "half.npz")]) == EXIT_DATAERR
        err = capsys.readouterr().err
        assert "half.npz" in err and "Traceback" not in err
        assert not (tmp_path / "v").exists()

    def test_csv_stride(self, tmp_path):
        cfg = small_config("p1_desk", tmp_path,
                           dict(SMALL, **{"csv_stride = 50": "csv_stride = 7"}))
        scn = load_config(cfg).to_scenario()
        traj, _ = run(scn)
        write_fields_csv(traj, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert len(lines) - 1 == len(range(0, len(traj.times), 7)) * scn.window_cells


def _savez_compressed(traj, path, z=None, w=None):
    """Save ``traj`` the way files were written before the level-1 writer,
    with the ``dts`` and edge trace entries they held, optionally with other
    snapshots ``z``, ``w``."""
    meta = {"config_text": traj.scenario.config_text, "blown_up": traj.blown_up}
    z_edge, w_edge = older_edges(traj)
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), times=traj.times,
                        dts=older_steps(traj), z=traj.z if z is None else z,
                        w=traj.w if w is None else w, z_edge=z_edge, w_edge=w_edge)


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
                ("meta", *solver._STORED))
            assert all(info.compress_type == zipfile.ZIP_DEFLATED
                       for info in npz.infolist())
        with np.load(tmp / "new.npz", allow_pickle=False) as data:
            for name in solver._STORED:
                stored = getattr(traj, name)
                assert data[name].dtype == stored.dtype, name
                assert data[name].tobytes() == stored.tobytes(), name
            meta = json.loads(str(data["meta"]))
        assert meta == {"config_text": traj.scenario.config_text, "blown_up": False}

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
        for name in solver._STORED:
            assert np.array_equal(getattr(back, name), getattr(partial, name)), name


def _recorded(tmp_path_factory, name, n):
    """A run of the desk config ``name`` at ``n`` cells, the full-width z
    and w of its states, and a file of them as written before snapshots
    were trimmed: with every column, which a load refuses."""
    tmp = tmp_path_factory.mktemp(name)
    scn = load_config(small_config(name, tmp, {"n = 2000": f"n = {n}"})).to_scenario()
    with _recording_steps(scn) as (z, w):
        traj, _ = run(scn)
    z, w = np.array(z), np.array(w)
    _savez_compressed(traj, tmp / "full.npz", z=z, w=w)
    return traj, (z, w), tmp / "full.npz"


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
        traj, (z, w), _ = p3_recorded
        scn = traj.scenario
        window_cells = int((scn.runtime_arrays["x"] <= scn.x_interest + 1e-12).sum())
        assert scn.trusted_cells == scn.window_cells + 2 == window_cells + 2 < scn.grid.n
        assert traj.z.shape == (len(z), scn.trusted_cells)
        assert np.array_equal(traj.z, z[:, :scn.trusted_cells])
        assert np.array_equal(traj.w, w[:, :scn.trusted_cells])

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
        cells = int((scn.runtime_arrays["x"] <= top + 1e-9).sum())
        assert scn.trusted_cells == cells + 2 < scn.grid.n
        assert traj.z.shape[1] == traj.w.shape[1] == scn.trusted_cells
        for family in (1, 2):
            paths = launch_fan(traj, family, boundary=scn.problem == "P2")
            for path in paths:
                assert np.all(path.x <= scn.reach(path.t)), (family, path.x0, path.t0)

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk"])
    def test_columns_past_the_rule_are_never_read(self, tmp_path_factory, name):
        # The run's full-width states, NaN past the trusted columns, checked
        # in memory: no file holds columns past them.
        traj, (z, w), _ = _recorded(tmp_path_factory, name, 120)
        m = traj.scenario.trusted_cells
        assert m < z.shape[1]
        z[:, m:] = np.nan
        w[:, m:] = np.nan
        rows = {name: getattr(traj, name) for name in solver._STORED}
        _same_checks(Trajectory(traj.scenario, dict(rows, z=z, w=w)), traj)

    def test_full_width_file_is_refused(self, p3_recorded, capsys):
        traj, _, full = p3_recorded
        snaps, scn = len(traj.times), traj.scenario
        refusal = f"z has shape {(snaps, scn.grid.n)}, need {(snaps, scn.trusted_cells)}"
        with pytest.raises(TrajectoryFileError, match=re.escape(refusal)):
            load_trajectory(full)
        assert main(["--out", str(full.parent / "v"), "verify", str(full)]) == EXIT_DATAERR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "full.npz" in err and "Traceback" not in err
        assert not (full.parent / "v").exists()

    def test_each_snapshot_is_held_once(self, p3_recorded):
        traj, _, full = p3_recorded
        traj.save(full.with_name("run.npz"))
        back = load_trajectory(full.with_name("run.npz"))
        for held in (traj, back):
            # No container of further snapshots beside the stacks.
            assert set(vars(held)) == {"scenario", "grid", "blow_up", *solver._STORED}
            assert held.z.shape == held.w.shape == (len(held.times), held.scenario.trusted_cells)


def _junk_past_the_widths(traj, seed):
    """The z and w of ``traj`` with random finite values in every column
    past each row's stored width (``Scenario.stored_widths``)."""
    widths = traj.scenario.stored_widths[:len(traj.times)]
    past = np.arange(traj.z.shape[1]) >= widths[:, None]
    rng = np.random.default_rng(seed)
    junk = {}
    for name in ("z", "w"):
        junk[name] = getattr(traj, name).copy()
        junk[name][past] = rng.uniform(-10.0, 10.0, int(past.sum()))
    return junk


@pytest.fixture(scope="module", params=[
    ("p1_desk", {"n = 2000": "n = 300"}, EXIT_OK),
    ("p2_desk", {"n = 2000": "n = 150"}, EXIT_OK),
    ("p1_desk", {"n = 2000": "n = 300", "cfl = 0.9": "cfl = 0.99"}, EXIT_OK),
    ("p1_desk", {"n = 2000": "n = 300", "cfl = 0.9": "cfl = 1.44"}, EXIT_BLOWUP),
], ids=["p1", "p2", "p1-cfl-0.99", "p1-blow-up"])
def junk_file(request, tmp_path_factory):
    """A ``simulate`` of a desk config, its exit code, the run it stored,
    and the same run with junk past each row's stored width, saved and
    loaded again."""
    name, subs, code = request.param
    tmp = tmp_path_factory.mktemp(f"junk_{name}")
    assert run_scenario(small_config(name, tmp, subs), tmp / "clean") == code
    clean = load_trajectory(tmp / "clean" / "trajectory.npz")
    rows = {key: getattr(clean, key) for key in solver._STORED}
    junk = dict(rows, **_junk_past_the_widths(clean, len(clean.times)))
    Trajectory(clean.scenario, junk, clean.blow_up).save(tmp / "junk.npz")
    return clean, load_trajectory(tmp / "junk.npz"), tmp, code


class TestFillPastTheStoredWidths:
    """A stored row holds the run's values up to its stored width and its
    last stored value past it; nothing reads a column past the width, so
    what a file holds there changes no output (ROADMAP item 1's negative
    control)."""

    def test_junk_changes_a_whole_row_gradient_maximum(self, junk_file):
        # The paired control: the junk is there, and a maximum over every
        # stored column, as ``lip`` took it before, moves with it.
        clean, junk, _, _ = junk_file
        scn = clean.scenario
        assert (scn.stored_widths[:len(clean.times)] < scn.trusted_cells).any()
        for name in ("z", "w"):
            whole = [float(np.abs(np.gradient(getattr(traj, name), scn.grid.dx, axis=1)).max())
                     for traj in (clean, junk)]
            assert whole[1] > 100.0 * whole[0], name

    def test_verify_monitors_and_fields_do_not_move(self, junk_file):
        clean, junk, tmp, code = junk_file
        assert _verify_report(tmp / "junk.npz", tmp / "verify_junk", code) == \
            _verify_report(tmp / "clean" / "trajectory.npz", tmp / "verify_clean", code)
        for label, traj in (("clean_out", clean), ("junk_out", junk)):
            (tmp / label).mkdir(exist_ok=True)
            harness._write_monitors(monitor_report(traj), tmp / label)
            write_fields_csv(traj, tmp / label / "fields.csv")
        # ``simulate`` writes fields.csv only for a run that reached T.
        written = ("monitor_report.json", "fields.csv")[:2 if code == EXIT_OK else 1]
        for artifact in ("monitor_report.json", "fields.csv"):
            assert (tmp / "junk_out" / artifact).read_bytes() == \
                (tmp / "clean_out" / artifact).read_bytes(), artifact
            if artifact in written:
                assert (tmp / "clean_out" / artifact).read_bytes() == \
                    (tmp / "clean" / artifact).read_bytes(), artifact

    def test_traces_from_the_reach_do_not_move(self, junk_file):
        clean, junk, _, _ = junk_file
        _assert_traces_from_the_reach_match(clean, junk, (1, 2))

    @pytest.mark.parametrize("name, n, cfl", [("p1_desk", 300, 0.9), ("p2_desk", 150, 0.9),
                                              ("p1_desk", 300, 0.99), ("p1_desk", 300, 1.44)])
    def test_paths_at_the_top_speed_read_nothing_past_the_widths(self, name, n, cfl):
        # A run's own speeds stay well below ``lambda_abs_max``, so its
        # paths fall short of what the widths allow.  Here each row holds,
        # up to its width, one state whose lambda2 is ``lambda_abs_max``:
        # a family-2 path launched at reach(t0) goes as far as the region
        # allows.  After the top of the reach, a launch just past t_j starts
        # from row j + 1 at about reach(t_j), and its last stage reads row
        # j + 2 up to ``lambda_abs_max*dt`` further out.  Past the widths
        # the junk is a state whose lambda2 is -100*``lambda_abs_max``,
        # which would pull such a path back inside the reach if a stage read
        # it.
        scn = desk_scenario(name, n=n, cfl=cfl)
        lam = scn.speed_bounds.lambda_abs_max
        gap = 0.2 * lam
        past = np.arange(scn.trusted_cells) >= scn.stored_widths[:, None]

        def rows(outer):
            # lambda2 = v + theta*gap/2: lam up to each width, ``outer`` past it.
            v = np.where(past, outer, lam) - 0.5 * scn.law.theta * gap
            return {"times": scn.step_times, "z": v - 0.5 * gap, "w": v + 0.5 * gap}

        clean, junk = Trajectory(scn, rows(lam)), Trajectory(scn, rows(-100.0 * lam))
        assert np.allclose(clean.block(("lam",))[0][len(scn.step_times):], lam, rtol=1e-12)
        _assert_traces_from_the_reach_match(clean, junk, (2,))

    @pytest.mark.parametrize("name, subs, code", [
        ("p1_desk", {"n = 2000": "n = 300"}, EXIT_OK),
        ("p2_desk", {"n = 2000": "n = 150"}, EXIT_OK),
        ("p1_desk", {"n = 2000": "n = 300", "cfl = 0.9": "cfl = 1.44"}, EXIT_BLOWUP),
    ], ids=["p1", "p2", "p1-blow-up"])
    def test_file_of_unfilled_rows_verifies_the_same(self, name, subs, code, tmp_path):
        # Files written before the fill hold the run's values past each
        # row's stored width.  They load as they are and verify the same.
        scn = load_config(small_config(name, tmp_path, subs)).to_scenario()
        with _recording_steps(scn) as (z, w):
            try:
                traj, _ = run(scn)
            except RunAbortedError as err:
                traj = err.trajectory
        snaps, m = len(traj.times), scn.trusted_cells
        unfilled = {"times": traj.times, "z": np.array(z)[:snaps, :m],
                    "w": np.array(w)[:snaps, :m]}
        assert traj.blown_up == (code == EXIT_BLOWUP)
        assert not np.array_equal(traj.z, unfilled["z"])
        traj.save(tmp_path / "filled.npz")
        Trajectory(scn, unfilled, traj.blow_up).save(tmp_path / "unfilled.npz")
        back = load_trajectory(tmp_path / "unfilled.npz")
        for key in solver._STORED:
            assert getattr(back, key).tobytes() == unfilled[key].tobytes(), key
        assert _verify_report(tmp_path / "unfilled.npz", tmp_path / "old", code) == \
            _verify_report(tmp_path / "filled.npz", tmp_path / "new", code)


def _assert_traces_from_the_reach_match(clean, junk, families):
    """Paths launched at reach(t0), the farthest point the trust rule
    allows, at every stored time of ``clean``, every mid-step time and just
    past every stored time (where a launch starts from the next row at
    about the reach of the row before it), are bitwise the same on
    ``junk``, with the same exits.  A fan's paths are those of ``trace``
    one launch at a time."""
    scn, times = clean.scenario, clean.times
    size = times[1:] - times[:-1]
    t0 = np.concatenate((times, times[:-1] + 0.5 * size, times[:-1] + 1e-6 * size))
    x0 = scn.reach(t0)
    for family in families:
        paths = [chars.trace_fan(traj, x0, family, t0) for traj in (clean, junk)]
        assert len(paths[0]) == len(paths[1]) == t0.size
        for got, want in zip(paths[1], paths[0]):
            assert got.exit_reason == want.exit_reason
            for key in chars._SAMPLED:
                assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


def _verify_report(npz, out, code=EXIT_OK) -> bytes:
    """The ``verify_report.json`` that ``verify`` of ``npz`` writes into
    ``out``; the command must exit with ``code``."""
    assert main(["--quiet", "--out", str(out), "verify", str(npz)]) == code
    return (out / "verify_report.json").read_bytes()

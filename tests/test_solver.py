import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from conftest import (constant_profile, desk_scenario, field_dt, region_l,
                      region_m, uniform_scenario)
from nozzleflow.errors import BlowUpError, DomainError, SonicBoundaryError
from nozzleflow import solver
from nozzleflow.model import GasLaw, speeds_zw
from nozzleflow.region import RegionSpec, zero_profile
from nozzleflow.solver import (Field, Grid, Scenario, _upwind_gradient,
                               boundary_update, run, step)


def uniform_field(z_val, w_val, n=100, dx=0.01, x_interest=None):
    grid = Grid(dx, n, x_interest if x_interest is not None else n * dx, n * dx)
    return Field(np.full(n, float(z_val)), np.full(n, float(w_val)), 0.0, grid)


class TestCflStep:
    def test_rest_state(self, law53):
        fld = uniform_field(-3.0, 3.0)
        assert field_dt(fld, law53, 0.9) == pytest.approx(0.009, rel=1e-14)

    def test_supersonic(self, law53):
        fld = uniform_field(1.0, 2.0)
        assert field_dt(fld, law53, 0.9) == pytest.approx(0.0054, rel=1e-12)

    def test_final_step_clipped(self, law53):
        fld = uniform_field(-3.0, 3.0)
        fld.t = 0.99999
        assert field_dt(fld, law53, 0.9, t_end=1.0) == pytest.approx(1e-5, rel=1e-9)

    def test_uniform_vacuum_rejected(self, law53):
        fld = uniform_field(0.0, 0.0)
        with pytest.raises(DomainError):
            field_dt(fld, law53, 0.9)


class TestConstantPreservation:
    @pytest.mark.parametrize("order", [1, 2])
    def test_leftward_box(self, law53, order):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, order=order,
                              n=64, T=100.0)
        fld = scn.initial_field()
        for _ in range(1000):
            fld = step(fld, field_dt(fld, law53, 0.9), scn)
        assert float(np.abs(fld.z + 3.6).max()) <= 1e-11
        assert float(np.abs(fld.w + 2.6).max()) <= 1e-11

    @pytest.mark.parametrize("order", [1, 2])
    def test_wall_box(self, law53, order):
        scn = uniform_scenario("P1", -3.0, 3.0, region_m(), law53, order=order,
                              n=64, T=100.0)
        fld = scn.initial_field()
        for _ in range(1000):
            fld = step(fld, field_dt(fld, law53, 0.9), scn)
        assert float(np.abs(fld.z + 3.0).max()) <= 1e-11
        assert float(np.abs(fld.w - 3.0).max()) <= 1e-11


def _row_by_row_step(fld, dt, scn):
    """The step as it was before the two-row kernel: z and w advanced as two
    separate arrays.  Kept as the reference the kernel must match bitwise."""
    arrays = scn.runtime_arrays()

    def stage_rhs(z, w, t):
        gl = boundary_update(Field(z, w, t, scn.grid), t, scn).gl
        z_ext = np.concatenate([gl[0], z, arrays["gr"][0]])
        w_ext = np.concatenate([gl[1], w, arrays["gr"][1]])
        lam1e, lam2e = speeds_zw(z_ext, w_ext, scn.law)
        z_x = _upwind_gradient(z_ext, lam1e, scn.grid.dx, scn.order)
        w_x = _upwind_gradient(w_ext, lam2e, scn.grid.dx, scn.order)
        sz, sw = solver.source_pair(w - z, w + z, arrays["coef"])
        return -lam1e[2:-2] * z_x + sz, -lam2e[2:-2] * w_x + sw

    z, w, t = fld.z, fld.w, fld.t
    f1z, f1w = stage_rhs(z, w, t)
    if scn.order == 1:
        return Field(z + dt * f1z, w + dt * f1w, t + dt, fld.grid)
    f2z, f2w = stage_rhs(z + dt * f1z, w + dt * f1w, t + dt)
    return Field(z + 0.5 * dt * (f1z + f2z), w + 0.5 * dt * (f1w + f2w), t + dt, fld.grid)


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _masked_slope(a, b):
    """The van Leer slope by its formula: 2ab over a + b, divided only where
    ab > 0, into zeros.  Kept as the reference that ``solver._limited_slope``
    and any rewrite of it (an unmasked divide, say) must match bitwise."""
    prod = a * b
    return np.divide(2.0 * prod, a + b, out=np.zeros(np.shape(a)), where=prod > 0.0)


class TestLimitedSlope:
    #: a = -b, a = b = 0, +-0.0, NaN and +-inf in every pairing.
    SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-3, math.inf, -math.inf, math.nan]

    @staticmethod
    def _pairs(values):
        a, b = np.meshgrid(np.array(values), np.array(values))
        return a.ravel(), b.ravel()

    @staticmethod
    def _work(k):
        return types.SimpleNamespace(prod=np.empty(k), den=np.empty(k),
                                     pos=np.empty(k, dtype=bool), slope=np.empty(k))

    def test_matches_the_masked_divide(self):
        a, b = self._pairs(self.SPECIAL)
        rng = np.random.default_rng(3)
        # Where 2ab overflows, and subnormal products: a folded x2 and x0.5
        # would differ there.
        a = np.concatenate([a, rng.standard_normal(500), [1e154, 1e154],
                            rng.uniform(1e-310, 4e-310, 200)])
        b = np.concatenate([b, rng.standard_normal(500), [1e154, -1e154],
                            rng.uniform(1.0, 3.0, 200)])
        with np.errstate(all="ignore"):
            want = _masked_slope(a, b)
            got = solver._limited_slope(a, b)
            got_work = solver._limited_slope(a, b, self._work(a.size))
            got_rows = solver._limited_slope(a[:-2].reshape(2, -1), b[:-2].reshape(2, -1))
        assert _bitwise(got, want)
        assert _bitwise(got_work, want)
        assert _bitwise(got_rows, want[:-2].reshape(2, -1))

    def test_no_warning_where_ab_is_not_positive(self):
        # a = -b (x/0) and a = b = 0 (0/0, flat data) must not warn.  (An
        # infinite slope warns in the product or the sum.)
        a, b = self._pairs([v for v in self.SPECIAL if not math.isinf(v)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solver._limited_slope(a, b)
            solver._limited_slope(a, b, self._work(a.size))


class TestTwoRowKernel:
    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_row_by_row_steps(self, name, order, monkeypatch):
        # A pad as wide as the grid keeps every cell active, as the
        # reference steps are.
        monkeypatch.setattr(solver, "ACTIVE_PAD_SIGMAS", 10 ** 6)
        scn = desk_scenario(name, n=100, T=0.3, order=order)
        traj, final = run(scn)
        assert np.all(scn.active_cells(traj.times[:-1]) == scn.grid.n)
        m = scn.trusted_cells
        fld = scn.initial_field()
        for k, dt in enumerate(traj.dts[1:], start=1):
            fld.t = traj.times[k - 1]  # the run's step times, as P2 reads them
            fld = _row_by_row_step(fld, dt, scn)
            assert _bitwise(fld.z[:m], traj.z[k]), k
            assert _bitwise(fld.w[:m], traj.w[k]), k
        assert _bitwise(fld.z, final.z) and _bitwise(fld.w, final.w)
        assert final.t == traj.times[-1] == scn.T
        direct = step(scn.initial_field(), traj.dts[1], scn)
        assert _bitwise(direct.z[:m], traj.z[1]) and _bitwise(direct.w[:m], traj.w[1])

    @pytest.mark.parametrize("z_bump, w_bump, first_row", [(50, 37, "w"), (20, 37, "z")])
    def test_blow_up_cell_is_the_first_bad_cell_of_either_row(self, law53, z_bump,
                                                              w_bump, first_row,
                                                              monkeypatch):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, n=64, T=1.0)
        fld = scn.initial_field()
        fld.z[z_bump], fld.w[w_bump] = -4.5, -4.5
        free = step(fld, 0.002, scn)
        limit = 3.7
        bad = (np.abs(free.z) > limit) | (np.abs(free.w) > limit)
        first = int(np.nonzero(bad)[0][0])
        assert abs(getattr(free, first_row)[first]) > limit
        monkeypatch.setattr(solver, "BLOW_LIMIT", limit)
        with pytest.raises(BlowUpError) as err:
            step(fld, 0.002, scn)
        assert err.value.cell == first


class TestSignResolvedStage:
    """A stage whose speeds all have one sign skips the face-mean speeds and
    the per-face choice; any other stage takes ``_upwind_gradient``."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_rightward_cell_takes_the_general_path(self, order, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return _upwind_gradient(*args)

        monkeypatch.setattr(solver, "_upwind_gradient", counted)
        scn = desk_scenario("p3_desk", n=200, T=0.3, order=order)
        fld = scn.initial_field()
        fld.z[30], fld.w[30] = -1.2, 2.0
        lam1, lam2 = speeds_zw(fld.z, fld.w, scn.law)
        assert lam1.max() < 0.0 < lam2[30] and int((lam2 > 0.0).sum()) == 1
        dt = field_dt(fld, scn.law, scn.cfl)
        new = step(fld, dt, scn)
        ref = _row_by_row_step(fld, dt, scn)
        assert _bitwise(new.z, ref.z) and _bitwise(new.w, ref.w)
        assert len(calls) == order

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    def test_run_takes_the_certified_step(self, name, monkeypatch):
        monkeypatch.setattr(solver, "ACTIVE_PAD_SIGMAS", 10 ** 6)
        scn = desk_scenario(name, n=100, T=0.3)
        traj, _ = run(scn)
        K, lam = scn.steps, scn.speed_bounds.lambda_abs_max
        assert K == math.ceil(scn.T * lam / (scn.cfl * scn.grid.dx))
        assert lam * scn.T / K <= scn.cfl * scn.grid.dx
        assert len(traj.dts) == K + 1 and np.all(traj.dts[1:] == scn.T / K)
        assert np.array_equal(traj.times, np.linspace(0.0, scn.T, K + 1))
        assert traj.times[-1] == scn.T
        fld = scn.initial_field()
        for k in range(1, K + 1):
            fld = _row_by_row_step(fld, scn.T / K, scn)
            fld.t = traj.times[k]
            assert _bitwise(fld.z[:scn.trusted_cells], traj.z[k]), k
            assert _bitwise(fld.w[:scn.trusted_cells], traj.w[k]), k

    @pytest.mark.parametrize("name,general", [("p1_desk", True), ("p2_desk", False),
                                              ("p3_desk", False)])
    def test_which_problems_reach_the_general_gradient(self, name, general,
                                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("general gradient reached")

        monkeypatch.setattr(solver, "_upwind_gradient", refuse)
        scn = desk_scenario(name, n=100, T=0.05)
        if general:
            with pytest.raises(AssertionError, match="general gradient reached"):
                run(scn)
        else:
            traj, final = run(scn)
            assert len(traj.times) > 3 and final.t == scn.T


class TestActiveCells:
    """A step evolves only the cells the stored columns can depend on, plus
    a pad against the scheme's numerical diffusion."""

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    @pytest.mark.parametrize("n", [100, 2000])
    def test_active_cells_cover_the_stored_columns(self, name, n):
        scn = desk_scenario(name, n=n)
        active = scn.active_cells(scn.step_times[:-1])
        assert active.shape == (scn.steps,)
        assert np.all(active >= scn.trusted_cells + 2) and np.all(active <= n)
        assert np.all(np.diff(active) <= 0)

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    def test_truncation_leak_is_round_off(self, name, n, monkeypatch):
        scn = desk_scenario(name, n=n)
        assert scn.active_cells(scn.step_times[:-1])[-1] < n  # it truncates
        traj, _ = run(scn)
        monkeypatch.setattr(solver, "ACTIVE_PAD_SIGMAS", 10 ** 6)
        full, _ = run(desk_scenario(name, n=n))
        assert np.array_equal(traj.times, full.times) and np.array_equal(traj.dts, full.dts)
        for key in ("z", "w", "z_edge", "w_edge"):
            a, b = getattr(traj, key), getattr(full, key)
            assert a.shape == b.shape and float(np.abs(a - b).max()) <= 1e-13, key

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    def test_cells_past_the_active_ones_are_never_read(self, name, n, monkeypatch):
        # Negative control: after each step, every cell it left out but the
        # two right ghosts of its active ones becomes NaN.
        traj, _ = run(desk_scenario(name, n=n))
        plain = solver.step

        def garbling(fld, dt, scn, bv=None):
            new = plain(fld, dt, scn, bv)
            new.state[new.z.size + 4:] = np.nan
            return new

        monkeypatch.setattr(solver, "step", garbling)
        garbled, final = run(desk_scenario(name, n=n))
        assert np.isnan(final.z).any()  # the control did plant garbage
        for key in ("times", "dts", "z", "w", "z_edge", "w_edge"):
            assert _bitwise(getattr(traj, key), getattr(garbled, key)), key


class TestSourceUpdate:
    def make_supersonic(self, law53, order=1):
        spec = RegionSpec("r", 0.9, 1.9, 1.1, 2.1, profile=None, I_total=0.0)
        profile = constant_profile(0.1, law53)
        return uniform_scenario("P2", 1.0, 2.0, spec, law53, profile=profile,
                                order=order, n=8, T=1.0)

    def test_forward_euler_source_only(self, law53):
        scn = self.make_supersonic(law53, order=1)
        fld = step(scn.initial_field(), 0.01, scn)
        assert np.allclose(fld.z, 1.00025, rtol=1e-13)
        assert np.allclose(fld.w, 1.99975, rtol=1e-13)

    def test_discrete_antisymmetry(self, law53):
        # uniform outflow run stays gradient-free, so the update is source
        # only and z + w is conserved to the bit
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53,
                               profile=constant_profile(0.1, law53), order=2,
                               n=8, T=1.0)
        fld = scn.initial_field()
        for _ in range(20):
            fld = step(fld, 0.01, scn)
        # cells beyond the reach of the truncation boundary stay uniform, so
        # the update there is source only and z + w is conserved to the bit
        assert float(np.abs(fld.z[:3] + fld.w[:3] + 6.2).max()) < 1e-14
        assert float(np.abs(fld.z[:3] + 3.6).max()) > 0.005  # the source did act


class TestAdvectionAccuracy:
    def frozen_w_scenario(self, law53, n, order):
        spec = region_m()

        def z0(x):
            x = np.asarray(x, dtype=float)
            return -3.0 + 0.25 * np.exp(-16.0 * (x - 2.0) ** 2)

        def w0(x):
            return np.full_like(np.asarray(x, dtype=float), 3.0)

        return Scenario(problem="P1", law=law53, profile=zero_profile(),
                        region=spec, z0=z0, w0=w0, T=0.3, n=n, x_interest=4.0,
                        order=order)

    @pytest.mark.parametrize("order,min_rate", [(1, 0.8), (2, 1.5)])
    def test_self_convergence(self, law53, order, min_rate):
        results = {}
        for n in (200, 400, 800):
            scn = self.frozen_w_scenario(law53, n, order)
            _, final = run(scn)
            results[n] = (scn.grid.cells(), final.z, final.w)
        errs = []
        for coarse, fine in ((200, 400), (400, 800)):
            xc, zc, _ = results[coarse]
            xf, zf, _ = results[fine]
            # integral norm: the limiter clips smooth extrema pointwise
            errs.append(float(np.abs(zc - np.interp(xc, xf, zf)).mean()))
        rate = float(np.log2(errs[0] / errs[1]))
        assert rate >= min_rate
        # the second invariant was spatially constant and must stay put
        assert float(np.abs(results[800][2] - 3.0).max()) < 1e-12

    def test_donor_cell_is_monotone_on_linear_test(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-1.0, 1.0, 64)
        lam = 0.7
        dx, dt = 0.01, 0.9 * 0.01 / 0.7
        lo, hi = u.min(), u.max()
        for _ in range(50):
            u_ext = np.concatenate([u[:1], u[:1], u, u[-1:], u[-1:]])
            lam_ext = np.full(u_ext.size, lam)
            u = u - dt * lam * _upwind_gradient(u_ext, lam_ext, dx, 1)
            assert u.max() <= hi + 1e-14
            assert u.min() >= lo - 1e-14


class TestBoundaries:
    def test_wall_reflection(self, law53):
        scn = desk_scenario("p1_desk", n=200, T=0.5)
        fld = scn.initial_field()
        bv = boundary_update(fld, 0.0, scn)
        assert bv.w_edge == pytest.approx(-bv.z_edge, abs=0.0)
        assert bv.gl[1][1] == pytest.approx(-fld.z[0])
        assert bv.gl[0][1] == pytest.approx(-fld.w[0])

    def test_wall_needs_subsonic_state(self, law53):
        # rightward supersonic state cannot satisfy the wall condition
        scn = uniform_scenario("P1", 1.6, 2.6, region_m(), law53)
        with pytest.raises(SonicBoundaryError):
            boundary_update(scn.initial_field(), 0.0, scn)

    def test_steady_inflow_is_transparent(self, law53):
        spec = RegionSpec("r", 1.55, 2.5, 1.65, 2.66, profile=None, I_total=0.0)
        scn = uniform_scenario("P2", 1.6, 2.6, spec, law53, n=64, T=0.5)
        traj, final = run(scn)
        assert float(np.abs(final.z - 1.6).max()) < 1e-13
        assert float(np.abs(final.w - 2.6).max()) < 1e-13

    def test_outflow_preserves_uniform_state(self, law53):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, n=64, T=0.5)
        traj, final = run(scn)
        assert float(np.abs(final.z + 3.6).max()) < 1e-13
        assert float(np.abs(final.w + 2.6).max()) < 1e-13

    def test_wall_edge_defect_is_zero_all_run(self):
        scn = desk_scenario("p1_desk", n=200, T=0.5)
        traj, _ = run(scn)
        assert float(np.abs(traj.z_edge + traj.w_edge).max()) == 0.0


class TestRun:
    def test_zero_horizon(self, law53):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53, T=0.0)
        traj, final = run(scn)
        assert len(traj.times) == 1
        assert final.t == 0.0

    def test_out_of_region_data_flagged_at_start(self):
        from nozzleflow.harness import monitor_report

        scn = desk_scenario("p1_desk", n=200, T=0.02)
        shifted = dataclasses.replace(
            scn, z0=lambda x, f=scn.z0: f(x) + 0.2)
        report = monitor_report(run(shifted)[0])
        assert not report.containment_ok
        assert report.first_violation["step"] == 0

    def test_unstable_courant_number_blows_up(self):
        scn = desk_scenario("p1_desk", n=100, T=5.0, cfl=2.0)
        with pytest.raises(BlowUpError) as err:
            run(scn)
        assert err.value.trajectory is not None
        assert err.value.cell is not None


class TestScenarioValidation:
    def test_problem_region_pairing(self, law53):
        with pytest.raises(DomainError):
            uniform_scenario("P1", 1.0, 2.0,
                             RegionSpec("r", 1.0, 1.0, 1.0, 1.0, I_total=0.0),
                             law53)

    def test_p2_needs_boundary_data(self, law53):
        spec = RegionSpec("r", 1.55, 2.5, 1.65, 2.66, profile=None, I_total=0.0)
        with pytest.raises(DomainError):
            Scenario(problem="P2", law=law53, profile=zero_profile(),
                     region=spec, z0=lambda x: x * 0 + 1.6,
                     w0=lambda x: x * 0 + 2.6)

    def test_grid_consistency(self):
        with pytest.raises(DomainError):
            Grid(0.01, 100, 0.5, 2.0)
        grid = Grid(0.01, 100, 0.5, 1.0)
        assert grid.cells()[0] == pytest.approx(0.005)

    def test_replace_derives_its_own_grid(self):
        base = desk_scenario("p3_desk")
        assert base.grid.n == 2000
        smaller = dataclasses.replace(base, n=500)
        assert smaller.grid.n == 500
        assert smaller.runtime_arrays()["x"].size == 500
        assert base.grid.n == 2000

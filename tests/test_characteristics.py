import dataclasses

import numpy as np
import pytest

from conftest import desk_scenario, region_m, thinned_run_file, uniform_scenario
from nozzleflow.characteristics import (FAN, WALL_BAND_CELLS, CharPath,
                                        bound_check, launch_fan,
                                        riccati_residual, trace, trace_fan,
                                        wall_band)
from nozzleflow.cli import main
from nozzleflow.errors import DomainError, InvalidStateError, TrajectoryFileError
from nozzleflow.harness import load_trajectory
from nozzleflow.model import speeds_zw
from nozzleflow.region import RegionSpec
from nozzleflow.riccati import coeffs_zw, phi_psi_zw
from nozzleflow.solver import WALL_MARGIN_FRAC, Trajectory, run


@pytest.fixture(scope="module")
def p1_run():
    scn = desk_scenario("p1_desk", n=400, T=1.0)
    return run(scn)[0]


def synthetic_path(t, x, value, lam, A=None, B=None, C=None, family=1):
    n = t.size
    zeros = np.zeros(n)
    return CharPath(family=family, x0=float(x[0]), t0=float(t[0]), t=t, x=x,
                    z=zeros - 1.0, w=zeros + 1.0, lam=lam, zx=zeros, wx=zeros,
                    a=zeros, ax=zeros, value=value, other=zeros,
                    A=A if A is not None else np.full(n, -1.0),
                    B=B if B is not None else zeros,
                    C=C if C is not None else zeros, exit_reason="end")


def _fancy_interpolate(history, x, row, stacks, weight=0.0):
    """``Trajectory.interpolate`` as it was before it gathered through flat
    indices: 2-D fancy indexing of each stack, and every row blended with
    the next one (the last row with itself), also at a weight of 0.  Kept
    as the reference the flat gather must match bitwise."""
    xi = np.asarray(x, dtype=float) / history.grid.dx - 0.5
    i = np.minimum(np.maximum(np.floor(xi), 0), history.scenario.trusted_cells - 2)
    frac = np.minimum(np.maximum(xi - i, 0.0), 1.0)
    i = i.astype(np.intp)
    i1, rest, stay = i + 1, 1.0 - frac, 1.0 - weight
    out = []
    for stack in stacks:
        after = np.minimum(np.asarray(row) + 1, stack.shape[0] - 1)
        lo = rest * stack[row, i] + frac * stack[row, i1]
        hi = rest * stack[after, i] + frac * stack[after, i1]
        out.append(stay * lo + weight * hi)
    return out


class TestInterpolate:
    """The flat-index gather of ``Trajectory.interpolate`` against the 2-D
    fancy-index one, bitwise."""

    @staticmethod
    def _assert_same(history, x, row, stacks, weight=0.0):
        got = history.interpolate(x, row, stacks, weight)
        want = _fancy_interpolate(history, x, row, stacks, weight)
        assert len(got) == len(want) == len(stacks)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_positions_past_the_stored_columns_at_rows_per_point(self, p1_run):
        rng = np.random.default_rng(5)
        edge = p1_run.scenario.trusted_cells * p1_run.grid.dx
        x = np.concatenate([[-0.3, -1e-9, 0.0, 0.5 * p1_run.grid.dx, edge, 2.0 * edge],
                            rng.uniform(-0.1, 1.1 * edge, 60)])
        last = len(p1_run.times) - 1
        rows = np.concatenate([[0, last, last, 0], rng.integers(0, last + 1, x.size - 4)])
        stacks = p1_run.block(("z", "w", "zx", "wx"))
        self._assert_same(p1_run, x, rows, stacks)  # the last row too
        self._assert_same(p1_run, x, np.minimum(rows, last - 1), stacks, 0.37)

    def test_one_time_shared_by_every_point(self, p1_run):
        x = np.linspace(-0.05, 1.2, 41)
        last = len(p1_run.times) - 1
        for row, weight in ((0, 0.0), (0, 0.5), (last // 3, 0.5), (last, 0.0)):
            self._assert_same(p1_run, x, row, p1_run.block(("z", "w")), weight)

    @pytest.mark.parametrize("family", [1, 2])
    def test_lam_block_from_its_first_row(self, p1_run, family):
        rng = np.random.default_rng(family)
        lo, hi = 17, 57
        rows = rng.integers(lo, hi - 1, 40)
        # A family-2 point reads the block's lambda2 rows, below its lambda1 rows.
        in_block = rows - lo + (family - 1) * (hi - lo)
        x = rng.uniform(0.0, 1.0, 40)
        for weight in (0.0, 0.5):
            self._assert_same(p1_run, x, in_block, p1_run.block(("lam",), lo, hi), weight)
            whole, = p1_run.interpolate(x, rows + (family - 1) * len(p1_run.times),
                                        p1_run.block(("lam",)), weight)
            block, = p1_run.interpolate(x, in_block, p1_run.block(("lam",), lo, hi), weight)
            assert whole.tobytes() == block.tobytes()

    def test_positions_with_stored_pairs_are_not_clamped(self, p1_run):
        # Every floor(x/dx - 0.5) in [0, m - 2], the edges of that range too.
        dx, last = p1_run.grid.dx, p1_run.scenario.trusted_cells - 2
        rng = np.random.default_rng(11)
        xi = np.concatenate([[0.0, 1e-12, last, last + 0.999999], rng.uniform(0.0, last + 1.0, 50)])
        x = (xi + 0.5) * dx
        assert np.floor(x / dx - 0.5).min() == 0.0 and np.floor(x / dx - 0.5).max() == last
        rows = rng.integers(0, len(p1_run.times) - 1, x.size)
        stacks = p1_run.block(("z", "w", "zx"))
        self._assert_same(p1_run, x, rows, stacks, 0.25)
        # The caller's promise that no position needs clamping skips the
        # check, and gives the same values.
        for a, b in zip(p1_run.interpolate(x, rows, stacks, 0.25, inside=True),
                        p1_run.interpolate(x, rows, stacks, 0.25)):
            assert a.tobytes() == b.tobytes()

    def test_one_position_past_the_columns_clamps_them_all(self, p1_run):
        dx, m = p1_run.grid.dx, p1_run.scenario.trusted_cells
        x = np.linspace(0.6 * dx, (m - 1.2) * dx, 30)
        row = int(0.4 * (len(p1_run.times) - 1))
        for outside in (0.2 * dx, (m - 0.5) * dx, 3.0 * m * dx, -dx):
            self._assert_same(p1_run, np.append(x, outside), row, p1_run.block(("z", "w")), 0.5)

    @pytest.mark.parametrize("row", [0, 40, -1])
    def test_a_shared_weight_of_zero_reads_one_row(self, p1_run, row):
        # The reference blends the next row in at weight 0; the last row
        # has none, and is read alone.
        k = row % len(p1_run.times)
        k2 = min(k + 1, len(p1_run.times) - 1)
        x = np.linspace(-0.05, 1.1, 37)
        self._assert_same(p1_run, x, k, p1_run.block(("z", "w", "zx", "wx")))
        lam = p1_run.block(("lam",), k, k2 + 1)
        for family in (1, 2):
            # A family's rows of a lam block, by row index or by flat offset.
            rows = (family - 1) * (k2 + 1 - k)
            self._assert_same(p1_run, x, rows, lam)
            by_offset, = p1_run.interpolate(x, 0, lam, 0.0, rows * p1_run.scenario.trusted_cells)
            by_row, = p1_run.interpolate(x, rows, lam)
            assert by_offset.tobytes() == by_row.tobytes()


class TestTrace:
    def test_leftward_uniform_is_straight(self, law53):
        scn = uniform_scenario("P1", -3.0, 3.0, region_m(), law53, n=200, T=0.5)
        traj, _ = run(scn)
        path = trace(traj, 0.8, 1)
        assert np.allclose(path.x, 0.8 - path.t, atol=1e-10)
        assert path.exit_reason in ("end", "left")

    def test_rightward_supersonic_slope(self, law53):
        spec = RegionSpec("r", 0.9, 1.9, 1.1, 2.1, profile=None, I_total=0.0)
        scn = uniform_scenario("P2", 1.0, 2.0, spec, law53, n=200, T=0.4)
        traj, _ = run(scn)
        path = trace(traj, 0.1, 2)
        assert np.allclose(path.x, 0.1 + (5.0 / 3.0) * path.t, atol=1e-10)

    def test_wall_bound_family_obeys_speed_bound(self, p1_run):
        d1 = p1_run.scenario.speed_bounds.d1
        for path in launch_fan(p1_run, 1):
            if path.n < 2:
                continue
            rates = np.diff(path.x) / np.diff(path.t)
            assert np.all(rates <= -d1 + 1e-6)

    def test_sample_consistency_with_speed(self, p1_run):
        path = trace(p1_run, 0.9, 2)
        mid_x = 0.5 * (path.x[1:] + path.x[:-1])
        mid_t = 0.5 * (path.t[1:] + path.t[:-1])
        rate = np.diff(path.x) / np.diff(path.t)
        # The samples sit on consecutive stored rows; a midpoint blends two.
        rows = np.searchsorted(p1_run.times, path.t)
        assert np.array_equal(p1_run.times[rows], path.t) and (np.diff(rows) == 1).all()
        below = len(p1_run.times)  # lambda2 rows follow lambda1's
        lam_mid, = p1_run.interpolate(mid_x, rows[:-1] + below, p1_run.block(("lam",)), 0.5)
        assert float(np.abs(rate - lam_mid).max()) < 5e-7

    def test_resolution_guard(self, tmp_path):
        # A run that stored every second step is refused, not traced coarsely:
        # its times are not the step times of its config.
        thinned = thinned_run_file(tmp_path)
        with pytest.raises(TrajectoryFileError, match="not those of its config's run"):
            load_trajectory(thinned)
        assert main(["--out", str(tmp_path / "out"), "trace", str(thinned),
                     "--family", "1", "--x0", "0.5"]) == 65

    def test_bad_family_and_launch(self, p1_run):
        with pytest.raises(DomainError):
            trace(p1_run, 0.5, 3)
        with pytest.raises(DomainError):
            trace(p1_run, -0.5, 1)


class TestResidual:
    def test_straight_duct_uniform_run_has_zero_residual(self, law53):
        scn = uniform_scenario("P1", -3.0, 3.0, region_m(), law53, n=200, T=0.5)
        traj, _ = run(scn)
        for family in (1, 2):
            path = trace(traj, 0.7, family)
            r = riccati_residual(path)
            assert r.max_norm < 1e-13

    def test_exact_flow_has_small_residual(self):
        t = np.linspace(0.0, 2.0, 401)
        value = 1.0 / (1.0 + t)  # solves dv/dt = -v^2
        path = synthetic_path(t, 1.0 + 0.5 * t, value, np.full(t.size, 0.5))
        r = riccati_residual(path)
        assert r.max_norm < 1e-4

    def test_planted_defect_is_recovered(self):
        t = np.linspace(0.0, 2.0, 401)
        clean = 1.0 / (1.0 + t)
        planted = clean + 0.05 * np.sin(t)
        path = synthetic_path(t, 1.0 + 0.5 * t, planted, np.full(t.size, 0.5))
        r = riccati_residual(path)
        tm = r.t_mid
        p = 0.05 * np.sin(tm)
        v = 1.0 / (1.0 + tm)
        expected = 0.05 * np.cos(tm) + (2.0 * v * p + p * p)
        assert np.allclose(r.series, expected, atol=2e-3)
        assert r.max_norm > 0.04

    def test_needs_three_samples(self):
        t = np.linspace(0.0, 1.0, 2)
        path = synthetic_path(t, t.copy(), t * 0 + 1.0, np.ones(2))
        with pytest.raises(DomainError):
            riccati_residual(path)

    def test_second_family_records_both_readings(self, p1_run):
        path = trace(p1_run, 0.6, 2)
        r = riccati_residual(path)
        assert r.series_alt is not None
        assert r.max_norm_alt is not None

    def test_refinement_shrinks_residual(self, law53):
        base = desk_scenario("p3_desk", T=1.0)
        res = {}
        for n in (400, 800):
            scn = dataclasses.replace(base, n=n)
            traj, _ = run(scn)
            res[n] = max(riccati_residual(p).max_norm
                         for p in launch_fan(traj, 1) if p.n >= 3)
        assert res[400] / res[800] >= 1.3


class TestBounds:
    def test_decaying_solution_stays_in_band(self):
        t = np.linspace(0.0, 2.0, 401)
        value = 1.0 / (1.0 + t)
        path = synthetic_path(t, 1.0 + 0.5 * t, value, np.full(t.size, 0.5))
        report = bound_check(path, 0.1, 10.0, 1.0)
        assert report.sigma == 1
        assert report.lower_margin.min() >= 0.0
        assert report.upper_margin.min() >= -1e-12
        assert report.sub_margin.min() > 0.0

    def test_oversized_barrier_breaks_the_inequality(self):
        t = np.linspace(0.0, 2.0, 401)
        value = 1.0 / (1.0 + t)
        path = synthetic_path(t, 1.0 + 0.5 * t, value, np.full(t.size, 0.5))
        report = bound_check(path, 150.0, 10.0, 1.0)
        assert report.sub_margin.min() < 0.0
        assert not report.sub_margin.min() >= -1e-6

    def test_direction_must_be_uniform(self):
        t = np.linspace(0.0, 1.0, 11)
        lam = np.where(t < 0.5, 1.0, -1.0)
        path = synthetic_path(t, 1.0 + 0 * t, 1.0 + 0 * t, lam)
        with pytest.raises(InvalidStateError):
            bound_check(path, 0.1, 10.0, 1.0)

    def test_desk_run_margins_nonnegative_within_tolerance(self, p1_run):
        scn = p1_run.scenario
        lip = max(float(np.abs(np.gradient(p1_run.z, p1_run.grid.dx, axis=1)).max()),
                  float(np.abs(np.gradient(p1_run.w, p1_run.grid.dx, axis=1)).max()))
        tol = 5.0 * p1_run.grid.dx * lip
        for family in (1, 2):
            for path in launch_fan(p1_run, family):
                if path.n < 3:
                    continue
                rr = riccati_residual(path)
                drift = float(np.trapezoid(np.abs(rr.series), rr.t_mid))
                report = bound_check(path, scn.delta1, scn.profile.M,
                                     scn.profile.alpha)
                margins = (report.lower_margin.min(), report.upper_margin.min(), report.sub_margin.min())
                assert all(margin >= -(tol + 5.0 * drift) for margin in margins)

    def test_parameters_validated(self):
        t = np.linspace(0.0, 1.0, 11)
        path = synthetic_path(t, 1.0 + t, 1.0 + 0 * t, np.ones(11))
        with pytest.raises(DomainError):
            bound_check(path, -0.1, 10.0, 1.0)

    def test_functional_samples_band(self, p1_run):
        # the family-1 functional Phi stays between the barrier floor and the
        # running a-priori bound at every sample of the path
        scn = p1_run.scenario
        path = trace(p1_run, 0.6, 1)
        report = bound_check(path, scn.delta1, scn.profile.M, scn.profile.alpha)
        phi = path.value
        floor = phi - report.lower_margin
        upper = phi + report.upper_margin
        assert floor.shape == upper.shape == (path.n,)
        assert np.all((floor <= phi) & (phi <= upper))
        assert upper[0] == pytest.approx(float(path.value[0]))


# ---------------------------------------------------------------------------
# the lockstep fan engine against a scalar, one-path-at-a-time reference
# ---------------------------------------------------------------------------

def _ref_locate(traj, x, t):
    times = traj.times
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1))
    k2 = min(k + 1, len(times) - 1)
    tau = 0.0 if k2 == k else float(np.clip((t - times[k]) / (times[k2] - times[k]), 0.0, 1.0))
    xi = x / traj.grid.dx - 0.5
    i = int(np.clip(np.floor(xi), 0, traj.grid.n - 2))
    frac = float(np.clip(xi - i, 0.0, 1.0))
    return k, k2, tau, i, frac


def _ref_value(traj, stack, x, t):
    k, k2, tau, i, frac = _ref_locate(traj, x, t)
    lo = (1.0 - frac) * stack[k, i] + frac * stack[k, i + 1]
    hi = (1.0 - frac) * stack[k2, i] + frac * stack[k2, i + 1]
    return float((1.0 - tau) * lo + tau * hi)


def reference_trace(history, x0, family, t0=0.0):
    """The scalar RK4 tracer the lockstep engine replaced, kept verbatim in
    its arithmetic: one path, one interpolation per RK4 stage."""
    times = history.times
    scn = history.scenario
    x_max = history.grid.x_max
    lam_abs = scn.speed_bounds.lambda_abs_max
    x0 = max(x0, 0.5 * history.grid.dx)
    k0 = int(np.searchsorted(times, t0 - 1e-14, side="left"))
    k0 = min(k0, len(times) - 1)
    speed = speeds_zw(history.z, history.w, scn.law)[family - 1]

    def lam(xq, tq):
        return _ref_value(history, speed, min(max(xq, 0.0), x_max), tq)

    wall_band = max(WALL_BAND_CELLS * history.grid.dx,
                    WALL_MARGIN_FRAC[scn.problem] * scn.x_interest)
    ts, xs = [], []
    reason = "end"
    x = x0
    if x0 >= wall_band:
        ts.append(times[k0])
        xs.append(x0)
    for k in range(k0, len(times) - 1):
        t_k, t_k1 = times[k], times[k + 1]
        h = t_k1 - t_k
        v1 = lam(x, t_k)
        v2 = lam(x + 0.5 * h * v1, t_k + 0.5 * h)
        v3 = lam(x + 0.5 * h * v2, t_k + 0.5 * h)
        v4 = lam(x + h * v3, t_k1)
        x_new = x + h / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        if x_new < wall_band and v1 < 0.0:
            reason = "left"
            break
        if x_new > x_max - lam_abs * t_k1:
            reason = "cone"
            break
        if x_new >= wall_band:
            ts.append(t_k1)
            xs.append(x_new)
        x = x_new
    if not ts:
        ts, xs = [times[k0]], [min(max(x0, wall_band), x_max)]
    t_arr, x_arr = np.asarray(ts), np.asarray(xs)
    stacks = {"z": history.z, "w": history.w,
              **{key: np.gradient(u, history.grid.dx, axis=1)
                 for key, u in (("zx", history.z), ("wx", history.w))}}
    cols = {key: np.array([_ref_value(history, stack, xq, tq)
                           for tq, xq in zip(t_arr, x_arr)])
            for key, stack in dict(stacks, lam=speed).items()}
    a = np.asarray(scn.profile.a(x_arr), dtype=float)
    ax = np.asarray(scn.profile.a_prime(x_arr), dtype=float)
    phi, psi = phi_psi_zw(cols["z"], cols["w"], cols["zx"], cols["wx"], a, scn.law)
    A, B, C, Ah, Bh, Ch = coeffs_zw(cols["z"], cols["w"], a, ax, scn.law)
    if family == 1:
        value, other = phi, psi
    else:
        value, other = psi, phi
        A, B, C = Ah, Bh, Ch
    return CharPath(family, x0, t0, t_arr, x_arr, cols["z"], cols["w"],
                    cols["lam"], cols["zx"], cols["wx"], a, ax, value, other,
                    A, B, C, reason)


def _reference_relaunch(history, family, x0, t0, shift_x, shift_t):
    """One launch, moved by (shift_x, shift_t) while its path has fewer than
    3 samples and the move keeps it at x <= x_interest and t >= 0."""
    path = reference_trace(history, x0, family, t0)
    moves = 0
    while (shift_x > 0.0 or shift_t < 0.0) and path.n < 3 \
            and x0 + shift_x <= history.scenario.x_interest and t0 + shift_t >= 0.0:
        x0, t0 = x0 + shift_x, t0 + shift_t
        moves += 1
        path = reference_trace(history, x0, family, t0)
    return path, moves


def reference_launch_fan(history, family):
    scn = history.scenario
    lo = max(WALL_BAND_CELLS * history.grid.dx,
             WALL_MARGIN_FRAC[scn.problem] * scn.x_interest)
    spacing = (scn.x_interest - lo) / FAN
    found = [_reference_relaunch(history, family, float(lo + (k + 0.5) * spacing), 0.0,
                                 0.5 * spacing, 0.0) for k in range(FAN)]
    return [path for path, _ in found], sum(moves for _, moves in found)


def reference_boundary_fan(history, family):
    scn = history.scenario
    t0s = (np.arange(FAN) + 0.5) / FAN * scn.T
    found = [_reference_relaunch(history, family, 0.0, float(t0), 0.0, -0.5 * scn.T / FAN)
             for t0 in t0s]
    return [path for path, _ in found], sum(moves for _, moves in found)


_ARRAYS = ("t", "x", "z", "w", "lam", "zx", "wx", "a", "ax", "value", "other",
           "A", "B", "C")


def assert_same_paths(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert (g.family, g.x0, g.t0, g.exit_reason) == \
            (r.family, r.x0, r.t0, r.exit_reason)
        for name in _ARRAYS:
            assert np.array_equal(getattr(g, name), getattr(r, name)), name


@pytest.fixture(scope="module")
def p2_run():
    return run(desk_scenario("p2_desk", n=120))[0]


@pytest.fixture(scope="module")
def p3_run():
    return run(desk_scenario("p3_desk", n=300, T=1.0))[0]


class TestLockstepMatchesScalarReference:
    def test_p1_fans_and_single_traces(self, p1_run):
        for family in (1, 2):
            ref, _ = reference_launch_fan(p1_run, family)
            assert_same_paths(launch_fan(p1_run, family), ref)
            assert_same_paths([trace(p1_run, 0.6, family)],
                              [reference_trace(p1_run, 0.6, family)])

    def test_p2_launch_and_boundary_fans_exit_at_the_cone(self, p2_run):
        traj = p2_run
        exits, moves = set(), 0
        for family in (1, 2):
            ref, _ = reference_launch_fan(traj, family)
            assert_same_paths(launch_fan(traj, family), ref)
            ref_b, moved = reference_boundary_fan(traj, family)
            assert_same_paths(launch_fan(traj, family, boundary=True)[FAN:], ref_b)
            exits |= {p.exit_reason for p in ref + ref_b}
            moves += moved
            assert all(p.n >= 3 for p in ref + ref_b)
        assert "cone" in exits
        assert moves > 0  # late boundary launches move earlier

    def test_p3_left_exits_and_nudged_launches(self, p3_run):
        traj = p3_run
        nudges, exits = 0, set()
        for family in (1, 2):
            ref, nudged = reference_launch_fan(traj, family)
            assert_same_paths(launch_fan(traj, family), ref)
            nudges += nudged
            exits |= {p.exit_reason for p in ref}
        assert exits == {"left"}
        assert nudges > 0

    @pytest.mark.parametrize("name", ["p2_run", "p3_run"])
    def test_mixed_families_in_one_call(self, name, request):
        traj = request.getfixturevalue(name)
        boundary = traj.scenario.problem == "P2"
        both = launch_fan(traj, (1, 2), boundary=boundary)
        assert [p.family for p in both] == [1] * (len(both) // 2) + [2] * (len(both) // 2)
        per_family = [launch_fan(traj, family, boundary=boundary) for family in (1, 2)]
        assert_same_paths(both, per_family[0] + per_family[1])
        ref = []
        for family in (1, 2):
            ref += reference_launch_fan(traj, family)[0]
            if boundary:
                ref += reference_boundary_fan(traj, family)[0]
        assert_same_paths(both, ref)
        # Families interleaved launch by launch, some launched after t = 0.
        scn = traj.scenario
        x0 = np.linspace(0.1, 0.9, 12) * scn.x_interest
        t0 = np.tile([0.0, 0.3 * scn.T, 0.3 * scn.T], 4)
        family = np.array([1, 2, 2, 1] * 3)
        mixed = trace_fan(traj, x0, family, t0)
        assert [p.family for p in mixed] == family.tolist()
        assert_same_paths(mixed, [trace(traj, x, f, t) for x, f, t in zip(x0, family, t0)])
        assert_same_paths(mixed, [reference_trace(traj, float(x), int(f), float(t))
                                  for x, f, t in zip(x0, family, t0)])


@pytest.mark.parametrize("name", ["p1_run", "p2_run", "p3_run"])
def test_clamping_decided_once_per_step_is_the_per_call_check(name, request, monkeypatch):
    # The walk tells ``interpolate`` (``inside=True``) that no stage
    # position of a step needs clamping where the block's speed bounds show
    # it.  Every position of a told call has its stored pair, and the fans
    # are bitwise those of the per-call check, forced here by dropping the
    # promise.  P2's boundary launches start at 0.5 dx, on the edge.
    traj = request.getfixturevalue(name)
    boundary = traj.scenario.problem == "P2"
    dx, last = traj.grid.dx, traj.scenario.trusted_cells - 2
    plain = Trajectory.interpolate
    calls, told = [], []

    def checked(history, x, row, stacks, weight=0.0, offset=0, *, inside=False):
        if np.ndim(offset):  # an RK4 stage of the walk
            calls.append(inside)
            if inside:
                cell = np.floor(x / dx - 0.5)
                assert 0.0 <= cell.min() and cell.max() <= last
                told.append(float(x.min()))
        return plain(history, x, row, stacks, weight, offset, inside=inside)

    def per_call(history, x, row, stacks, weight=0.0, offset=0, *, inside=False):
        return plain(history, x, row, stacks, weight, offset)

    monkeypatch.setattr(Trajectory, "interpolate", checked)
    once = launch_fan(traj, (1, 2), boundary=boundary)
    monkeypatch.setattr(Trajectory, "interpolate", per_call)
    each = launch_fan(traj, (1, 2), boundary=boundary)
    assert once.samples.tobytes() == each.samples.tobytes()
    assert [p.exit_reason for p in once] == [p.exit_reason for p in each]
    assert sum(calls) > 0.5 * len(calls)  # every stage, on these runs
    if boundary:
        assert min(told) == 0.5 * dx


@pytest.mark.parametrize("name", ["p2_run", "p3_run"])
def test_every_sample_lies_on_a_stored_time(name, request):
    # ``_samples`` reads each sample's own stored row: a walk records
    # positions only at stored times, also for a launch between two of them
    # (P2's boundary launches at (j + 1/2) T/20) and for a launch that a
    # relaunch round moved.
    traj = request.getfixturevalue(name)
    scn = traj.scenario
    boundary = scn.problem == "P2"
    fan = launch_fan(traj, (1, 2), boundary=boundary)
    assert np.isin(fan.column("t"), traj.times).all()
    assert all(np.isin(path.t, traj.times).all() for path in fan)
    # The launches of the first round, as ``launch_fan`` places them.
    band = wall_band(traj)
    mid = np.arange(FAN) + 0.5
    first = [(band + mid * (scn.x_interest - band) / FAN, np.zeros(FAN))]
    if boundary:
        first.append((np.full(FAN, 0.5 * traj.grid.dx), mid / FAN * scn.T))
    x0, t0 = (np.tile(np.concatenate(col), 2) for col in zip(*first))
    launched = np.array([(path.x0, path.t0) for path in fan]).T
    assert ((launched[0] != x0) | (launched[1] != t0)).any()  # a relaunch round
    assert np.isin(launched[1], traj.times).all() != boundary

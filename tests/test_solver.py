import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from conftest import (constant_profile, desk_config_text, desk_scenario, field_dt,
                      region_l, region_m, uniform_scenario)
from nozzleflow.errors import (BlowUpError, DomainError, RunAbortedError,
                               SonicBoundaryError)
from nozzleflow import solver
from nozzleflow.config import parse_config_text
from nozzleflow.model import GasLaw, speeds_zw
from nozzleflow.region import RegionSpec, zero_profile
from nozzleflow.solver import Field, Grid, Scenario, run, step


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


def _reference_boundary(z, w, t, scn):
    """The left ghosts ``gl`` (rows z and w, cells [-2, -1]) at time t of
    the leading cells ``z``, ``w``: the solver's ``boundary_update`` as it
    was before the ghosts were written into the state, kept as the
    reference."""
    if scn.problem == "P1":
        (z0, z1), (w0, w1) = z[:2].tolist(), w[:2].tolist()
        z_edge = 1.5 * z0 - 0.5 * z1
        lam1, lam2 = speeds_zw(z_edge, -z_edge, scn.law)
        if not (lam1 < 0.0 < lam2):
            raise SonicBoundaryError(
                f"wall boundary needs lambda1 < 0 < lambda2, got "
                f"({float(lam1):.6g}, {float(lam2):.6g}) at t={t:.6g}", t=t)
        gl = [[-other[1], -other[0]] for other in ((w0, w1), (z0, z1))]
    elif scn.problem == "P2":
        lam1, lam2 = speeds_zw(float(scn.zB(t)), float(scn.wB(t)), scn.law)
        dx = scn.grid.dx
        gl = [[float(fn(t + 1.5 * dx / float(lam))), float(fn(t + 0.5 * dx / float(lam)))]
              for fn, lam in ((scn.zB, lam1), (scn.wB, lam2))]
    else:
        gl = [[6.0 * u0 - 8.0 * u1 + 3.0 * u2, 3.0 * u0 - 3.0 * u1 + u2]
              for u0, u1, u2 in (z[:3].tolist(), w[:3].tolist())]
    return np.array(gl)


def _upwind_gradient(u_ext, lam_ext, dx, order):
    """Upwind-biased gradient at the n interior cells of ``u_ext`` (two
    ghosts each side), the side of each face chosen by the mean of its two
    cells' speeds ``lam_ext``: the solver's general gradient before the
    region fixed the side, kept as the reference.  Where every face mean has
    the sign the region certifies, the solver must match it bitwise."""
    n = u_ext.size - 4
    lam_face = 0.5 * (lam_ext[1:n + 2] + lam_ext[2:n + 3])
    if order == 1:
        u_face = np.where(lam_face >= 0.0, u_ext[1:n + 2], u_ext[2:n + 3])
    else:
        d = u_ext[1:] - u_ext[:-1]
        slope = _masked_slope(d[:-1], d[1:])
        u_face = np.where(lam_face >= 0.0, u_ext[1:n + 2] + 0.5 * slope[0:n + 1],
                          u_ext[2:n + 3] - 0.5 * slope[1:n + 2])
    return (u_face[1:] - u_face[:-1]) / dx


def _reference_step(z, w, t, dt, m, scn, gl=None, certified=False):
    """One step of the first ``m`` cells of ``z``, ``w`` (the grid's cells
    and its two far-field ghosts), whose next two cells are their right
    ghosts, with z and w advanced as two separate arrays: the step as it was
    before the two-row kernel, kept as the reference the kernel must match
    bitwise.  ``gl`` are the left ghosts at t when the caller has them.
    Each face takes its upwind side by the mean of the stage's own speeds,
    or, if ``certified``, by the constant speeds ``speed_bounds.sign1`` and
    ``sign2``: the sides the region certifies.  Returns the new z, w; the
    cells past the first m keep their values."""
    coef = scn.runtime_arrays["coef"][:m]
    bounds = scn.speed_bounds

    def stage_rhs(z, w, t, gl):
        if gl is None:
            gl = _reference_boundary(z, w, t, scn)
        z_ext = np.concatenate([gl[0], z[:m + 2]])
        w_ext = np.concatenate([gl[1], w[:m + 2]])
        lam1e, lam2e = speeds_zw(z_ext, w_ext, scn.law)
        side1, side2 = ((np.full(m + 4, float(bounds.sign1)), np.full(m + 4, float(bounds.sign2)))
                        if certified else (lam1e, lam2e))
        z_x = _upwind_gradient(z_ext, side1, scn.grid.dx, scn.order)
        w_x = _upwind_gradient(w_ext, side2, scn.grid.dx, scn.order)
        sz, sw = solver.source_pair(w[:m] - z[:m], w[:m] + z[:m], coef)
        return -lam1e[2:-2] * z_x + sz, -lam2e[2:-2] * w_x + sw

    f1z, f1w = stage_rhs(z, w, t, gl)
    if scn.order == 1:
        new_z, new_w = z[:m] + dt * f1z, w[:m] + dt * f1w
    else:
        mid_z = np.concatenate([z[:m] + dt * f1z, z[m:m + 2]])
        mid_w = np.concatenate([w[:m] + dt * f1w, w[m:m + 2]])
        f2z, f2w = stage_rhs(mid_z, mid_w, t + dt, None)
        new_z, new_w = z[:m] + 0.5 * dt * (f1z + f2z), w[:m] + 0.5 * dt * (f1w + f2w)
    out = np.column_stack([new_z, new_w])
    if not (out.max() <= solver.BLOW_LIMIT and out.min() >= -solver.BLOW_LIMIT):
        cell = int(np.argmax((~(np.abs(out) <= solver.BLOW_LIMIT)).any(axis=1)))
        raise BlowUpError(
            f"solution left the finite range at t={t + dt:.6g}, cell {cell} "
            f"(x={(cell + 0.5) * scn.grid.dx:.6g})", t=t + dt, cell=cell)
    return np.concatenate([new_z, z[m:]]), np.concatenate([new_w, w[m:]])


def _reference_run(scn, certified=False):
    """``solver.run`` as it was before the two reused state arrays: a new
    state each step, the boundary values formed after every step, and each
    snapshot appended name by name, with the upwind sides ``certified`` or
    not (``_reference_step``).  Returns the stored arrays by name, the final
    (z, w, t) or None, and the ``blow_up`` details or None."""
    fld = scn.initial_field()
    gr = scn.runtime_arrays["gr"]
    z, w = np.concatenate([fld.z, gr[0]]), np.concatenate([fld.w, gr[1]])
    times, dt, kept, n = scn.step_times, scn.dt, scn.trusted_cells, scn.grid.n
    stored = {name: [] for name in solver._STORED}

    def append(t):
        for name, value in zip(solver._STORED, (t, z[:kept], w[:kept])):
            stored[name].append(value)

    gl = _reference_boundary(z, w, 0.0, scn)
    append(0.0)
    final, blow_up = None, None
    try:
        for k, m in enumerate(scn.active_cells(times[:-1]).tolist()):
            z, w = _reference_step(z, w, times[k], dt, m, scn, gl, certified)
            gl = _reference_boundary(z, w, times[k + 1], scn)
            append(times[k + 1])
        final = (z[:n], w[:n], times[-1])
    except RunAbortedError as err:
        blow_up = {"t": err.t, "cell": err.cell, "message": str(err)}
    return {name: np.array(vals) for name, vals in stored.items()}, final, blow_up


def _row_by_row_step(fld, dt, scn, certified=False):
    """``_reference_step`` of the whole grid of ``fld``."""
    gr = scn.runtime_arrays["gr"]
    z, w = _reference_step(np.concatenate([fld.z, gr[0]]), np.concatenate([fld.w, gr[1]]),
                           fld.t, dt, scn.grid.n, scn, certified=certified)
    return Field(z[:-2], w[:-2], fld.t + dt, fld.grid)


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _masked_slope(a, b):
    """The van Leer slope by its formula: 2ab over a + b, divided only where
    ab > 0, into zeros.  Kept as the reference that ``solver._limited_slope``
    and any rewrite of it (an unmasked divide, say) must match bitwise, and
    that ``_upwind_gradient`` uses."""
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
            work = self._work(a.size)
            work.slope.fill(math.nan)  # what an earlier call may leave there
            got = solver._limited_slope(a, b, work)
        assert _bitwise(got, want)

    def test_no_warning_where_ab_is_not_positive(self):
        # a = -b (x/0) and a = b = 0 (0/0, flat data) must not warn.  (An
        # infinite slope warns in the product or the sum.)
        a, b = self._pairs([v for v in self.SPECIAL if not math.isinf(v)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        for k in range(1, len(traj.times)):
            fld.t = traj.times[k - 1]  # the run's step times, as P2 reads them
            fld = _row_by_row_step(fld, scn.dt, scn)
            assert _bitwise(fld.z[:m], traj.z[k]), k
            assert _bitwise(fld.w[:m], traj.w[k]), k
        assert _bitwise(fld.z, final.z) and _bitwise(fld.w, final.w)
        assert final.t == traj.times[-1] == scn.T
        direct = step(scn.initial_field(), scn.dt, scn)
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


def _p2_scenario_with_curved_inflow(**overrides):
    """p2_desk with boundary data that use ^, sin and exp, equal to the
    initial data at the corner (x, t) = (0, 0)."""
    text = desk_config_text("p2_desk", {
        "zB = 1.1 - 0.0787*t": "zB = 1.1 - 0.0787*t + 0.001*sin(3*t) + 0.002*((1 + t)^1.5 - 1)",
        "wB = 1.7 - 0.0893*t": "wB = 1.7 - 0.0893*t + 0.003*(exp(0.5*t) - 1)"})
    return dataclasses.replace(parse_config_text(text).to_scenario(), **overrides)


class TestLeanLoop:
    """``run`` steps into two reused state arrays and writes the ghosts and
    the snapshots in place; every stored array, the final field and the
    failure details are bitwise those of the run before it
    (``_reference_run``).  A run past the certified cfl leaves the region,
    where the face-mean side is not the certified one, so its reference
    takes the certified sides."""

    @staticmethod
    def _assert_matches_reference(scn, certified=False):
        want, want_final, want_blow_up = _reference_run(scn, certified)
        try:
            traj, final = run(scn)
        except RunAbortedError as err:
            traj, final = err.trajectory, None
        for name in solver._STORED:
            assert _bitwise(getattr(traj, name), want[name]), name
        assert traj.blow_up == want_blow_up
        if want_final is None:
            assert final is None
        else:
            assert _bitwise(final.z, want_final[0]) and _bitwise(final.w, want_final[1])
            assert final.t == want_final[2]
        return traj

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_desk_runs(self, name, n, order):
        scn = desk_scenario(name, n=n, order=order)
        assert scn.active_cells(scn.step_times[:-1])[-1] < scn.grid.n  # it truncates
        assert not self._assert_matches_reference(scn).blown_up

    def test_blow_up(self):
        traj = self._assert_matches_reference(desk_scenario("p1_desk", n=300, cfl=1.44),
                                              certified=True)
        assert traj.blow_up["message"].startswith("solution left the finite range")

    def test_wall_turns_sonic(self):
        traj = self._assert_matches_reference(desk_scenario("p1_desk", n=100, cfl=5.0),
                                              certified=True)
        assert traj.blow_up["message"].startswith("wall boundary needs")

    @pytest.mark.parametrize("order", [1, 2])
    def test_inflow_data_with_powers_sines_and_exponentials(self, order):
        scn = _p2_scenario_with_curved_inflow(n=120, order=order)
        times, dt = scn.step_times, scn.dt
        # The post-step ghosts of most second-order steps are the second
        # stage's, reused; the others are formed anew.
        reused = times[:-1] + dt == times[1:]
        assert 0 < reused.sum() < reused.size
        self._assert_matches_reference(scn)

    def test_one_call_of_step_per_step(self, monkeypatch):
        scn = desk_scenario("p3_desk", n=250)
        widths = []
        plain = solver.step

        def counted(*args):
            new = plain(*args)
            assert isinstance(new, Field) and new.w.size == new.z.size
            widths.append(new.z.size)
            return new

        monkeypatch.setattr(solver, "step", counted)
        traj, _ = run(scn)
        assert widths == scn.active_cells(scn.step_times[:-1]).tolist()
        assert len(widths) == scn.steps == len(traj.times) - 1


class TestSignResolvedStage:
    """Each row takes the upwind side its certified speed sign fixes: the
    stage compares no speeds, and a state that leaves the region keeps the
    sides."""

    #: The kernel calls of one stage, (row, leftward): "zw" is the flat
    #: block of both rows.
    CALLS = {"p1_desk": [("z", True), ("w", False)], "p2_desk": [("zw", False)],
             "p3_desk": [("zw", True)]}

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_kernel_calls_of_each_stage(self, name, order, monkeypatch):
        stages = []
        plain_rhs, plain_kernel = solver._stage_rhs, solver._one_sided_gradient

        def stage(views, *rest):
            stages.append((views.ext, []))
            return plain_rhs(views, *rest)

        def kernel(cuts, out, leftward, *rest):
            # The faces read from the flat block of both rows (a stride of
            # one entry), or from one column (two entries), z or w by the
            # parity of the first entry they read.
            ext, calls = stages[-1]
            stride = cuts[0].strides[0] // ext.itemsize
            if stride == 1:
                row = "zw"
            else:
                assert stride == 2 and out.size == len(ext) - 4
                row = "zw"[(cuts[0].ctypes.data - ext.ctypes.data) // ext.itemsize % 2]
            calls.append((row, leftward))
            return plain_kernel(cuts, out, leftward, *rest)

        monkeypatch.setattr(solver, "_stage_rhs", stage)
        monkeypatch.setattr(solver, "_one_sided_gradient", kernel)
        scn = desk_scenario(name, n=100, T=0.05, order=order)
        run(scn)
        assert len(stages) == order * scn.steps
        assert all(calls == self.CALLS[name] for _, calls in stages)

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_desk_stages_read_the_certified_signs(self, name, n, order, monkeypatch):
        # Every cell a stage reads, ghosts included, has the speed signs the
        # region certifies, so every face mean has them too, and the
        # certified side is the face-mean side.
        scn = desk_scenario(name, n=n, order=order)
        bounds = scn.speed_bounds
        plain = solver._stage_rhs
        stages = []

        def checked(views, *rest):
            ext = views.ext
            for lam, sign in zip(speeds_zw(ext[:, 0], ext[:, 1], scn.law),
                                 (bounds.sign1, bounds.sign2)):
                assert np.all(lam < 0.0) if sign < 0 else np.all(lam >= 0.0)
            stages.append(len(ext))
            return plain(views, *rest)

        monkeypatch.setattr(solver, "_stage_rhs", checked)
        _, final = run(scn)
        assert final.t == scn.T and len(stages) == order * scn.steps

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_rightward_cell_takes_the_certified_side(self, order):
        scn = desk_scenario("p3_desk", n=200, T=0.3, order=order)
        fld = scn.initial_field()
        fld.z[30], fld.w[30] = -1.2, 2.0
        lam1, lam2 = speeds_zw(fld.z, fld.w, scn.law)
        assert lam1.max() < 0.0 < lam2[30] and int((lam2 > 0.0).sum()) == 1
        dt = field_dt(fld, scn.law, scn.cfl)
        new = step(fld, dt, scn)
        ref = _row_by_row_step(fld, dt, scn, certified=True)
        assert _bitwise(new.z, ref.z) and _bitwise(new.w, ref.w)

    @pytest.mark.parametrize("order", [1, 2])
    def test_a_positive_face_mean_keeps_the_certified_side(self, order):
        # Two rightward cells side by side: the face between them has a
        # positive mean lambda2, so there the face-mean side is the left
        # one, and the step still reads from the right.
        scn = desk_scenario("p3_desk", n=200, T=0.3, order=order)
        fld = scn.initial_field()
        fld.z[30:32], fld.w[30:32] = -1.2, (2.0, 1.8)
        lam2 = speeds_zw(fld.z, fld.w, scn.law)[1]
        assert 0.5 * (lam2[30] + lam2[31]) > 0.0
        dt = field_dt(fld, scn.law, scn.cfl)
        new = step(fld, dt, scn)
        ref = _row_by_row_step(fld, dt, scn, certified=True)
        assert _bitwise(new.z, ref.z) and _bitwise(new.w, ref.w)
        mean = _row_by_row_step(fld, dt, scn)
        assert not _bitwise(new.w, mean.w)

    @pytest.mark.parametrize("name", ["p1_desk", "p2_desk", "p3_desk"])
    def test_run_takes_the_certified_step(self, name, monkeypatch):
        monkeypatch.setattr(solver, "ACTIVE_PAD_SIGMAS", 10 ** 6)
        scn = desk_scenario(name, n=100, T=0.3)
        traj, _ = run(scn)
        K, lam = scn.steps, scn.speed_bounds.lambda_abs_max
        assert K == math.ceil(scn.T * lam / (scn.cfl * scn.grid.dx))
        assert lam * scn.T / K <= scn.cfl * scn.grid.dx
        assert scn.dt == scn.T / K
        assert np.array_equal(traj.times, np.linspace(0.0, scn.T, K + 1))
        assert traj.times[-1] == scn.T
        fld = scn.initial_field()
        for k in range(1, K + 1):
            fld = _row_by_row_step(fld, scn.T / K, scn)
            fld.t = traj.times[k]
            assert _bitwise(fld.z[:scn.trusted_cells], traj.z[k]), k
            assert _bitwise(fld.w[:scn.trusted_cells], traj.w[k]), k


class TestActiveCells:
    """A step evolves only the cells the stored columns can depend on, plus
    a pad against the scheme's numerical diffusion."""

    @pytest.mark.parametrize("name, n, most", [("p3_desk", 1000, 60), ("p2_desk", 150, 1),
                                               ("p1_desk", 2000, 30)])
    def test_work_views_are_cut_once_per_quantum(self, name, n, most, monkeypatch):
        # A cut lasts until the active width has shrunk by _QUANTUM cells:
        # at p3 n = 1000 the width takes 844 values and the run cuts 53
        # times; P2 keeps one width and one cut.
        cuts = []

        class Counted(solver._Width):
            def __init__(self, work, m):
                cuts.append(m)
                super().__init__(work, m)

        monkeypatch.setattr(solver, "_Width", Counted)
        scn = desk_scenario(name, n=n)
        run(scn)
        active = scn.active_cells(scn.step_times[:-1])
        assert cuts[0] == active[0] and len(cuts) <= most
        assert len(cuts) == 1 if name == "p2_desk" else len(cuts) < np.unique(active).size
        # Each step's width lies in the cut it computes on.
        cut = np.array(cuts)[np.searchsorted(-np.array(cuts), -active, side="right") - 1]
        assert np.all((active <= cut) & (cut < active + solver._QUANTUM))

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
        assert np.array_equal(traj.times, full.times)
        for key in ("z", "w"):
            a, b = getattr(traj, key), getattr(full, key)
            assert a.shape == b.shape and float(np.abs(a - b).max()) <= 1e-13, key

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150),
                                         ("p3_desk", 250)])
    def test_cells_past_the_active_ones_are_never_read(self, name, n, monkeypatch):
        # Negative control: after each step, every cell it left out but the
        # two right ghosts of its active ones becomes NaN.
        traj, _ = run(desk_scenario(name, n=n))
        plain = solver.step

        def garbling(fld, dt, scn, *rest):
            new = plain(fld, dt, scn, *rest)
            new.state[new.z.size + 4:] = np.nan
            return new

        monkeypatch.setattr(solver, "step", garbling)
        garbled, final = run(desk_scenario(name, n=n))
        assert np.isnan(final.z).any()  # the control did plant garbage
        for key in solver._STORED:
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
        # The solver's kernel at order 1 on one row, read from the left.
        work = types.SimpleNamespace(entries=1, order=1, dx=dx)
        grad = np.empty(u.size)
        for _ in range(50):
            u_ext = np.concatenate([u[:1], u[:1], u, u[-1:], u[-1:]])
            cuts = solver._cuts(u_ext, False, work, u.size)
            solver._one_sided_gradient(cuts, grad, False, work, None)
            u = u - dt * lam * grad
            assert u.max() <= hi + 1e-14
            assert u.min() >= lo - 1e-14


class TestBoundaries:
    def test_wall_reflection(self, law53):
        scn = desk_scenario("p1_desk", n=200, T=0.5)
        fld = scn.initial_field()
        state = solver._state_of(fld, scn)
        solver._write_ghosts(state, 0.0, scn, solver._Stages(scn))
        # Row 1 is the ghost cell -1, with z and w side by side.
        assert state[1, 1] == pytest.approx(-fld.z[0])
        assert state[1, 0] == pytest.approx(-fld.w[0])

    def test_wall_needs_subsonic_state(self, law53):
        # rightward supersonic state cannot satisfy the wall condition
        scn = uniform_scenario("P1", 1.6, 2.6, region_m(), law53)
        with pytest.raises(SonicBoundaryError):
            solver._write_ghosts(solver._state_of(scn.initial_field(), scn), 0.0, scn,
                                 solver._Stages(scn))

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

    def test_unnegated_wall_ghosts_raise_the_conservative_residual(self, monkeypatch):
        # Negative control: the P1 wall's mirrored z ghosts left un-negated
        # (gl_z = +w) break z + w = 0 at the wall, and the independent
        # conservative-form residual must see it.
        from nozzleflow.harness import conservative_residual

        def residual():
            return conservative_residual(run(desk_scenario("p1_desk", n=200, T=0.5))[0]).max_linf

        clean = residual()
        plain = solver._write_ghosts

        def unnegated(state, t, scn, work):
            plain(state, t, scn, work)
            state[:2, 0] = state[2:4, 1][::-1]

        monkeypatch.setattr(solver, "_write_ghosts", unnegated)
        assert residual() >= 5.0 * clean


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
        x = np.linspace(0.0, 1.0, 9)

        def derived(scn):
            arrays = {key: arr.tobytes() for key, arr in scn.runtime_arrays.items()}
            return (scn.speed_bounds, scn.grid, scn.trusted_cells, arrays,
                    scn.majorant_integral(x).tobytes())

        # Every cached value is read before the scenario is replaced.
        before = derived(base)
        assert base.grid.n == 2000
        doubled = dataclasses.replace(base.profile,
                                      abar=lambda x, f=base.profile.abar: 2.0 * f(x))
        # Each change, and the cached values it must change: speed bounds,
        # grid, trusted cells, runtime arrays, s(x).
        for changes, moved in (
                (dict(n=500), (False, True, True, True, False)),
                # The benchmark ladder's call: _cache is accepted and ignored.
                (dict(n=500, _cache={}), (False, True, True, True, False)),
                (dict(region=dataclasses.replace(base.region, L1=3.7)),
                 (True, True, True, True, True)),
                (dict(profile=doubled), (False, False, False, False, True))):
            new = dataclasses.replace(base, **changes)
            # A scenario built from the same fields, never replaced.
            fresh = Scenario(**{f.name: getattr(new, f.name)
                                for f in dataclasses.fields(new)})
            got = derived(new)
            assert got == derived(fresh), changes
            assert tuple(a != b for a, b in zip(got, before)) == moved, changes
        assert derived(base) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.n = 500

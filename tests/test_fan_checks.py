"""The post-pass checks every traced path at once (``characteristics.fan_checks``
and what ``harness.characteristic_pass`` builds from it).  The per-path loop
they replaced is kept here, verbatim in its arithmetic, as the reference:
``characteristic_pass`` returns an equal dict, every float bitwise, and
raises ContractViolationError wherever the loop raised it."""
import json

import numpy as np
import pytest

from conftest import desk_scenario
from nozzleflow import characteristics as chars
from nozzleflow import harness, solver
from nozzleflow.characteristics import bound_check, riccati_residual
from nozzleflow.errors import ContractViolationError, InvalidStateError
from nozzleflow.riccati import cumulative_trapezoid, subsolution_value
from nozzleflow.solver import run


# ---------------------------------------------------------------------------
# the per-path loop, as it was
# ---------------------------------------------------------------------------

def reference_upper_bound(t, A, B, C, phi0):
    """``riccati.apriori_upper_bound`` of one path as it was: A checked at
    every sample, one ``np.cumsum`` of the path's trapezoid steps."""
    if np.any(A >= 0.0):
        raise ContractViolationError("quadratic coefficient must stay negative")
    integrand = C - B ** 2 / (4.0 * A)
    out = np.zeros_like(integrand)
    if integrand.size > 1:
        out[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))
    return phi0 + out


def reference_residual(path):
    """``riccati_residual``: (t_mid, series, series_alt or None)."""
    v, t = path.value, path.t
    dv = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    series = dv - (path.A * v * v + path.B * v + path.C)[1:-1]
    alt = None
    if path.family == 2:
        alt = dv - (path.A * v * v + path.B * path.other + path.C)[1:-1]
    return t[1:-1], series, alt


def reference_bounds(path, delta1, M, alpha):
    """``bound_check``: (sigma, lower, upper, sub margin series)."""
    barrier = subsolution_value(path.x, delta1, M, alpha)
    moving = np.abs(path.lam) > 1e-12
    signs = np.sign(path.lam[moving])
    if signs.size == 0:
        raise InvalidStateError("path does not move; no barrier direction")
    if not (np.all(signs > 0) or np.all(signs < 0)):
        raise InvalidStateError("path changes direction; barrier sign undefined")
    sigma = 1 if signs[0] > 0 else -1
    floor = -sigma * barrier
    lower = path.value - floor
    upper = reference_upper_bound(path.t, path.A, path.B, path.C, float(path.value[0])) - path.value
    dfloor = -sigma * (1.0 + alpha) * M * delta1 * path.lam \
        * (1.0 + M * path.x) ** (-2.0 - alpha)
    sub_lhs = dfloor - (path.A * floor * floor + path.B * floor + path.C)
    return sigma, lower, upper, -sub_lhs


def reference_growth(paths) -> float:
    """The rise of the upper bound ``derivative_bound_estimate`` took, one
    path at a time."""
    growth = 0.0
    for path in paths:
        if path.n < 2:
            continue
        ub = reference_upper_bound(path.t, path.A, path.B, path.C, 0.0)
        growth = max(growth, float(np.abs(ub).max()))
    return growth


def reference_pass(traj) -> dict:
    """``characteristic_pass`` as it was: the checks one path at a time."""
    scn = traj.scenario
    extremes = harness._run_extremes(traj)
    lip = max(extremes["zx_lip"], extremes["wx_lip"])
    tol_base = harness.MARGIN_TOL_FACTOR * traj.grid.dx * lip
    result = {"tolerance": tol_base, "lip": lip, "families": {}, "paths": []}
    traced = chars.launch_fan(traj, (1, 2), boundary=scn.problem == "P2")
    bounds = scn.speed_bounds
    for family in (1, 2):
        paths = [path for path in traced if path.family == family]
        max_res, max_alt, speed_margin, records = 0.0, None, float("inf"), []
        minima = dict.fromkeys(("lower", "upper", "subsolution"), float("inf"))
        d, sign = (bounds.d1, bounds.sign1) if family == 1 else (bounds.d2, bounds.sign2)
        for path in paths:
            where = {"family": family, "x0": path.x0, "t0": path.t0,
                     "samples": path.n, "exit": path.exit_reason}
            try:
                if path.n < chars.MIN_SAMPLES:
                    raise InvalidStateError(
                        f"{path.n} samples, a check needs {chars.MIN_SAMPLES}")
                t_mid, series, alt = reference_residual(path)
                _, *margins = reference_bounds(path, scn.delta1, scn.profile.M,
                                               scn.profile.alpha)
            except InvalidStateError as exc:
                records.append(dict(where, error=str(exc), ok=False))
                continue
            max_norm = float(np.abs(series).max())
            max_res = max(max_res, max_norm)
            if alt is not None:
                max_alt = max(max_alt or 0.0, float(np.abs(alt).max()))
            lows = [float(margin.min()) for margin in margins]
            for key, low in zip(minima, lows):
                minima[key] = min(minima[key], low)
            speed_margin = min(speed_margin, float((sign * path.lam - d).min()))
            drift = float(np.trapezoid(np.abs(series), t_mid))
            path_tol = tol_base + harness.MARGIN_TOL_FACTOR * drift
            records.append(dict(
                where, residual_max=max_norm, tolerance=path_tol,
                min_lower=lows[0], min_upper=lows[1], min_sub=lows[2],
                ok=all(low >= -path_tol for low in lows)))
        result["paths"] += records
        exits = {reason: sum(path.exit_reason == reason for path in paths)
                 for reason in ("end", "left", "cone")}
        result["families"][str(family)] = {
            "paths": len(paths), "exits": exits,
            "checked": sum(path.n >= chars.MIN_SAMPLES for path in paths),
            "samples": sum(path.n for path in paths),
            "residual_max": max_res,
            "residual_max_alt_reading": max_alt,
            "min_margins": {k: (None if v == float("inf") else v) for k, v in minima.items()},
            "speed_margin": None if speed_margin == float("inf") else speed_margin,
            "bounds_ok": all(record["ok"] for record in records),
        }
    result["derivative_bounds"] = implied = harness.derivative_bound_estimate(
        traj, reference_growth(traced), extremes)
    result["ok"] = implied["ok"] and all(
        stats["bounds_ok"] for stats in result["families"].values())
    return result


def assert_same_outcome(traj) -> bool:
    """``characteristic_pass`` gives the reference's dict (equal, and every
    float the same bits), or raises ContractViolationError where the
    reference does.  Returns whether it raised."""
    try:
        want = reference_pass(traj)
    except ContractViolationError:
        with pytest.raises(ContractViolationError):
            harness.characteristic_pass(traj)
        return True
    got = harness.characteristic_pass(traj)
    assert got == want
    # repr round-trips a float exactly, so equal dumps are equal bits.
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return False


# ---------------------------------------------------------------------------
# the batch against the loop
# ---------------------------------------------------------------------------

#: The desk runs of the block tests, and coarse grids whose paths are short
#: (every path, or some, with fewer than three samples).
CASES = {"p1": ("p1_desk", 300), "p2": ("p2_desk", 150), "p3": ("p3_desk", 250),
         "p2-coarse": ("p2_desk", 4), "p1-coarse": ("p1_desk", 3),
         "p3-coarse": ("p3_desk", 50), "p2-some-short": ("p2_desk", 5),
         "p1-some-short": ("p1_desk", 5), "p3-some-short": ("p3_desk", 55)}


@pytest.fixture(scope="module", params=list(CASES))
def case_run(request):
    name, n = CASES[request.param]
    return request.param, run(desk_scenario(name, n=n))[0]


@pytest.mark.parametrize("block", [1, 64])
def test_pass_equals_the_per_path_loop(case_run, block, monkeypatch):
    label, traj = case_run
    monkeypatch.setattr(solver, "_BLOCK", block)
    assert not assert_same_outcome(traj)
    post = harness.characteristic_pass(traj)
    errors = [record for record in post["paths"] if "error" in record]
    if label.endswith("coarse"):
        assert len(errors) == len(post["paths"])
    elif label.endswith("some-short"):
        assert 0 < len(errors) < len(post["paths"])
    else:
        assert not errors
    if label == "p2":
        assert all(stats["exits"]["cone"] > 0 for stats in post["families"].values())


def test_single_path_checks_equal_the_loop(case_run):
    # riccati_residual and bound_check are the batch arithmetic on one path.
    label, traj = case_run
    scn = traj.scenario
    checked = 0
    for path in chars.launch_fan(traj, (1, 2), boundary=scn.problem == "P2"):
        if path.n < chars.MIN_SAMPLES:
            continue
        got, (t_mid, series, alt) = riccati_residual(path), reference_residual(path)
        assert got.t_mid.tobytes() == t_mid.tobytes()
        assert got.series.tobytes() == series.tobytes()
        assert (got.series_alt is None) == (alt is None)
        if alt is not None:
            assert got.series_alt.tobytes() == alt.tobytes()
        report = bound_check(path, scn.delta1, scn.profile.M, scn.profile.alpha)
        sigma, *margins = reference_bounds(path, scn.delta1, scn.profile.M, scn.profile.alpha)
        assert report.sigma == sigma
        for name, want in zip(("lower_margin", "upper_margin", "sub_margin"), margins):
            assert getattr(report, name).tobytes() == want.tobytes(), name
        checked += 1
    assert (checked == 0) == label.endswith("coarse")


def _planting(monkeypatch, plant):
    """Make ``launch_fan`` hand over its paths after ``plant(fan)`` changed
    their sample table in place (the paths' arrays view it)."""
    launch = chars.launch_fan

    def planted(*args, **kwargs):
        fan = launch(*args, **kwargs)
        plant(fan)
        return fan

    monkeypatch.setattr(chars, "launch_fan", planted)


@pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150)])
def test_planted_speeds_that_stop_and_turn(name, n, monkeypatch):
    traj = run(desk_scenario(name, n=n, T=1.0))[0]

    def plant(fan):
        lam = fan.column("lam")
        still, turns = (slice(fan.starts[j], fan.ends[j]) for j in (2, len(fan) - 3))
        lam[still] = 0.0
        half = (fan.starts[len(fan) - 3] + fan.ends[len(fan) - 3]) // 2
        lam[turns.start:half] = -lam[turns.start:half]
        # A rightward path that starts still: its moving samples set sigma.
        lam[fan.starts[len(fan) - 5]] = 0.0

    _planting(monkeypatch, plant)
    assert not assert_same_outcome(traj)
    errors = [record["error"] for record in harness.characteristic_pass(traj)["paths"]
              if "error" in record]
    assert sorted(errors) == ["path changes direction; barrier sign undefined",
                              "path does not move; no barrier direction"]


class TestContractViolation:
    """A planted A >= 0 raises ContractViolationError out of the pass where
    the per-path loop raised it, and never turns into a per-path record."""

    @staticmethod
    def _plant_coeffs(monkeypatch, share):
        """``coeffs_zw`` whose A and A_hat are |A| (so >= 0) where a(x) is
        below its ``share`` quantile over the samples of each call: the
        samples furthest from the wall (a decays with x)."""
        coeffs = chars.coeffs_zw

        def planted(z, w, a, a_x, law):
            A, B, C, Ah, Bh, Ch = coeffs(z, w, a, a_x, law)
            hit = a <= np.quantile(a, share)
            return np.where(hit, np.abs(A), A), B, C, np.where(hit, np.abs(Ah), Ah), Bh, Ch

        monkeypatch.setattr(chars, "coeffs_zw", planted)

    @pytest.mark.parametrize("share", [1.0, 0.05])
    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150), ("p3_desk", 250)])
    def test_planted_coeffs(self, name, n, share, monkeypatch):
        traj = run(desk_scenario(name, n=n, T=1.0))[0]
        self._plant_coeffs(monkeypatch, share)
        assert assert_same_outcome(traj)

    @pytest.mark.parametrize("name, n", [("p1_desk", 300), ("p2_desk", 150), ("p3_desk", 250)])
    def test_on_one_path(self, name, n, monkeypatch):
        traj = run(desk_scenario(name, n=n, T=1.0))[0]

        def plant(fan):
            j = len(fan) // 2
            fan.column("A")[fan.ends[j] - 1] = 0.0

        _planting(monkeypatch, plant)
        assert assert_same_outcome(traj)

    def test_on_a_path_that_does_not_move(self, monkeypatch):
        # The loop recorded the path's error, then the derivative bound raised.
        traj = run(desk_scenario("p1_desk", n=300, T=1.0))[0]

        def plant(fan):
            span = slice(fan.starts[4], fan.ends[4])
            fan.column("lam")[span] = 0.0
            fan.column("A")[span] = 1.0

        _planting(monkeypatch, plant)
        assert assert_same_outcome(traj)

    @pytest.mark.parametrize("samples", [1, 2])
    def test_on_short_paths(self, samples, monkeypatch):
        # A lone sample enters no integral, so the loop never checked its A;
        # a path of two entered the derivative bound's.
        traj = run(desk_scenario("p2_desk", n=4))[0]
        hit = []

        def plant(fan):
            for j in range(len(fan)):
                if fan.ends[j] - fan.starts[j] == samples:
                    fan.column("A")[fan.starts[j]:fan.ends[j]] = 0.0
                    hit.append(j)

        _planting(monkeypatch, plant)
        assert assert_same_outcome(traj) == (samples == 2)
        assert hit


def test_cumulative_trapezoid_of_many_paths_is_each_path_alone():
    rng = np.random.default_rng(3)
    counts = np.array([1, 5, 1, 2, 40, 3, 1, 130, 7])
    ends = np.cumsum(counts)
    t = np.concatenate([np.sort(rng.uniform(0.0, 2.0, n)) for n in counts])
    y = rng.normal(size=ends[-1])
    y[ends[4] - 3] = np.nan
    got = cumulative_trapezoid(y, t, ends)
    for lo, hi in zip(ends - counts, ends):
        want = cumulative_trapezoid(y[lo:hi], t[lo:hi])
        assert got[lo:hi].tobytes() == want.tobytes()
        alone = np.zeros(hi - lo)
        alone[1:] = np.cumsum(0.5 * (y[lo + 1:hi] + y[lo:hi - 1]) * np.diff(t[lo:hi]))
        assert want.tobytes() == alone.tobytes()

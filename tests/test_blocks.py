"""The passes over a stored run that work one block of rows at a time give
bitwise the results of the whole-array evaluations they replaced, at every
block size, and the post-pass adds at most the stored bytes to the heap."""
import tracemalloc

import numpy as np
import pytest

from conftest import desk_scenario
from nozzleflow import solver
from nozzleflow.characteristics import launch_fan
from nozzleflow.harness import (characteristic_pass, conservative_residual,
                                derivative_bound_estimate)
from nozzleflow.model import pressure, rho_zw
from nozzleflow.solver import run
from test_characteristics import (assert_same_paths, reference_boundary_fan,
                                  reference_launch_fan)
from test_fan_checks import reference_growth


def whole_array_residual(traj):
    """The conservative residual as it was formed from K x m arrays of the
    whole run: (times, linf_rho, l1_rho, linf_mom, l1_mom)."""
    scn = traj.scenario
    law, m_cols = scn.law, scn.trusted_cells
    a = scn.runtime_arrays["a"][:m_cols]
    z, w, times = traj.z, traj.w, traj.times
    rho = rho_zw(z, w, law)
    v = 0.5 * (w + z)
    m = rho * v
    flux = m * v + pressure(rho, law)
    dx = traj.grid.dx
    res_rho = np.gradient(rho, times, axis=0) + np.gradient(m, dx, axis=1) + a * m
    res_mom = np.gradient(m, times, axis=0) + np.gradient(flux, dx, axis=1) + a * m * v
    window = scn.runtime_arrays["x"][:m_cols] <= scn.x_interest + 1e-12
    window[0] = False
    inner = (slice(1, -1), window)
    rr, rm = res_rho[inner], res_mom[inner]
    return (times[1:-1],
            np.abs(rr).max(axis=1), np.abs(rr).mean(axis=1) * dx * window.sum(),
            np.abs(rm).max(axis=1), np.abs(rm).mean(axis=1) * dx * window.sum())


def whole_array_extremes(traj):
    """The measured extremes as they were taken from the whole-run stacks,
    keyed as ``harness._run_extremes`` keys them."""
    scn = traj.scenario
    m = scn.trusted_cells
    cols = slice(0, m if m == traj.grid.n else m - 1)
    window = scn.runtime_arrays["x"][:m] <= scn.x_interest + 1e-12
    zx = np.gradient(traj.z, traj.grid.dx, axis=1)
    wx = np.gradient(traj.w, traj.grid.dx, axis=1)
    z, w = traj.z[:, window], traj.w[:, window]
    gap = w - z
    return {"zx_lip": float(np.abs(zx[:, cols]).max()),
            "wx_lip": float(np.abs(wx[:, cols]).max()),
            "z": float(np.abs(z).max()), "w": float(np.abs(w).max()),
            "zx": float(np.abs(zx[:, window]).max()),
            "wx": float(np.abs(wx[:, window]).max()),
            "gap_min": float(gap.min()), "gap_max": float(gap.max())}


CASES = {"p1": ("p1_desk", 300), "p2": ("p2_desk", 150), "p3": ("p3_desk", 250)}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """A desk run and its post-pass paths from the scalar whole-array tracer."""
    name, n = CASES[request.param]
    traj = run(desk_scenario(name, n=n))[0]
    paths = []
    for family in (1, 2):
        paths += reference_launch_fan(traj, family)[0]
        if traj.scenario.problem == "P2":
            paths += reference_boundary_fan(traj, family)[0]
    return traj, paths


@pytest.fixture(params=["1", "2", "64", "whole"])
def block(request, case, monkeypatch):
    """Set the block size: 1, 2, 64 rows, or every stored row in one."""
    traj, _ = case
    size = len(traj.times) if request.param == "whole" else int(request.param)
    monkeypatch.setattr(solver, "_BLOCK", size)
    return size


class TestBlockedEqualsWholeArray:
    def test_conservative_residual(self, case, block):
        traj, _ = case
        got = conservative_residual(traj)
        want = whole_array_residual(traj)
        for name, ref in zip(("times", "linf_rho", "l1_rho", "linf_mom", "l1_mom"), want):
            assert np.array_equal(getattr(got, name), ref), name

    def test_paths(self, case, block):
        traj, paths = case
        got = launch_fan(traj, (1, 2), boundary=traj.scenario.problem == "P2")
        assert_same_paths(got, paths)

    def test_lip_and_derivative_bounds(self, case, block):
        traj, paths = case
        post = characteristic_pass(traj)
        extremes = whole_array_extremes(traj)
        assert np.array_equal(post["lip"], max(extremes["zx_lip"], extremes["wx_lip"]))
        want = derivative_bound_estimate(traj, reference_growth(paths), extremes)
        assert post["derivative_bounds"].keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(post["derivative_bounds"][key], value), key


def test_post_pass_adds_at_most_the_stored_bytes():
    # The whole-array post-pass added 5-6x the stored z and w here.  What
    # stays is the paths' own samples, 14 arrays per sample (0.45x here,
    # 0.77x at n = 600), the positions of the tracer and a few blocks.
    traj = run(desk_scenario("p2_desk", n=1000))[0]
    stored = traj.z.nbytes + traj.w.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        characteristic_pass(traj)
        conservative_residual(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= stored

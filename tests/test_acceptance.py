"""Acceptance suite: every release criterion at desk scale, one line each."""
import json
import math
import time

import numpy as np
import pytest

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (CONFIG_DIR, desk_scenario, field_dt, region_l,
                      riemann_from_rho_v, uniform_scenario)
from test_region import oracle_constants
from test_riccati import random_states, reference_coeffs

from nozzleflow import solver
from nozzleflow.characteristics import bound_check, launch_fan, riccati_residual
from nozzleflow.harness import (characteristic_pass, conservative_residual,
                                load_trajectory, run_scenario)
from nozzleflow.model import GasLaw, rho_zw
from nozzleflow.region import (check_hypothesis, critical_constants, RegionSpec,
                               zero_profile)
from nozzleflow.riccati import coeffs_zw
from nozzleflow.solver import run, step

DESK = ("p1_desk", "p2_desk", "p3_desk")
SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Desk runs at the pinned resolution, with all artifacts."""
    out = {}
    for name in DESK:
        dest = tmp_path_factory.mktemp(name)
        started = time.perf_counter()
        code = run_scenario(CONFIG_DIR / f"{name}.cfg", dest)
        elapsed = time.perf_counter() - started
        report = json.loads((dest / "report.json").read_text())
        out[name] = {"dir": dest, "code": code, "report": report,
                     "elapsed": elapsed}
    return out


@pytest.fixture(scope="module")
def half_runs():
    """The same scenarios at half resolution (for refinement studies)."""
    out = {}
    for name in DESK:
        scn = desk_scenario(name, n=desk_scenario(name).n // 2)
        traj, _ = run(scn)
        out[name] = traj
    return out


def test_criterion_1_critical_constants():
    started = time.perf_counter()
    law = GasLaw.from_gamma("5/3")
    got = critical_constants(law)
    assert abs(got.l - (4.0 + 2.0 * SQRT3)) < 1e-8
    assert abs(got.sigma1 - (3.0 * SQRT3 - 4.0)) < 1e-8
    assert abs(got.sigma2 - SQRT3) < 1e-8
    rng = np.random.default_rng(1234)
    worst = 0.0
    for gamma in 1.0 + rng.uniform(1e-3, 2.0 / 3.0 - 1e-4, size=20):
        glaw = GasLaw.from_gamma(float(gamma))
        found = critical_constants(glaw)
        l_ref, s1_ref, s2_ref = oracle_constants(glaw, grid=400_000)
        worst = max(worst, abs(found.l - l_ref) / l_ref,
                    abs(found.sigma1 - s1_ref) / s1_ref,
                    abs(found.sigma2 - s2_ref) / s2_ref)
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS - constants match closed forms and grid "
          f"oracle (worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_hypothesis_certificates():
    started = time.perf_counter()
    law = GasLaw.from_gamma("5/3")
    consts = critical_constants(law)

    def spec(kind, L1, L2, U1, U2):
        return RegionSpec(kind, L1, L2, U1, U2, profile=None, I_total=0.005)

    cases = [
        (spec("m", 1.02, 0.9, 1.0, 1.1), None),
        (spec("m", 1.0, 0.9, 1.0, 1.1), "U1*exp(2I) <= L1"),
        (spec("r", 1.0, 1.2, 1.05, 1.25), None),
        (spec("r", 1.0, 1.05, 1.05, 1.25), "U1*exp(2I) < L2"),
        (spec("l", 1.02, 0.9, 1.0, 0.88), None),
        (spec("l", 1.02, 0.9, 1.0, 0.95), "U2*exp(2I) <= L2"),
    ]
    for region, expect_fail in cases:
        cert = check_hypothesis(region, law, consts)
        if expect_fail is None:
            assert cert.passed, cert.render_text()
        else:
            assert cert.failing() == [expect_fail], cert.render_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - worked certificate sets and single-"
          f"inequality perturbations behave exactly ({elapsed:.2f}s)")


def test_criterion_3_round_trips_and_swap_symmetry():
    rng = np.random.default_rng(77)
    worst_rt = 0.0
    for gamma in ("5/3", 1.4, 1.12, 1.55):
        law = GasLaw.from_gamma(gamma)
        rho = 10.0 ** rng.uniform(-6, 3, size=2500)
        v = rng.uniform(-10, 10, size=2500)
        z, w = riemann_from_rho_v(rho, v, law)
        rho_back, v_back = rho_zw(z, w, law), 0.5 * (w + z)
        worst_rt = max(worst_rt, float((np.abs(rho_back - rho) / rho).max()),
                       float((np.abs(v_back - v) / np.maximum(1.0, np.abs(v))).max()))
    assert worst_rt < 1e-12

    worst_swap = 0.0
    for gamma in ("5/3", 1.4):
        law = GasLaw.from_gamma(gamma)
        z, w, a, ax = random_states(np.random.default_rng(78), 1000)
        _, B, C, _, Bh, Ch = coeffs_zw(z, w, a, ax, law)
        refA, refB, refC, _, refBh, refCh = reference_coeffs(z, w, a, ax, law)
        scale = np.maximum(1e-30, np.abs(refBh))
        worst_swap = max(worst_swap, float((np.abs(Bh - refBh) / scale).max()))
        scale = np.maximum(1e-30, np.abs(refCh))
        worst_swap = max(worst_swap, float((np.abs(Ch - refCh) / scale).max()))
    assert worst_swap < 1e-12
    print(f"\nACCEPTANCE 3: PASS - 1e4 round trips (worst {worst_rt:.2e}) and "
          f"swap symmetry on 1e3 states per branch (worst {worst_swap:.2e})")


def test_criterion_4_constant_preservation(law53):
    drift = 0.0
    for order in (1, 2):
        scn = uniform_scenario("P3", -3.6, -2.6, region_l(), law53,
                               order=order, n=64, T=1e9)
        fld = scn.initial_field()
        for _ in range(1000):
            fld = step(fld, field_dt(fld, law53, 0.9), scn)
        drift = max(drift, float(np.abs(fld.z + 3.6).max()),
                    float(np.abs(fld.w + 2.6).max()))
    assert drift <= 1e-11
    print(f"\nACCEPTANCE 4: PASS - uniform state preserved over 1e3 steps, "
          f"both orders (max drift {drift:.2e})")


def test_criterion_5_invariant_regions(full_runs):
    details = []
    for name in DESK:
        entry = full_runs[name]
        report = entry["report"]
        assert entry["code"] == 0, f"{name} exited {entry['code']}"
        flags = report["monitors"]["flags"]
        assert flags["containment"], name
        assert flags["vacuum"], name
        assert flags["finite"], name
        assert report["runtime_seconds"] < 60.0, name
        worst = min(report["monitors"]["min_margin_per_face"].values())
        details.append(f"{name} margins>={worst:.3g} "
                       f"{report['runtime_seconds']:.0f}s")
    print(f"\nACCEPTANCE 5: PASS - containment and vacuum gap hold on all "
          f"desk runs ({'; '.join(details)})")


def test_criterion_6_transport_identity_convergence(full_runs, half_runs):
    details = []
    for name in DESK:
        full_traj = load_trajectory(full_runs[name]["dir"] / "trajectory.npz")
        for family in (1, 2):
            fine = [riccati_residual(p).max_norm
                    for p in launch_fan(full_traj, family) if p.n >= 3]
            coarse = [riccati_residual(p).max_norm
                      for p in launch_fan(half_runs[name], family) if p.n >= 3]
            assert len(fine) >= 20 and len(coarse) >= 20
            order = math.log2(max(coarse) / max(fine))
            assert order >= 0.8, f"{name} family {family}: order {order:.2f}"
            details.append(f"{name}/f{family}:{order:.2f}")
    print(f"\nACCEPTANCE 6: PASS - transport-identity residual refinement "
          f"orders {', '.join(details)}")


def test_criterion_7_derivative_bounds(full_runs):
    report = full_runs["p1_desk"]["report"]
    ch = report["characteristics"]
    for family in ("1", "2"):
        assert ch["families"][family]["bounds_ok"], family
    db = ch["derivative_bounds"]
    assert db["ok"]
    assert db["zx_measured"] <= db["zx_implied"] + db["tolerance"]
    assert db["wx_measured"] <= db["wx_implied"] + db["tolerance"]

    traj = load_trajectory(full_runs["p1_desk"]["dir"] / "trajectory.npz")
    scn = traj.scenario
    tol = ch["tolerance"]
    weak_min = math.inf
    for family in (1, 2):
        for path in launch_fan(traj, family):
            if path.n < 3:
                continue
            br = bound_check(path, scn.delta1, scn.profile.M / 100.0,
                             scn.profile.alpha)
            weak_min = min(weak_min, float(br.sub_margin.min()))
    assert weak_min < -tol, f"barrier inequality survived weak decay ({weak_min:.3g})"
    print(f"\nACCEPTANCE 7: PASS - bounds hold within tolerance "
          f"(|z_x| {db['zx_measured']:.3f} <= {db['zx_implied']:.3f}); "
          f"barrier inequality fails at M/100 (margin {weak_min:.2e})")


def test_criterion_8_conservative_cross_check(full_runs, half_runs, monkeypatch):
    details = []
    for name in DESK:
        full_traj = load_trajectory(full_runs[name]["dir"] / "trajectory.npz")
        fine = conservative_residual(full_traj).max_linf
        coarse = conservative_residual(half_runs[name]).max_linf
        order = math.log2(coarse / fine)
        assert order >= 0.8, f"{name}: conservative order {order:.2f}"
        details.append(f"{name}:{order:.2f}")

    healthy = conservative_residual(run(desk_scenario("p3_desk", n=200,
                                                      T=0.5))[0]).max_linf

    def flipped(gap, total, coef):
        s = coef * gap * total
        return s, s

    monkeypatch.setattr(solver, "source_pair", flipped)
    mutated = conservative_residual(run(desk_scenario("p3_desk", n=200,
                                                      T=0.5))[0]).max_linf
    monkeypatch.undo()
    assert mutated > 20.0 * healthy
    print(f"\nACCEPTANCE 8: PASS - conservative-form residual orders "
          f"{', '.join(details)}; planted source mutation amplifies the "
          f"residual {mutated / healthy:.0f}x")


def test_criterion_9_determinism(full_runs, tmp_path):
    first = (full_runs["p1_desk"]["dir"] / "fields.csv").read_bytes()
    code = run_scenario(CONFIG_DIR / "p1_desk.cfg", tmp_path / "rerun")
    assert code == 0
    second = (tmp_path / "rerun" / "fields.csv").read_bytes()
    assert first == second
    print(f"\nACCEPTANCE 9: PASS - repeated desk run reproduces fields.csv "
          f"byte for byte ({len(first)} bytes)")

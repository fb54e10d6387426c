import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from nozzleflow.config import load_config, parse_config_text
from nozzleflow.model import GasLaw, speeds_zw
from nozzleflow.region import NozzleProfile, RegionSpec, zero_profile
from nozzleflow.errors import DomainError
from nozzleflow.solver import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def law53():
    return GasLaw.from_gamma("5/3")


@pytest.fixture(scope="session")
def law14():
    return GasLaw.from_gamma(1.4)


def riemann_from_rho_v(rho, v, law):
    """Forward map (rho, v) -> (z, w) = v -+ rho**theta/theta, for rho > 0.

    Nothing in the package needs this direction; it is the reference the
    round-trip tests check ``model.rho_zw`` and v = (w + z)/2 against."""
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    c = rho ** law.theta / law.theta
    return v - c, v + c


def field_dt(fld, law, cfl, t_end=None):
    """The stable step of ``fld`` measured on its own cell speeds, no longer
    than the time left to ``t_end``: the step ``solver.run`` took before it
    took the certified one of ``Scenario.dt``, kept for stepping a field by
    hand."""
    lam = np.array(speeds_zw(fld.z, fld.w, law))
    vmax = float(max(np.abs(lam).max(axis=-1)))
    if vmax <= 1e-300:
        raise DomainError("all characteristic speeds vanish (uniform vacuum)")
    dt = cfl * fld.grid.dx / vmax
    if t_end is not None:
        dt = min(dt, t_end - fld.t)
    return dt


def desk_scenario(name, **overrides):
    """Desk scenario from the shipped config, optionally shrunk for speed."""
    scn = load_config(CONFIG_DIR / f"{name}.cfg").to_scenario()
    if overrides:
        scn = dataclasses.replace(scn, **overrides)
    return scn


def desk_config_text(name, substitutions=None):
    text = (CONFIG_DIR / f"{name}.cfg").read_text()
    for old, new in (substitutions or {}).items():
        assert old in text, f"substitution target {old!r} not in {name}"
        text = text.replace(old, new)
    return text


def small_config(name, tmp_path, substitutions=None, filename=None):
    """Write a (possibly modified) desk config into tmp_path and return it."""
    text = desk_config_text(name, substitutions)
    path = tmp_path / (filename or f"{name}.cfg")
    path.write_text(text)
    return path


def older_steps(traj):
    """The ``dts`` entry of the files that older writers stored beside the
    arrays of ``traj``: 0, then the run's step at each later snapshot."""
    dts = np.full(len(traj.times), traj.scenario.dt)
    dts[0] = 0.0
    return dts


def older_edges(traj):
    """The ``z_edge``, ``w_edge`` entries of the files that older writers
    stored beside the arrays of ``traj``: the state at x = 0 of each
    snapshot, the boundary data on P2, else extrapolated from the first two
    cells, with w = -z at the P1 wall."""
    scn = traj.scenario
    if scn.problem == "P2":
        return tuple(np.array([float(fn(t)) for t in traj.times.tolist()])
                     for fn in (scn.zB, scn.wB))
    z_edge = 1.5 * traj.z[:, 0] - 0.5 * traj.z[:, 1]
    if scn.problem == "P1":
        return z_edge, -z_edge
    return z_edge, 1.5 * traj.w[:, 0] - 0.5 * traj.w[:, 1]


def thinned_run_file(tmp_path, stride=2):
    """A small stored p1 run that keeps only every ``stride``-th snapshot,
    as a run with a snapshot stride was written (with its ``dts`` and edge
    traces); returns its path."""
    cfg = small_config("p1_desk", tmp_path, {"n = 2000": "n = 100", "T = 5.0": "T = 0.5"})
    traj, _ = run(load_config(cfg).to_scenario())
    meta = {"config_text": traj.scenario.config_text, "blown_up": False}
    path = tmp_path / "thinned.npz"
    arrays = dict(zip(("times", "z", "w", "z_edge", "w_edge"),
                      (traj.times, traj.z, traj.w, *older_edges(traj))))
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), dts=older_steps(traj)[::stride],
                        **{name: arr[::stride] for name, arr in arrays.items()})
    return path


def constant_profile(value, law, I_total=0.0, **kw):
    """Profile with constant duct coefficient (for isolated solver tests)."""
    l_margin = abs(value) * 1.1 + 1e-12

    def a(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def abar(x):
        return np.full_like(np.asarray(x, dtype=float), l_margin)

    kw.setdefault("k1", max(value * value, 1e-12))
    kw.setdefault("k2", 1.0)
    kw.setdefault("alpha", 1.0)
    kw.setdefault("M", 1.0)
    return NozzleProfile(a, zero, abar, I_total=I_total, **kw)


def uniform_scenario(problem, z_val, w_val, spec, law, profile=None, **kw):
    """Scenario with spatially uniform data (boundary data matching for P2)."""
    from nozzleflow.solver import Scenario

    profile = profile or zero_profile()

    def const(v):
        return lambda arg: np.full_like(np.asarray(arg, dtype=float), v)

    kw.setdefault("T", 1.0)
    kw.setdefault("n", 64)
    kw.setdefault("x_interest", 1.0)
    if problem == "P2":
        kw.setdefault("zB", const(z_val))
        kw.setdefault("wB", const(w_val))
    return Scenario(problem=problem, law=law, profile=profile, region=spec,
                    z0=const(z_val), w0=const(w_val), **kw)


#: Admissible envelope-constant sets used across tests (all at gamma = 5/3).
SPEC_M = dict(kind="m", L1=3.2, L2=2.8, U1=2.8, U2=3.2)
SPEC_L = dict(kind="l", L1=3.65, L2=2.65, U1=3.55, U2=2.55)


def region_m(profile=None, I=0.0):
    return RegionSpec(profile=profile, I_total=None if profile else I, **SPEC_M)


def region_l(profile=None, I=0.0):
    return RegionSpec(profile=profile, I_total=None if profile else I, **SPEC_L)

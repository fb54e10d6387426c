"""Pre-run certification, runtime monitors, independent cross-checks and
artifact emission for scenario runs.

``run_scenario`` certifies a scenario, runs it, and then evaluates the
monitors on the stored run (``monitor_report``).  A run that blows up, or
whose wall turns sonic, ends in exit 4 and saves its partial trajectory;
else a vacuum state ends it in exit 3; else the characteristic post-pass
and the conservative residual follow.  Both early ends write the monitor
report and skip the post-pass.

Exit codes: 0 clean, 2 certification failed, 3 a runtime monitor or bound
check failed, 4 numerical blow-up; the CLI adds 64 (usage), 65 (bad config
or trajectory file), 66 (cannot open input) and 73 (cannot create the output
directory).
"""
from __future__ import annotations

import json
import math
import sys
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import characteristics as chars
from .config import load_config, parse_config_text
from .errors import ConfigError, OutputError, RunAbortedError, TrajectoryFileError
from .model import VACUUM_GAP, pressure, rho_zw, speeds_zw
from .region import (EXACT, Certificate, check_h1, check_hypothesis,
                     critical_constants, envelopes, face_margins,
                     membership_margins, worst_item)
from .riccati import (check_compatibility, check_data_conditions,
                      _one_sided_derivative, phi_psi_zw)
from .solver import _STORED, STORED_BYTES_MAX, Scenario, Trajectory, blocks, run

EXIT_OK = 0
EXIT_CERT = 2
EXIT_MONITOR = 3
EXIT_BLOWUP = 4
EXIT_USAGE = 64
EXIT_DATAERR = 65
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73

_FACES = ("z_lo", "z_hi", "w_lo", "w_hi", "gap")

#: Runtime tolerances are this factor times the scheme-error estimate.
MARGIN_TOL_FACTOR = 5.0

#: Equispaced certificate samples on [0, x_max] and of P2 boundary data on [0, T].
CERT_SAMPLES = 2048


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

@dataclass
class CertBundle:
    certificates: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    @property
    def conditional(self) -> bool:
        return any(c.conditional for c in self.certificates)

    def render_text(self) -> str:
        parts = [c.render_text() for c in self.certificates]
        verdict = "PASS" if self.passed else "FAIL"
        parts.append(f"bundle: {verdict}" + (" (conditional)" if self.conditional else ""))
        return "\n\n".join(parts)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditional": self.conditional,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def _membership_certificate(name, z, w, s, spec, where, where_label):
    margins = membership_margins(z, w, s, spec)
    return Certificate(name, [worst_item(f"margin {face} >= 0", 0.0, margins[face],
                                         EXACT, where, note=f"worst {where_label}")
                              for face in _FACES])


def certify(scn: Scenario) -> CertBundle:
    """Decay certificate, admissibility certificate, initial (and boundary)
    membership, data conditions and compatibility for one scenario."""
    # Data past the float range (1 + M*x overflowing, or 1e-300/x at
    # x = 0) sample as inf or nan, for the certificates to refuse
    # without a warning.
    with np.errstate(all="ignore"):
        grid = scn.grid
        x = np.unique(np.concatenate([
            grid.cells(), np.linspace(0.0, grid.x_max, CERT_SAMPLES)]))
        consts = critical_constants(scn.law)
        certs = [check_h1(scn.profile, x), check_hypothesis(scn.region, scn.law, consts, x)]

        z0 = np.asarray(scn.z0(x), dtype=float)
        w0 = np.asarray(scn.w0(x), dtype=float)
        s = scn.majorant_integral(x)
        certs.append(_membership_certificate("initial-membership", z0, w0, s,
                                             scn.region, x, "x"))

        boundary = rates = None
        if scn.problem == "P2":
            # At T = 0 the boundary is one instant, with one-sided rates.
            t = np.linspace(0.0, scn.T, CERT_SAMPLES if scn.T > 0.0 else 1)
            zB = np.asarray(scn.zB(t), dtype=float)
            wB = np.asarray(scn.wB(t), dtype=float)
            certs.append(_membership_certificate("boundary-membership", zB, wB,
                                                 np.zeros_like(t), scn.region, t, "t"))
            boundary = (t, zB, wB, float(scn.profile.a(0.0)))
            if scn.T == 0.0:
                rates = tuple(np.array([_one_sided_derivative(fn)]) for fn in (scn.zB, scn.wB))

        certs.append(check_data_conditions(
            scn.problem, x, z0, w0, np.asarray(scn.profile.a(x), dtype=float),
            scn.delta1, scn.delta2, scn.profile.M, scn.profile.alpha, scn.law,
            boundary=boundary, boundary_rates=rates))
        certs.append(check_compatibility(
            scn.problem, scn.z0, scn.w0, scn.zB, scn.wB,
            float(scn.profile.a(0.0)), scn.law))
    return CertBundle(certs)


# ---------------------------------------------------------------------------
# runtime monitors
# ---------------------------------------------------------------------------

@dataclass
class MonitorReport:
    times: np.ndarray
    min_margins: dict
    margin_argmin: dict
    max_abs_zx: np.ndarray
    max_abs_wx: np.ndarray
    max_abs_zt: np.ndarray
    max_abs_wt: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    psi_min: np.ndarray
    psi_max: np.ndarray
    lip_estimate: float
    margin_tol: float
    C3: float
    containment_ok_raw: bool
    containment_ok: bool
    vacuum_ok: bool
    finite_ok: bool
    first_violation: dict | None

    @classmethod
    def from_series(cls, scn: Scenario, series: dict, finite_ok: bool) -> "MonitorReport":
        """The report of the per-step ``series`` of a run of ``scn``: 1-D
        arrays by name (``t``, ``zx``, ``wx``, ``zt``, ``wt``, ``phi_min``,
        ``phi_max``, ``psi_min``, ``psi_max``), and the window cell and
        value of each face's least margin as dicts by face (``argmin``,
        ``margin``).  The ``gap`` face's margin is w - z itself, so its
        least margin is the step's least gap."""
        times, margins = series["t"], series["margin"]
        # Causal tolerance: each step is judged with the Lipschitz estimate
        # accumulated so far, so bad data cannot launder its own violation by
        # inflating the later estimate.
        lip_series = np.maximum.accumulate(np.maximum(series["zx"], series["wx"]))
        lip = float(lip_series[-1]) if lip_series.size else 0.0
        tol_series = MARGIN_TOL_FACTOR * scn.grid.dx * lip_series
        tol = MARGIN_TOL_FACTOR * scn.grid.dx * lip
        C3 = scn.speed_bounds.C3
        worst_val, first = math.inf, None
        for face in _FACES:
            vals = margins[face]
            bad = np.nonzero(vals < -tol_series)[0]
            if bad.size and (first is None or bad[0] < first["step"]):
                k = int(bad[0])
                first = {"step": k, "t": float(times[k]), "face": face,
                         "cell": int(series["argmin"][face][k]),
                         "margin": float(vals[k]),
                         "inequality": f"margin {face} >= -tol"}
            worst_val = min(worst_val, float(vals.min()))
        gap_min = float(margins["gap"].min())
        return cls(
            times=times, min_margins=margins, margin_argmin=series["argmin"],
            max_abs_zx=series["zx"], max_abs_wx=series["wx"],
            max_abs_zt=series["zt"], max_abs_wt=series["wt"],
            phi_min=series["phi_min"], phi_max=series["phi_max"],
            psi_min=series["psi_min"], psi_max=series["psi_max"],
            lip_estimate=lip, margin_tol=tol, C3=C3,
            containment_ok_raw=worst_val >= 0.0, containment_ok=first is None,
            vacuum_ok=gap_min >= C3 - tol and gap_min >= VACUUM_GAP,
            finite_ok=finite_ok, first_violation=first)

    @property
    def min_gap(self) -> np.ndarray:
        """The least w - z of each step in the window."""
        return self.min_margins["gap"]

    @property
    def reached_vacuum(self) -> bool:
        """A step's w - z fell below the vacuum gap somewhere in the window."""
        return bool(self.min_gap.min() < VACUUM_GAP)

    @property
    def ok(self) -> bool:
        return self.containment_ok and self.vacuum_ok and self.finite_ok

    def to_dict(self) -> dict:
        def arr(a):
            return np.asarray(a).tolist()

        return {
            "steps": int(len(self.times) - 1),
            "lip_estimate": self.lip_estimate,
            "margin_tol": self.margin_tol,
            "C3": self.C3,
            "min_margin_per_face": {k: float(np.min(v)) for k, v in self.min_margins.items()},
            "min_gap": float(np.min(self.min_gap)),
            "max_abs_zx": float(np.max(self.max_abs_zx)),
            "max_abs_wx": float(np.max(self.max_abs_wx)),
            "max_abs_zt": float(np.max(self.max_abs_zt)) if len(self.max_abs_zt) else 0.0,
            "max_abs_wt": float(np.max(self.max_abs_wt)) if len(self.max_abs_wt) else 0.0,
            "phi_range": [float(np.min(self.phi_min)), float(np.max(self.phi_max))],
            "psi_range": [float(np.min(self.psi_min)), float(np.max(self.psi_max))],
            "flags": {
                "containment_raw": self.containment_ok_raw,
                "containment": self.containment_ok,
                "vacuum": self.vacuum_ok,
                "finite": self.finite_ok,
                "ok": self.ok,
            },
            "first_violation": self.first_violation,
            # One entry per step; the steps' times are the run's, and the
            # gap face's least margin is the least gap.
            "series": {("min_gap" if k == "gap" else f"min_margin_{k}"): arr(v)
                       for k, v in self.min_margins.items()},
        }


def monitor_report(traj: Trajectory) -> MonitorReport:
    """Runtime monitors of a stored run, one series entry per step:
    containment margins over the reporting window, vacuum gap, derivative
    extremes, functional extremes.

    The steps are evaluated a block at a time (``solver.blocks``), as
    (step, cell) views of ``traj.z`` and ``traj.w``; the time rates compare
    each step with the row before it.  Each cell takes exactly the
    elementwise operations of a step-by-step evaluation, and every reduction
    is a min, max or argmin along the cells of one step, so every series,
    argmin cell and flag is bitwise the per-step result.  The evaluation ends with the first block
    that holds a vacuum state, whose Phi and Psi are left out: the vacuum
    fails the ``vacuum`` flag (``MonitorReport.reached_vacuum``)."""
    scn = traj.scenario
    arrays, cells = scn.runtime_arrays, scn.window_cells
    # The central gradient at the window's last cell reads the next one.
    cols = min(cells + 1, traj.z.shape[1])
    faces = envelopes(scn.region, scn.majorant_integral(arrays["x"][:cells]))
    a_win, dx, dt = arrays["a"][:cells], scn.grid.dx, scn.dt
    parts = {key: [] for key in ("zx", "wx", "zt", "wt", "phi_min", "phi_max",
                                 "psi_min", "psi_max")}
    margin = {face: [] for face in _FACES}
    argmin = {face: [] for face in _FACES}
    finite_ok = True
    for lo, hi in blocks(0, len(traj.times)):
        zc, wc = traj.z[lo:hi, :cols], traj.w[lo:hi, :cols]
        z, w = zc[:, :cells], wc[:, :cells]
        finite_ok = finite_ok and bool(np.all(np.isfinite(z)) and np.all(np.isfinite(w)))
        margins = face_margins(z, w, faces)
        rows = np.arange(hi - lo)
        for face in _FACES:
            i = np.argmin(margins[face], axis=1)
            margin[face].append(margins[face][rows, i])
            argmin[face].append(i)
        zx = np.gradient(zc, dx, axis=1)[:, :cells]
        wx = np.gradient(wc, dx, axis=1)[:, :cells]
        parts["zx"].append(np.abs(zx).max(axis=1))
        parts["wx"].append(np.abs(wx).max(axis=1))
        k = max(lo, 1)
        for name, u in (("zt", traj.z), ("wt", traj.w)):
            change = np.abs(u[k:hi, :cells] - u[k - 1:hi - 1, :cells]).max(axis=1)
            parts[name].append(change / dt)
        vacuum = np.flatnonzero((margins["gap"] < VACUUM_GAP).any(axis=1))
        sound = int(vacuum[0]) if vacuum.size else hi - lo
        phi, psi = phi_psi_zw(z[:sound], w[:sound], zx[:sound], wx[:sound], a_win, scn.law)
        parts["phi_min"].append(phi.min(axis=1))
        parts["phi_max"].append(phi.max(axis=1))
        parts["psi_min"].append(psi.min(axis=1))
        parts["psi_max"].append(psi.max(axis=1))
        if vacuum.size:
            break
    series = {key: np.concatenate(vals) for key, vals in parts.items()}
    series["margin"] = {face: np.concatenate(vals) for face, vals in margin.items()}
    series["argmin"] = {face: np.concatenate(vals) for face, vals in argmin.items()}
    series["t"] = traj.times[:hi]
    return MonitorReport.from_series(scn, series, finite_ok)


# ---------------------------------------------------------------------------
# independent conservative-form residual
# ---------------------------------------------------------------------------

@dataclass
class ConservativeResidual:
    times: np.ndarray
    linf_rho: np.ndarray
    l1_rho: np.ndarray
    linf_mom: np.ndarray
    l1_mom: np.ndarray

    @property
    def max_linf(self) -> float:
        vals = [a.max() for a in (self.linf_rho, self.linf_mom) if a.size]
        return float(max(vals)) if vals else 0.0

    def to_dict(self) -> dict:
        return {
            "max_linf": self.max_linf,
            "max_linf_rho": float(self.linf_rho.max()) if self.linf_rho.size else 0.0,
            "max_linf_mom": float(self.linf_mom.max()) if self.linf_mom.size else 0.0,
            "mean_l1_rho": float(self.l1_rho.mean()) if self.l1_rho.size else 0.0,
            "mean_l1_mom": float(self.l1_mom.mean()) if self.l1_mom.size else 0.0,
        }


def _time_rate(times):
    """The interior rows of ``np.gradient(f, times, axis=0)`` as a function
    ``rate(f, lo, hi)`` of the rows ``lo - 1`` to ``hi`` of f, giving rows
    ``lo`` to ``hi - 1``.  np.gradient picks its formula from the spacing of
    all of ``times`` (uniform or not); ``rate`` picks it the same way, so a
    block's rows are bitwise the whole array's."""
    h = np.diff(times)
    if (h == h[0]).all():
        two_h = 2.0 * h[0]
        return lambda f, lo, hi: (f[2:] - f[:-2]) / two_h
    h1, h2 = h[:-1, None], h[1:, None]
    a = -(h2) / (h1 * (h1 + h2))
    b = (h2 - h1) / (h1 * h2)
    c = h1 / (h2 * (h1 + h2))
    return lambda f, lo, hi: (a[lo - 1:hi - 1] * f[:-2] + b[lo - 1:hi - 1] * f[1:-1]
                              + c[lo - 1:hi - 1] * f[2:])


def conservative_residual(traj: Trajectory) -> ConservativeResidual:
    """Centered finite-difference residuals of the conservative system formed
    from the stored diagonal fields: an independent check that the evolved
    fields solve the original balance laws.

    The residual is reported over the window less its wall cell (whose
    x-difference is one-sided), at the interior times, so each block of
    stored rows reads one row more on each side and the window plus one
    column (the central difference at its last cell)."""
    scn = traj.scenario
    law = scn.law
    times = traj.times
    if len(times) < 3:
        return ConservativeResidual(times, *(np.zeros(0),) * 4)
    cells = scn.window_cells
    cols = min(cells + 1, traj.z.shape[1])
    a = scn.runtime_arrays["a"][:cols]
    dx = traj.grid.dx
    rate = _time_rate(times)
    series = {key: [] for key in ("linf_rho", "l1_rho", "linf_mom", "l1_mom")}
    for lo, hi in blocks(1, len(times) - 1):
        z, w = traj.z[lo - 1:hi + 1, :cols], traj.w[lo - 1:hi + 1, :cols]
        rho = rho_zw(z, w, law)
        v = 0.5 * (w + z)
        m = rho * v
        flux = m * v + pressure(rho, law)
        mid, v_mid = m[1:-1], v[1:-1]
        res_rho = rate(rho, lo, hi) + np.gradient(mid, dx, axis=1) + a * mid
        res_mom = rate(m, lo, hi) + np.gradient(flux[1:-1], dx, axis=1) + a * mid * v_mid
        for name, res in (("rho", res_rho), ("mom", res_mom)):
            err = np.abs(res[:, 1:cells])
            series["linf_" + name].append(err.max(axis=1))
            # The mean of a row is its running sum over the cells, the order
            # in which the whole-array evaluation summed them (its window was
            # a column-major selection), so a block's means are bitwise its.
            mean = np.cumsum(err, axis=1)[:, -1] / (cells - 1)
            series["l1_" + name].append(mean * dx * (cells - 1))
    return ConservativeResidual(times[1:-1], *(np.concatenate(series[key]) for key in series))


# ---------------------------------------------------------------------------
# characteristic post-pass
# ---------------------------------------------------------------------------

def characteristic_pass(traj: Trajectory) -> dict:
    """Trace the launch fans of both families (on P2 with the boundary fans)
    in one batch, evaluate the transport-identity residuals and the three
    derivative-bound margins of every path at once (``chars.fan_checks``),
    and compare the measured derivative extremes against the bound the
    functionals imply.  A family fails if a path it launched has fewer than
    ``chars.MIN_SAMPLES`` samples (``checked`` counts the others)."""
    scn = traj.scenario
    extremes = _run_extremes(traj)
    lip = max(extremes["zx_lip"], extremes["wx_lip"])
    tol_base = MARGIN_TOL_FACTOR * traj.grid.dx * lip
    result = {"tolerance": tol_base, "lip": lip, "families": {}, "paths": []}
    traced = chars.launch_fan(traj, (1, 2), boundary=scn.problem == "P2")
    checks = chars.fan_checks(traced, scn.delta1, scn.profile.M, scn.profile.alpha)
    # Each path's least margin of its signed speed over its family's bound d.
    bounds = scn.speed_bounds
    first = np.repeat([path.family == 1 for path in traced], traced.ends - traced.starts)
    speed = np.minimum.reduceat(np.where(first, bounds.sign1, bounds.sign2) * traced.column("lam")
                                - np.where(first, bounds.d1, bounds.d2), traced.starts)
    error = checks.pop("error")
    per_path = {key: values.tolist() for key, values in checks.items()}
    per_path["speed"] = speed.tolist()
    for family in (1, 2):
        members = [j for j, path in enumerate(traced) if path.family == family]
        max_res, max_alt, speed_margin, records = 0.0, None, math.inf, []
        minima = dict.fromkeys(("lower", "upper", "subsolution"), math.inf)
        for j in members:
            path = traced[j]
            where = {"family": family, "x0": path.x0, "t0": path.t0,
                     "samples": path.n, "exit": path.exit_reason}
            if error[j] is not None:
                records.append(dict(where, error=error[j], ok=False))
                continue
            residual = per_path["residual_max"][j]
            max_res = max(max_res, residual)
            if family == 2:
                max_alt = max(max_alt or 0.0, per_path["residual_max_alt"][j])
            margins = [per_path[key][j] for key in ("min_lower", "min_upper", "min_sub")]
            for key, margin in zip(minima, margins):
                minima[key] = min(minima[key], margin)
            speed_margin = min(speed_margin, per_path["speed"][j])
            # The integral bound accumulates the same discretization drift the
            # transport residual measures, so the per-path error estimate adds
            # the residual's time integral to the field-level estimate.
            path_tol = tol_base + MARGIN_TOL_FACTOR * per_path["drift"][j]
            records.append(dict(
                where, residual_max=residual, tolerance=path_tol,
                min_lower=margins[0], min_upper=margins[1], min_sub=margins[2],
                ok=all(margin >= -path_tol for margin in margins)))
        result["paths"] += records
        paths = [traced[j] for j in members]
        exits = {reason: sum(path.exit_reason == reason for path in paths)
                 for reason in ("end", "left", "cone")}
        result["families"][str(family)] = {
            "paths": len(paths), "exits": exits,
            "checked": sum(path.n >= chars.MIN_SAMPLES for path in paths),
            "samples": sum(path.n for path in paths),
            "residual_max": max_res,
            "residual_max_alt_reading": max_alt,
            "min_margins": {k: (None if math.isinf(v) else v) for k, v in minima.items()},
            "speed_margin": None if math.isinf(speed_margin) else speed_margin,
            "bounds_ok": all(record["ok"] for record in records),
        }
    # A path's bound rises at most by its largest |growth|; Python's max
    # passes over a NaN, as the per-path loop it replaced did.
    growth = max([0.0, *per_path["growth"]])
    result["derivative_bounds"] = implied = derivative_bound_estimate(traj, growth, extremes)
    result["ok"] = implied["ok"] and all(
        stats["bounds_ok"] for stats in result["families"].values())
    return result


def _run_extremes(traj: Trajectory) -> dict:
    """Extremes of the stored run, taken a block of rows at a time (a max or
    min of block maxima or minima is exact): ``zx_lip`` and ``wx_lip``, the
    largest |z_x| and |w_x| over each row's stored width
    (``Scenario.stored_widths``) less its last column, whose gradient reads
    the fill past it, unless the row holds the whole grid; and over the
    window the largest |z|, |w|, |z_x| and |w_x| and the least and largest
    w - z."""
    scn = traj.scenario
    cols = scn.stored_widths - (scn.stored_widths < traj.grid.n)
    cells = scn.window_cells
    parts = {key: [] for key in ("zx_lip", "wx_lip", "z", "w", "zx", "wx", "gap_min", "gap_max")}
    for lo, hi in blocks(0, len(traj.times)):
        z, w, zx, wx = traj.block(("z", "w", "zx", "wx"), lo, hi)
        kept = np.arange(zx.shape[1]) < cols[lo:hi, None]
        for name, grad in (("zx", zx), ("wx", wx)):
            grad = np.abs(grad)
            parts[name + "_lip"].append(grad.max(where=kept, initial=0.0))
            parts[name].append(grad[:, :cells].max())
        z, w = z[:, :cells], w[:, :cells]
        parts["z"].append(np.abs(z).max())
        parts["w"].append(np.abs(w).max())
        gap = w - z
        parts["gap_min"].append(gap.min())
        parts["gap_max"].append(gap.max())
    return {key: float((np.min if key == "gap_min" else np.max)(vals))
            for key, vals in parts.items()}


def derivative_bound_estimate(traj: Trajectory, growth: float, extremes: dict) -> dict:
    """Bound max |z_x|, |w_x| implied by the barrier and the running upper
    bound, which rises by at most ``growth`` along the traced paths (both
    families), compared against the measured extremes (``_run_extremes``)."""
    scn = traj.scenario
    law, delta1 = scn.law, scn.delta1
    a_abs = float(np.abs(scn.runtime_arrays["a"][:scn.window_cells]).max(initial=0.0))
    z_abs, w_abs = extremes["z"], extremes["w"]
    gap_min, gap_max = extremes["gap_min"], extremes["gap_max"]

    # Launch values anywhere are certified within [-delta1, delta2]; the
    # transport identity can then grow them by at most the integral of
    # C - B^2/(4A) along the path.
    value_bound = max(delta1, scn.delta2) + growth
    if law.is_log_branch:
        log_max = max(abs(math.log(gap_min)), abs(math.log(gap_max)))
        zx_bound = gap_max * value_bound + 0.5 * a_abs * z_abs + 0.5 * a_abs * gap_max * log_max
        wx_bound = gap_max * value_bound + 0.5 * a_abs * w_abs + 0.5 * a_abs * gap_max * log_max
        scale = gap_max
    else:
        b = law.beta
        pow_max = max(gap_min ** (-b), gap_max ** (-b))
        zx_bound = (pow_max * value_bound + a_abs * z_abs / (2.0 * abs(b))
                    + a_abs * gap_max / (2.0 * abs(b + 1.0)))
        wx_bound = (pow_max * value_bound + a_abs * w_abs / (2.0 * abs(b))
                    + a_abs * gap_max / (2.0 * abs(b + 1.0)))
        scale = pow_max
    zx_meas, wx_meas = extremes["zx"], extremes["wx"]
    lip = max(zx_meas, wx_meas)
    tol = MARGIN_TOL_FACTOR * traj.grid.dx * lip * max(1.0, scale)
    ok = zx_meas <= zx_bound + tol and wx_meas <= wx_bound + tol
    return {"zx_measured": zx_meas, "zx_implied": zx_bound,
            "wx_measured": wx_meas, "wx_implied": wx_bound,
            "functional_bound": value_bound, "tolerance": tol, "ok": ok}


# ---------------------------------------------------------------------------
# CSV / artifact emission
# ---------------------------------------------------------------------------

_CSV_HEADER = ("t,x,rho,v,z,w,z_x,w_x,Phi,Psi,margin_z_lo,margin_z_hi,"
               "margin_w_lo,margin_w_hi,gap,lambda1,lambda2")


def _row_format(header: str) -> str:
    """One CSV line of the columns of ``header``, each at full precision."""
    return ",".join(["%.17g"] * len(header.split(","))) + "\n"


def _write_rows(fh, row_format: str, cols) -> None:
    """Write the rows of the equal-length columns ``cols``, formatted by one
    ``%`` over ``row_format`` repeated once per row: the same bytes as one
    ``%`` per row, at less cost per row."""
    table = np.column_stack(cols)
    fh.write((row_format * len(table)) % tuple(table.ravel().tolist()))


def write_fields_csv(traj: Trajectory, path) -> None:
    scn = traj.scenario
    arrays, cells = scn.runtime_arrays, scn.window_cells
    x, a = arrays["x"][:cells], arrays["a"][:cells]
    s = scn.majorant_integral(x)
    law = scn.law
    dx = traj.grid.dx
    rows = range(0, len(traj.times), scn.csv_stride)
    fmt = _row_format(_CSV_HEADER)
    with open(path, "w", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for k in rows:
            z_full, w_full = traj.z[k], traj.w[k]
            z, w = z_full[:cells], w_full[:cells]
            zx = np.gradient(z_full, dx)[:cells]
            wx = np.gradient(w_full, dx)[:cells]
            rho = rho_zw(z, w, law)
            v = 0.5 * (w + z)
            phi, psi = phi_psi_zw(z, w, zx, wx, a, law)
            margins = membership_margins(z, w, s, scn.region)
            lam1, lam2 = speeds_zw(z, w, law)
            t = traj.times[k]
            _write_rows(fh, fmt, [np.full_like(z, t), x, rho, v, z, w, zx, wx, phi, psi,
                                  margins["z_lo"], margins["z_hi"], margins["w_lo"],
                                  margins["w_hi"], margins["gap"], lam1, lam2])


def write_path_csv(path_obj, delta1, M, alpha, out_path) -> None:
    br = chars.bound_check(path_obj, delta1, M, alpha)
    header = "t,x,z,w,value,A,B,C,margin_lower,margin_upper,margin_sub"
    fmt = _row_format(header)
    cols = [path_obj.t, path_obj.x, path_obj.z, path_obj.w, path_obj.value,
            path_obj.A, path_obj.B, path_obj.C,
            br.lower_margin, br.upper_margin, br.sub_margin]
    with open(out_path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        _write_rows(fh, fmt, cols)


def load_trajectory(path) -> Trajectory:
    """Rebuild a saved trajectory (the scenario is reconstructed from the
    embedded configuration text).  A file that is not a readable archive of
    arrays, or one with a missing or misshapen array, or that is not the run
    of its config, raises TrajectoryFileError."""
    try:
        with open(path, "rb") as fh:
            # np.load would take any other file for a pickle or one array.
            if not zipfile.is_zipfile(fh):
                raise TrajectoryFileError(f"{path}: not a .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                stored = {name: data[name] for name in ("meta", *_STORED) if name in data}
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        # A garbled archive or entry, or an entry of objects.
        raise TrajectoryFileError(f"{path}: unreadable: {exc}") from None
    try:
        meta = json.loads(str(stored["meta"]))
        text = meta["config_text"]
        # A file of a run that ended early holds the failure's details;
        # one written before they were stored holds only the flag.
        blow_up = dict(meta.get("blow_up", {})) if meta.get("blown_up") else None
        table = None if meta.get("table") is None else np.array(meta["table"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise TrajectoryFileError(f"{path}: no readable meta record") from None
    if not isinstance(text, str):
        raise TrajectoryFileError(f"{path}: meta record holds no config text")
    cfg = parse_config_text(text, source=f"{path}:config")
    if cfg.raw("profile", "family") == "table":
        # Only the rows the run was made with will do, never a file found
        # from wherever the file is read.
        if table is None:
            raise TrajectoryFileError(f"{path}: meta record holds no (x, a) rows "
                                      "of the config's duct table")
        cfg.table = table
    scn = cfg.to_scenario()
    try:
        return Trajectory.from_npz(scn, stored, blow_up)
    except TrajectoryFileError as exc:
        raise TrajectoryFileError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# scenario driver
# ---------------------------------------------------------------------------

def _write_json(payload: dict, path: Path) -> str:
    """Write ``payload`` as indented, key-sorted JSON; return the text."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return text


def _write_monitors(mrep: MonitorReport, out: Path) -> dict:
    """Write ``monitor_report.json``, key-sorted and without whitespace: its
    per-step series is for programs, and indented, one float a line, it
    takes a third more bytes and the pure-Python encoder.  Returns the
    record without its series."""
    record = mrep.to_dict()
    (out / "monitor_report.json").write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return {key: val for key, val in record.items() if key != "series"}


def check_storage(scn: Scenario, source) -> None:
    """Refuse a scenario whose run would store more than
    ``STORED_BYTES_MAX`` bytes (a ConfigError, exit 65)."""
    if scn.stored_bytes > STORED_BYTES_MAX:
        raise ConfigError(f"the run stores K + 1 = {scn.steps + 1} snapshots of "
                          f"{scn.trusted_cells} cells, {scn.stored_bytes} bytes, over the "
                          f"ceiling of {STORED_BYTES_MAX} bytes", source=str(source))


def warn_past_courant(scn: Scenario, source) -> None:
    """Warn on standard error, in one line, of a config past cfl = 1: the
    certified step then lets a speed the region allows cross more than a
    cell per step, so the run is unstable by construction."""
    if scn.cfl > 1.0:
        print(f"warning: {source}: cfl = {scn.cfl:g} > 1, the certified step is unstable "
              "by construction", file=sys.stderr)


def output_dir(path) -> Path:
    """The directory ``path``, made with its parents where missing; an
    OutputError (exit 73) if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from None
    return out


def run_scenario(config, out_dir, force: bool = False, quiet: bool = True) -> int:
    """Certify, run, verify and write all artifacts of the config file
    ``config``; returns the exit code.  Unless ``quiet``, a config past
    cfl = 1 is warned of (``warn_past_courant``)."""
    scn = load_config(config).to_scenario()
    check_storage(scn, config)
    if not quiet:
        warn_past_courant(scn, config)
    out = output_dir(out_dir)
    started = time.perf_counter()

    def say(msg):
        if not quiet:
            print(msg)

    bundle = certify(scn)
    (out / "certificates.txt").write_text(bundle.render_text() + "\n")
    report = {"certification": bundle.to_dict(),
              "scenario": {"problem": scn.problem, "n": scn.n, "T": scn.T,
                           "order": scn.order, "cfl": scn.cfl,
                           "x_interest": scn.x_interest,
                           "x_max": scn.grid.x_max, "dx": scn.grid.dx,
                           "dt": scn.dt, "steps": scn.steps,
                           "cell_steps": int(scn.active_cells(scn.step_times[:-1]).sum())}}
    if not bundle.passed and not force:
        report["exit_code"] = EXIT_CERT
        _write_json(report, out / "report.json")
        say("certification FAILED")
        return EXIT_CERT
    report["certification_overridden"] = bool(not bundle.passed and force)

    try:
        traj, _ = run(scn)
        ended = None
    except RunAbortedError as err:
        if err.trajectory is None:  # the data at t = 0 fail the wall check
            raise
        traj, ended = err.trajectory, err
    mrep = monitor_report(traj)
    if ended is not None or mrep.reached_vacuum:
        # A run that ended early has no post-pass, nor has one past a vacuum.
        report["exit_code"] = EXIT_BLOWUP if ended else EXIT_MONITOR
        if ended:
            traj.save(out / "trajectory.npz")
            report["blow_up"] = traj.blow_up
        report["monitors"] = _write_monitors(mrep, out)
        _write_json(report, out / "report.json")
        say(f"blow-up: {ended}" if ended else "monitor violation: w - z below the vacuum gap")
        return report["exit_code"]

    post = characteristic_pass(traj)
    cons = conservative_residual(traj)
    traj.save(out / "trajectory.npz")
    write_fields_csv(traj, out / "fields.csv")
    report.update({
        "monitors": _write_monitors(mrep, out),
        "characteristics": post,
        "conservative_residual": cons.to_dict(),
        "runtime_seconds": time.perf_counter() - started,
    })
    ok = mrep.ok and post["ok"]
    report["exit_code"] = EXIT_OK if ok else EXIT_MONITOR
    _write_json(report, out / "report.json")
    say("run OK" if ok else "monitor violation")
    return report["exit_code"]

"""Pre-run certification, runtime monitors, independent cross-checks and
artifact emission for scenario runs.

Exit codes: 0 clean, 2 certification failed, 3 a runtime monitor or bound
check failed, 4 numerical blow-up; the CLI adds 64 (usage), 65 (bad config)
and 66 (cannot open input).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import characteristics as chars
from .config import ScenarioConfig, load_config, parse_config_text
from .errors import (BlowUpError, DomainError, InvalidStateError,
                     NozzleflowError, TrajectoryFileError, VacuumStateError)
from .model import pressure, rho_zw, speeds_zw
from .region import (EXACT, Certificate, check_h1, check_hypothesis,
                     critical_constants, envelopes, face_margins,
                     membership_margins, worst_item)
from .riccati import (apriori_upper_bound, check_compatibility,
                      check_data_conditions, _one_sided_derivative, phi_psi_zw)
from .solver import Scenario, Trajectory, run

EXIT_OK = 0
EXIT_CERT = 2
EXIT_MONITOR = 3
EXIT_BLOWUP = 4
EXIT_USAGE = 64
EXIT_DATAERR = 65
EXIT_NOINPUT = 66

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
    grid = scn.grid
    x = np.unique(np.concatenate([
        grid.cells(), np.linspace(0.0, grid.x_max, CERT_SAMPLES)]))
    consts = critical_constants(scn.law)
    certs = [check_h1(scn.profile, x), check_hypothesis(scn.region, scn.law, consts, x)]

    z0 = np.asarray(scn.z0(x), dtype=float)
    w0 = np.asarray(scn.w0(x), dtype=float)
    s = scn.profile.cum_abar(x)
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
    min_gap: np.ndarray
    max_abs_zx: np.ndarray
    max_abs_wx: np.ndarray
    max_abs_zt: np.ndarray
    max_abs_wt: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    psi_min: np.ndarray
    psi_max: np.ndarray
    edge_defect: np.ndarray
    lip_estimate: float
    margin_tol: float
    C3: float
    containment_ok_raw: bool
    containment_ok: bool
    vacuum_ok: bool
    finite_ok: bool
    edge_ok: bool
    first_violation: dict | None

    @property
    def ok(self) -> bool:
        return self.containment_ok and self.vacuum_ok and self.finite_ok and self.edge_ok

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
            "edge_defect_max": float(np.max(self.edge_defect)) if len(self.edge_defect) else 0.0,
            "flags": {
                "containment_raw": self.containment_ok_raw,
                "containment": self.containment_ok,
                "vacuum": self.vacuum_ok,
                "finite": self.finite_ok,
                "edge": self.edge_ok,
                "ok": self.ok,
            },
            "first_violation": self.first_violation,
            "series": {
                "times": arr(self.times),
                **{f"min_margin_{k}": arr(v) for k, v in self.min_margins.items()},
                "min_gap": arr(self.min_gap),
            },
        }


#: Steps the monitors buffer before they evaluate them as one block.
_BLOCK = 64


class Monitors:
    """Per-step observers: containment margins over the reporting window,
    vacuum gap, derivative extremes, functional extremes, edge defect.

    ``observe`` only copies a step's window (plus the one cell its central
    gradient reads) and its scalars into a buffer; every ``_BLOCK`` steps,
    and in ``finalize``, the buffered steps are evaluated at once as
    (step, cell) arrays.  Each cell still takes exactly the elementwise
    operations of a step-by-step evaluation, and every reduction is a min,
    max or argmin along the cells of one step, so every series, argmin cell
    and flag is bitwise the per-step result.  ``observe`` takes consecutive
    states, as ``solver.run`` gives them: the time rates compare a step with
    the one observed before it.

    A vacuum state raises ``VacuumStateError`` only when its block is
    evaluated, possibly after the run went on past it; ``run_scenario``
    therefore evaluates the buffer before it reports a failed run."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        arrays = scn.runtime_arrays()
        # The window is a leading run of cells (x increases along the grid).
        self.cells = int(arrays["window"].sum())
        self.faces = envelopes(scn.region, arrays["s"][:self.cells])
        self.a_win = arrays["a"][:self.cells]
        self.dx = scn.grid.dx
        self.series = {key: [] for key in
                       ("t", "gap", "zx", "wx", "zt", "wt", "phi_min", "phi_max",
                        "psi_min", "psi_max", "edge")}
        self.margin_series = {face: [] for face in _FACES}
        self.margin_argmin = {face: [] for face in _FACES}
        self.finite_ok = True
        # Row 0 holds the last step of the previous block, for the rates.
        self._zw = np.zeros((_BLOCK + 1, 2, min(self.cells + 1, scn.grid.n)))
        self._filled = 1
        self._steps = {key: [] for key in ("t", "dt", "rate", "z_edge", "w_edge")}

    def observe(self, fld, bv, prev, dt):
        cols = self._zw.shape[2]
        row = self._zw[self._filled]
        row[0] = fld.z[:cols]
        row[1] = fld.w[:cols]
        steps = self._steps
        steps["t"].append(fld.t)
        steps["dt"].append(dt)
        steps["rate"].append(prev is not None and dt > 0.0)
        steps["z_edge"].append(bv.z_edge)
        steps["w_edge"].append(bv.w_edge)
        self._filled += 1
        if self._filled == len(self._zw):
            self._flush()

    def _flush(self):
        """Evaluate the buffered steps and append them to the series."""
        count = self._filled - 1
        if not count:
            return
        cells, series = self.cells, self.series
        block = self._zw[:count + 1]
        z, w = block[1:, 0, :cells], block[1:, 1, :cells]
        steps = {key: np.asarray(vals) for key, vals in self._steps.items()}
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            self.finite_ok = False
        margins = face_margins(z, w, self.faces)
        rows = np.arange(count)
        for face in _FACES:
            arr = margins[face]
            i = np.argmin(arr, axis=1)
            self.margin_series[face].extend(arr[rows, i].tolist())
            self.margin_argmin[face].extend(i.tolist())
        series["t"].extend(steps["t"].tolist())
        series["gap"].extend((w - z).min(axis=1).tolist())
        zx = np.gradient(block[1:, 0], self.dx, axis=1)[:, :cells]
        wx = np.gradient(block[1:, 1], self.dx, axis=1)[:, :cells]
        series["zx"].extend(np.abs(zx).max(axis=1).tolist())
        series["wx"].extend(np.abs(wx).max(axis=1).tolist())
        rate = steps["rate"]
        if rate.any():
            change = np.abs(block[1:, :, :cells][rate] - block[:-1, :, :cells][rate]).max(axis=2)
            dt = steps["dt"][rate]
            series["zt"].extend((change[:, 0] / dt).tolist())
            series["wt"].extend((change[:, 1] / dt).tolist())
        phi, psi = phi_psi_zw(z, w, zx, wx, self.a_win, self.scn.law)
        series["phi_min"].extend(phi.min(axis=1).tolist())
        series["phi_max"].extend(phi.max(axis=1).tolist())
        series["psi_min"].extend(psi.min(axis=1).tolist())
        series["psi_max"].extend(psi.max(axis=1).tolist())
        edge = (np.abs(steps["z_edge"] + steps["w_edge"]) if self.scn.problem == "P1"
                else np.zeros(count))
        series["edge"].extend(edge.tolist())
        self._zw[0] = block[-1]
        self._filled = 1
        for vals in self._steps.values():
            vals.clear()

    def finalize(self) -> MonitorReport:
        self._flush()
        times = np.asarray(self.series["t"])
        min_margins = {face: np.asarray(vals) for face, vals in self.margin_series.items()}
        # Causal tolerance: each step is judged with the Lipschitz estimate
        # accumulated so far, so bad data cannot launder its own violation by
        # inflating the later estimate.
        lip_series = np.maximum.accumulate(
            np.maximum(np.asarray(self.series["zx"]), np.asarray(self.series["wx"])))
        lip = float(lip_series[-1]) if lip_series.size else 0.0
        tol_series = MARGIN_TOL_FACTOR * self.dx * lip_series
        tol = MARGIN_TOL_FACTOR * self.dx * lip
        C3 = self.scn.speed_bounds.C3
        worst_face, worst_val, first = None, math.inf, None
        for face in _FACES:
            vals = min_margins[face]
            bad = np.nonzero(vals < -tol_series)[0]
            if bad.size and (first is None or bad[0] < first["step"]):
                k = int(bad[0])
                first = {"step": k, "t": float(times[k]), "face": face,
                         "cell": int(self.margin_argmin[face][k]),
                         "margin": float(vals[k]),
                         "inequality": f"margin {face} >= -tol"}
            if vals.min() < worst_val:
                worst_val, worst_face = float(vals.min()), face
        containment_raw = worst_val >= 0.0
        containment = first is None
        min_gap = np.asarray(self.series["gap"])
        vacuum_ok = bool(min_gap.min() >= C3 - tol)
        edge = np.asarray(self.series["edge"])
        edge_ok = bool(edge.max(initial=0.0) <= 1e-12)
        return MonitorReport(
            times=times, min_margins=min_margins, min_gap=min_gap,
            max_abs_zx=np.asarray(self.series["zx"]),
            max_abs_wx=np.asarray(self.series["wx"]),
            max_abs_zt=np.asarray(self.series["zt"]),
            max_abs_wt=np.asarray(self.series["wt"]),
            phi_min=np.asarray(self.series["phi_min"]),
            phi_max=np.asarray(self.series["phi_max"]),
            psi_min=np.asarray(self.series["psi_min"]),
            psi_max=np.asarray(self.series["psi_max"]),
            edge_defect=edge, lip_estimate=lip, margin_tol=tol, C3=C3,
            containment_ok_raw=containment_raw, containment_ok=containment,
            vacuum_ok=vacuum_ok, finite_ok=self.finite_ok, edge_ok=edge_ok,
            first_violation=first)


# ---------------------------------------------------------------------------
# independent conservative-form residual
# ---------------------------------------------------------------------------

def _stored_columns(scn: Scenario) -> dict:
    """The grid arrays of ``scn`` cut to the columns a stored snapshot keeps
    (``Scenario.trusted_cells``)."""
    arrays, m = scn.runtime_arrays(), scn.trusted_cells
    return {key: arrays[key][:m] for key in ("x", "a", "s", "window")}


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


def conservative_residual(traj: Trajectory) -> ConservativeResidual:
    """Centered finite-difference residuals of the conservative system formed
    from the stored diagonal fields: an independent check that the evolved
    fields solve the original balance laws."""
    if traj.snapshot_stride != 1:
        raise DomainError("conservative residual needs stride-1 snapshots")
    scn = traj.scenario
    law = scn.law
    arrays = _stored_columns(scn)
    z, w, times = traj.z, traj.w, traj.times
    if len(times) < 3:
        return ConservativeResidual(times, *(np.zeros(0),) * 4)
    rho = rho_zw(z, w, law)
    v = 0.5 * (w + z)
    m = rho * v
    flux = m * v + pressure(rho, law)
    a = arrays["a"]
    dx = traj.grid.dx
    res_rho = np.gradient(rho, times, axis=0) + np.gradient(m, dx, axis=1) + a * m
    res_mom = np.gradient(m, times, axis=0) + np.gradient(flux, dx, axis=1) + a * m * v
    window = arrays["window"].copy()
    window[0] = False  # one-sided x-differences at the wall are not centered
    inner = (slice(1, -1), window)
    rr, rm = res_rho[inner], res_mom[inner]
    return ConservativeResidual(
        times[1:-1],
        np.abs(rr).max(axis=1), np.abs(rr).mean(axis=1) * dx * window.sum(),
        np.abs(rm).max(axis=1), np.abs(rm).mean(axis=1) * dx * window.sum())


# ---------------------------------------------------------------------------
# characteristic post-pass
# ---------------------------------------------------------------------------

def characteristic_pass(traj: Trajectory, delta1=None, M=None, alpha=None) -> dict:
    """Trace the launch fans of both families, evaluate the transport-identity
    residuals and the three derivative-bound margins, and compare the measured
    derivative extremes against the bound the functionals imply."""
    scn = traj.scenario
    delta1 = scn.delta1 if delta1 is None else delta1
    M = scn.profile.M if M is None else M
    alpha = scn.profile.alpha if alpha is None else alpha
    # The last column of a trimmed snapshot has only a one-sided gradient.
    m = scn.trusted_cells
    cols = slice(0, m if m == traj.grid.n else m - 1)
    lip = max(float(np.abs(traj._stack("zx")[:, cols]).max()),
              float(np.abs(traj._stack("wx")[:, cols]).max()))
    tol_base = MARGIN_TOL_FACTOR * traj.grid.dx * lip
    result = {"tolerance": tol_base, "lip": lip, "families": {}, "paths": []}
    all_ok = True
    traced = []
    for family in (1, 2):
        paths = chars.launch_fan(traj, family)
        if scn.problem == "P2":
            paths += chars.boundary_fan(traj, family)
        traced += paths
        max_res, max_alt = 0.0, None
        minima = {"lower": math.inf, "upper": math.inf, "subsolution": math.inf}
        speed_margin = math.inf
        fam_ok = True
        bounds = scn.speed_bounds
        d = bounds.d1 if family == 1 else bounds.d2
        sign = bounds.sign1 if family == 1 else bounds.sign2
        for path in paths:
            if path.n < 3:
                continue
            try:
                rr = chars.riccati_residual(path)
                br = chars.bound_check(path, delta1, M, alpha)
            except (InvalidStateError, VacuumStateError) as exc:
                fam_ok = False
                result["paths"].append({
                    "family": family, "x0": path.x0, "t0": path.t0,
                    "samples": path.n, "exit": path.exit_reason,
                    "error": str(exc), "ok": False})
                continue
            max_res = max(max_res, rr.max_norm)
            if rr.max_norm_alt is not None:
                max_alt = max(max_alt or 0.0, rr.max_norm_alt)
            minima["lower"] = min(minima["lower"], br.min_lower)
            minima["upper"] = min(minima["upper"], br.min_upper)
            minima["subsolution"] = min(minima["subsolution"], br.min_sub)
            speed_margin = min(speed_margin,
                               float((sign * path.lam - d).min()))
            # The integral bound accumulates the same discretization drift the
            # transport residual measures, so the per-path error estimate adds
            # the residual's time integral to the field-level estimate.
            drift = float(np.trapezoid(np.abs(rr.series), rr.t_mid))
            path_tol = tol_base + MARGIN_TOL_FACTOR * drift
            path_ok = all(br.holds(path_tol).values())
            fam_ok = fam_ok and path_ok
            result["paths"].append({
                "family": family, "x0": path.x0, "t0": path.t0,
                "samples": path.n, "exit": path.exit_reason,
                "residual_max": rr.max_norm, "tolerance": path_tol,
                "min_lower": br.min_lower, "min_upper": br.min_upper,
                "min_sub": br.min_sub, "ok": path_ok,
            })
        all_ok = all_ok and fam_ok
        exits = {reason: sum(path.exit_reason == reason for path in paths)
                 for reason in ("end", "left", "cone")}
        result["families"][str(family)] = {
            "paths": len(paths), "exits": exits,
            "samples": sum(path.n for path in paths),
            "residual_max": max_res,
            "residual_max_alt_reading": max_alt,
            "min_margins": {k: (None if math.isinf(v) else v) for k, v in minima.items()},
            "speed_margin": None if math.isinf(speed_margin) else speed_margin,
            "bounds_ok": fam_ok,
        }
    implied = derivative_bound_estimate(traj, delta1, M, alpha, traced)
    result["derivative_bounds"] = implied
    all_ok = all_ok and implied["ok"]
    result["ok"] = all_ok
    return result


def derivative_bound_estimate(traj: Trajectory, delta1: float, M: float,
                              alpha: float, paths) -> dict:
    """Bound max |z_x|, |w_x| implied by the barrier and the running upper
    bound along the traced ``paths`` (both families), compared against the
    measured extremes."""
    scn = traj.scenario
    law = scn.law
    arrays = _stored_columns(scn)
    window = arrays["window"]
    z = traj.z[:, window]
    w = traj.w[:, window]
    gap = w - z
    a_abs = float(np.abs(arrays["a"][window]).max(initial=0.0))
    z_abs = float(np.abs(z).max())
    w_abs = float(np.abs(w).max())
    gap_min, gap_max = float(gap.min()), float(gap.max())

    # Launch values anywhere are certified within [-delta1, delta2]; the
    # transport identity can then grow them by at most the integral of
    # C - B^2/(4A) along the path.
    growth = 0.0
    for path in paths:
        if path.n < 2:
            continue
        ub = apriori_upper_bound(path.t, path.A, path.B, path.C, 0.0)
        growth = max(growth, float(np.abs(ub).max()))
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
    zx_meas = float(np.abs(traj._stack("zx")[:, window]).max())
    wx_meas = float(np.abs(traj._stack("wx")[:, window]).max())
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


def write_fields_csv(traj: Trajectory, path, stride: int | None = None) -> None:
    scn = traj.scenario
    stride = scn.csv_stride if stride is None else stride
    arrays = _stored_columns(scn)
    window = arrays["window"]
    x = arrays["x"][window]
    a = arrays["a"][window]
    s = arrays["s"][window]
    law = scn.law
    dx = traj.grid.dx
    rows = range(0, len(traj.times), max(1, stride))
    fmt = _row_format(_CSV_HEADER)
    with open(path, "w", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for k in rows:
            z_full, w_full = traj.z[k], traj.w[k]
            z, w = z_full[window], w_full[window]
            zx = np.gradient(z_full, dx)[window]
            wx = np.gradient(w_full, dx)[window]
            rho = rho_zw(z, w, law)
            v = 0.5 * (w + z)
            phi, psi = phi_psi_zw(z, w, zx, wx, a, law)
            margins = membership_margins(z, w, s, scn.region)
            lam1, lam2 = speeds_zw(z, w, law)
            t = traj.times[k]
            cols = [np.full_like(z, t), x, rho, v, z, w, zx, wx, phi, psi,
                    margins["z_lo"], margins["z_hi"], margins["w_lo"],
                    margins["w_hi"], margins["gap"], lam1, lam2]
            for row in np.column_stack(cols).tolist():
                fh.write(fmt % tuple(row))


def write_path_csv(path_obj, delta1, M, alpha, out_path) -> None:
    br = chars.bound_check(path_obj, delta1, M, alpha)
    header = "t,x,z,w,value,A,B,C,margin_lower,margin_upper,margin_sub"
    fmt = _row_format(header)
    cols = [path_obj.t, path_obj.x, path_obj.z, path_obj.w, path_obj.value,
            path_obj.A, path_obj.B, path_obj.C,
            br.lower_margin, br.upper_margin, br.sub_margin]
    with open(out_path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in np.column_stack(cols).tolist():
            fh.write(fmt % tuple(row))


def load_trajectory(path) -> Trajectory:
    """Rebuild a saved trajectory (the scenario is reconstructed from the
    embedded configuration text).  A file with a missing or misshapen array
    raises TrajectoryFileError."""
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
            text = meta["config_text"]
            blown_up = bool(meta.get("blown_up", False))
            stride = int(meta.get("snapshot_stride", 1))
        except (KeyError, TypeError, ValueError):
            raise TrajectoryFileError(f"{path}: no readable meta record") from None
        if not isinstance(text, str):
            raise TrajectoryFileError(f"{path}: meta record holds no config text")
        scn = parse_config_text(text, source=f"{path}:config").to_scenario()
        try:
            return Trajectory.from_npz(scn, data, blown_up, stride)
        except TrajectoryFileError as exc:
            raise TrajectoryFileError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# scenario driver
# ---------------------------------------------------------------------------

def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_monitors(mrep: MonitorReport, out: Path) -> dict:
    """Write ``monitor_report.json``; return the record without its series."""
    record = mrep.to_dict()
    _write_json(record, out / "monitor_report.json")
    return {key: val for key, val in record.items() if key != "series"}


def run_scenario(config, out_dir, force: bool = False, quiet: bool = True) -> int:
    """Certify, run, verify and write all artifacts; returns the exit code."""
    if isinstance(config, (str, Path)):
        config = load_config(config)
    if not isinstance(config, ScenarioConfig):
        raise DomainError("run_scenario needs a config path or ScenarioConfig")
    scn = config.to_scenario()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    def say(msg):
        if not quiet:
            print(msg)

    bundle = certify(scn)
    (out / "certificates.txt").write_text(bundle.render_text() + "\n")
    _write_json(bundle.to_dict(), out / "certificates.json")
    report = {"certification": bundle.to_dict(),
              "scenario": {"problem": scn.problem, "n": scn.n, "T": scn.T,
                           "order": scn.order, "cfl": scn.cfl,
                           "x_interest": scn.x_interest,
                           "x_max": scn.grid.x_max, "dx": scn.grid.dx}}
    if not bundle.passed and not force:
        report["exit_code"] = EXIT_CERT
        _write_json(report, out / "report.json")
        say("certification FAILED")
        return EXIT_CERT
    report["certification_overridden"] = bool(not bundle.passed and force)

    monitors = Monitors(scn)
    try:
        traj, _ = run(scn, monitors)
    except NozzleflowError as err:
        # A vacuum state in a step observed before the failure is the error
        # to report, as it was when the monitors ran step by step.
        monitors._flush()
        if not isinstance(err, BlowUpError):
            raise
        traj = err.trajectory
        if traj is not None and traj.scenario.config_text is not None:
            traj.save(out / "trajectory.npz")
        report.update({
            "exit_code": EXIT_BLOWUP,
            "blow_up": {"t": err.t, "cell": err.cell, "message": str(err)},
            "monitors": _write_monitors(monitors.finalize(), out),
        })
        _write_json(report, out / "report.json")
        say(f"blow-up: {err}")
        return EXIT_BLOWUP

    mrep = monitors.finalize()
    post = characteristic_pass(traj)
    cons = conservative_residual(traj) if traj.snapshot_stride == 1 else None
    traj.save(out / "trajectory.npz")
    write_fields_csv(traj, out / "fields.csv")
    report.update({
        "monitors": _write_monitors(mrep, out),
        "characteristics": post,
        "conservative_residual": cons.to_dict() if cons is not None else None,
        "runtime_seconds": time.perf_counter() - started,
    })
    ok = mrep.ok and post["ok"]
    report["exit_code"] = EXIT_OK if ok else EXIT_MONITOR
    _write_json(report, out / "report.json")
    say("run OK" if ok else "monitor violation")
    return report["exit_code"]

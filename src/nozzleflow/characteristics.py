"""Characteristic curves through stored runs and the checks along them.

Paths are traced forward with RK4 through bilinear space-time interpolation
of the stored speeds, then carry the gradient functional of their family, its
Riccati coefficients, the decaying barrier and the running a-priori upper
bound.  Tracing stops where the stored solution stops being trustworthy: at
the physical boundary, or past ``Scenario.reach(t)``, the one rule for the
trusted domain that also sets which columns a snapshot stores.  Launches
must lie inside that domain too.

Every path the post-pass checks is traced in one lockstep loop
(``trace_fan``): the positions of all live paths form one array, and each
stored time step takes one RK4 step for all of them, each stage one call of
``Trajectory.interpolate``.  Each launch has its own family: a family-2 path
reads the lambda2 rows of the speed stack, below the lambda1 rows.  A path
joins at its own launch time and leaves the live set when it exits.  The
arithmetic is the single-path tracer's, elementwise, so a path does not
depend on the fan it was traced in.  The speeds, and the fields at the
samples, are formed from one block of stored rows at a time
(``solver.blocks``); each row is a function of its own snapshot, so a path
does not depend on the block size either.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidStateError
from .riccati import apriori_upper_bound, coeffs_zw, phi_psi_zw, subsolution_value
from .solver import WALL_MARGIN_FRAC, Trajectory, blocks

#: Paths stop this many cells short of the wall: the innermost stretch both
#: clamps interpolation and concentrates the profile's steepest variation.
WALL_BAND_CELLS = 1.5

#: Launches per fan (at t = 0, and for P2 along the inflow boundary).
FAN = 20

#: A path with fewer samples has no centered difference to check.
MIN_SAMPLES = 3


@dataclass
class CharPath:
    """Samples along one characteristic: states, functional and coefficients.

    ``value`` is Phi for family 1 and Psi for family 2; ``other`` is the
    opposite functional at the same points (used for the alternative reading
    of the second transport equation).  A, B, C are the family's own
    coefficient set.
    """

    family: int
    x0: float
    t0: float
    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    zx: np.ndarray
    wx: np.ndarray
    a: np.ndarray
    ax: np.ndarray
    value: np.ndarray
    other: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    exit_reason: str

    @property
    def n(self) -> int:
        return self.t.size


def trace_fan(history: Trajectory, x0, family, t0=0.0) -> list:
    """RK4 paths of dx/dt = lambda_family launched from the points (x0, t0),
    traced in lockstep: one RK4 step for every live path per stored step.
    ``family`` is 1 or 2 per launch, or one family for every launch."""
    if not np.isin(family, (1, 2)).all():
        raise DomainError("family must be 1 or 2")
    times = history.times
    scn = history.scenario
    x0, t0, family = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(x0, dtype=float), np.asarray(t0, dtype=float),
        np.asarray(family, dtype=np.intp)))
    extent = scn.reach(t0)
    outside = ~((0.0 <= x0) & (x0 <= extent))
    if outside.any():
        j = np.flatnonzero(outside)[0]
        raise DomainError(f"launch point {x0[j]} at t = {t0[j]} outside the "
                          f"trusted extent [0, {extent[j]}]")
    if x0.size == 0:
        return []
    # Launch no closer to the wall than the first cell center, the innermost
    # point the stored fields can interpolate without clamping.
    x0 = np.maximum(x0, 0.5 * history.grid.dx)
    k0 = np.minimum(np.searchsorted(times, t0 - 1e-14, side="left"), len(times) - 1)

    xs, recorded, reasons = _walk(history, x0, k0, family)
    counts = recorded.sum(axis=0)
    ends = np.cumsum(counts)
    # The samples are laid out path after path, and taken a block of rows at
    # a time: a sample's place is its path's start plus the samples of that
    # path in the rows before it.
    cols = np.empty((len(_SAMPLED), int(ends[-1])))
    seen = ends - counts
    for lo, hi in blocks(0, len(times)):
        marks = recorded[lo:hi]
        row, path_of = np.nonzero(marks)
        if row.size == 0:
            continue
        at = seen[path_of] + np.cumsum(marks, axis=0)[row, path_of] - 1
        seen += marks.sum(axis=0)
        for col, values in zip(cols, _samples(history, xs[lo + row, path_of],
                                              times[lo + row], family[path_of])):
            col[at] = values
    return [CharPath(int(family[j]), float(x0[j]), float(t0[j]), *arrays, reasons[j])
            for j, arrays in enumerate(zip(*(np.split(col, ends[:-1]) for col in cols)))]


def _walk(history: Trajectory, x0, k0, family) -> tuple:
    """The RK4 steps of the paths launched from ``x0`` at the snapshots
    ``k0``: the positions ``xs`` (row k at stored time k, one column per
    path), the mask ``recorded`` of the positions that are samples (every
    path has one), and each path's exit reason."""
    times = history.times
    # Samples are recorded only inside the trusted domain: past ``wall_band``
    # and up to ``reach``, taken at every stored time at once.  Leftward paths
    # terminate at the band; rightward launches start recording beyond it.
    # A path is live from its own launch index until it exits.
    band = wall_band(history)
    paths_idx = np.arange(x0.size)
    recorded = np.zeros((len(times), x0.size), dtype=bool)
    xs = np.zeros((len(times), x0.size))
    xs[k0, paths_idx] = x0
    recorded[k0, paths_idx] = x0 >= band
    reasons = np.full(x0.size, "end", dtype=object)
    running = np.ones(x0.size, dtype=bool)
    edge = history.scenario.reach(times)
    # The three RK4 stage times of every step, located in the run at once.
    first = int(k0.min())
    t_start, t_end = times[first:-1], times[first + 1:]
    stage_times = [history.time_weights(tq) for tq in
                   (t_start, t_start + 0.5 * (t_end - t_start), t_end)]
    # The steps take their speeds from a block of rows at a time: the rows
    # the block's stages locate (k to k + 2 for the step from k).  A family-2
    # path reads the block's lambda2 rows, below its lambda1 rows.
    first_row = np.minimum.reduce([ks for ks, _, _ in stage_times])
    last_row = np.maximum.reduce([k2s for _, k2s, _ in stage_times])
    for lo, hi in blocks(first, len(times) - 1):
        if not running.any():
            break
        if not (running & (k0 < hi)).any():
            continue
        r_lo = int(first_row[lo - first:hi - first].min())
        r_hi = int(last_row[lo - first:hi - first].max()) + 1
        speeds = history.block(("lam",), r_lo, r_hi)
        shift = (family - 1) * (r_hi - r_lo) - r_lo
        for k in range(lo, hi):
            live = np.flatnonzero(running & (k0 <= k))
            if live.size == 0:
                if not running.any():
                    break
                continue
            h = times[k + 1] - times[k]
            i, b = k - first, shift[live]
            at_k, at_mid, at_k1 = ((ks[i] + b, k2s[i] + b, taus[i])
                                   for ks, k2s, taus in stage_times)
            xl = xs[k, live]
            v1, = history.interpolate(xl, at_k, speeds)
            v2, = history.interpolate(xl + 0.5 * h * v1, at_mid, speeds)
            v3, = history.interpolate(xl + 0.5 * h * v2, at_mid, speeds)
            v4, = history.interpolate(xl + h * v3, at_k1, speeds)
            x_new = xl + h / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            left = (x_new < band) & (v1 < 0.0)
            cone = ~left & (x_new > edge[k + 1])
            reasons[live[left]] = "left"
            reasons[live[cone]] = "cone"
            stays = ~(left | cone)
            running[live[~stays]] = False
            live, x_new = live[stays], x_new[stays]
            xs[k + 1, live] = x_new
            recorded[k + 1, live] = x_new >= band
    # A path with no sample keeps one at its launch, outside the band.
    empty = np.flatnonzero(~recorded.any(axis=0))
    xs[k0[empty], empty] = np.maximum(x0[empty], band)
    recorded[k0[empty], empty] = True
    return xs, recorded, reasons


#: The sampled ``CharPath`` arrays, in the order of its fields.
_SAMPLED = ("t", "x", "z", "w", "lam", "zx", "wx", "a", "ax", "value", "other",
            "A", "B", "C")


def _samples(history: Trajectory, x, t, family) -> tuple:
    """The ``_SAMPLED`` arrays at the points (x, t) of paths of ``family``
    (per point), interpolated from the stored rows that their times read."""
    scn = history.scenario
    k, k2, tau = history.time_weights(t)
    r_lo, r_hi = int(k.min()), int(k2.max()) + 1
    fields = history.block(("z", "w", "zx", "wx"), r_lo, r_hi)
    z, w, zx, wx = history.interpolate(x, (k - r_lo, k2 - r_lo, tau), fields)
    b = (family - 1) * (r_hi - r_lo) - r_lo
    speed, = history.interpolate(x, (k + b, k2 + b, tau), history.block(("lam",), r_lo, r_hi))
    a = np.asarray(scn.profile.a(x), dtype=float)
    ax = np.asarray(scn.profile.a_prime(x), dtype=float)
    phi, psi = phi_psi_zw(z, w, zx, wx, a, scn.law)
    A, B, C, Ah, Bh, Ch = coeffs_zw(z, w, a, ax, scn.law)
    # Phi and the first coefficient set are family 1's, Psi and the hatted set family 2's.
    one = family == 1
    return (t, x, z, w, speed, zx, wx, a, ax, np.where(one, phi, psi), np.where(one, psi, phi),
            np.where(one, A, Ah), np.where(one, B, Bh), np.where(one, C, Ch))


def trace(history: Trajectory, x0: float, family: int, t0: float = 0.0) -> CharPath:
    """RK4 path of dx/dt = lambda_family launched from (x0, t0)."""
    return trace_fan(history, x0, family, t0)[0]


def wall_band(history: Trajectory) -> float:
    """Distance from the wall inside which paths record no samples: the
    problem's ``WALL_MARGIN_FRAC`` of the window, at least ``WALL_BAND_CELLS``."""
    scn = history.scenario
    return max(WALL_BAND_CELLS * history.grid.dx,
               WALL_MARGIN_FRAC[scn.problem] * scn.x_interest)


def launch_fan(history: Trajectory, family, boundary: bool = False) -> list:
    """Trace the launch fans of ``family`` (1, 2, or a sequence of them) in
    one lockstep batch.  Each family has ``FAN`` equispaced launches at
    t = 0 from ``wall_band`` to x_interest and, with ``boundary``, ``FAN``
    launches from the inflow boundary (x = 0) at equispaced times on
    [0, T], in that order.  The paths with fewer than ``MIN_SAMPLES``
    samples are relaunched as one batch per round, a t = 0 launch half a
    spacing further from the wall and a boundary launch half a spacing
    earlier, until each has them or its shift would pass x_interest or
    t = 0."""
    scn = history.scenario
    lo = wall_band(history)
    spacing = (scn.x_interest - lo) / FAN
    mid = np.arange(FAN) + 0.5
    # One family's launch table: x0, t0 and the shift of a relaunch.
    fans = [(lo + mid * spacing, np.zeros(FAN), np.full(FAN, 0.5 * spacing),
             np.zeros(FAN))]
    if boundary:
        fans.append((np.zeros(FAN), mid / FAN * scn.T, np.zeros(FAN),
                     np.full(FAN, -0.5 * scn.T / FAN)))
    families = np.atleast_1d(family)
    x0, t0, shift_x, shift_t = (np.tile(np.concatenate(col), families.size)
                                for col in zip(*fans))
    family = np.repeat(families, FAN * len(fans))
    paths = trace_fan(history, x0, family, t0)
    moves = (shift_x > 0.0) | (shift_t < 0.0)
    while True:
        short = np.flatnonzero(moves & (np.array([path.n for path in paths]) < MIN_SAMPLES)
                               & (x0 + shift_x <= scn.x_interest) & (t0 + shift_t >= 0.0))
        if short.size == 0:
            return paths
        x0[short] += shift_x[short]
        t0[short] += shift_t[short]
        for k, path in zip(short, trace_fan(history, x0[short], family[short], t0[short])):
            paths[k] = path


@dataclass
class ResidualReport:
    """Residual of the transport identity dV/dt = A V^2 + B V + C along a path.

    ``series_alt`` (family 2 only) re-evaluates the middle term with the
    opposite functional so the printed alternative reading stays observable.
    """

    family: int
    t_mid: np.ndarray
    series: np.ndarray
    max_norm: float
    series_alt: Optional[np.ndarray] = None
    max_norm_alt: Optional[float] = None


def riccati_residual(path: CharPath) -> ResidualReport:
    if path.n < MIN_SAMPLES:
        raise DomainError("residual evaluation needs at least 3 samples")
    v, t = path.value, path.t
    dv = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    rhs = (path.A * v * v + path.B * v + path.C)[1:-1]
    series = dv - rhs
    report = ResidualReport(path.family, t[1:-1], series,
                            float(np.abs(series).max()))
    if path.family == 2:
        rhs_alt = (path.A * v * v + path.B * path.other + path.C)[1:-1]
        report.series_alt = dv - rhs_alt
        report.max_norm_alt = float(np.abs(report.series_alt).max())
    return report


@dataclass
class BoundReport:
    """Margins of the three derivative bounds along one path.

    lower: value above the decaying barrier; upper: value below the running
    a-priori bound; sub: the barrier satisfies its differential inequality
    (margin is minus the inequality's left side).  All margins must be
    nonnegative up to the scheme-error tolerance.
    """

    sigma: int
    t: np.ndarray
    x: np.ndarray
    lower_margin: np.ndarray
    upper_margin: np.ndarray
    sub_margin: np.ndarray

    @property
    def min_lower(self) -> float:
        return float(self.lower_margin.min())

    @property
    def min_upper(self) -> float:
        return float(self.upper_margin.min())

    @property
    def min_sub(self) -> float:
        return float(self.sub_margin.min())

    def holds(self, tol: float = 0.0) -> dict:
        return {
            "lower": self.min_lower >= -tol,
            "upper": self.min_upper >= -tol,
            "subsolution": self.min_sub >= -tol,
        }


def bound_check(path: CharPath, delta1: float, M: float, alpha: float) -> BoundReport:
    """Margin series of the barrier bound, the a-priori upper bound, and the
    pointwise barrier differential inequality along the path."""
    barrier = subsolution_value(path.x, delta1, M, alpha)
    moving = np.abs(path.lam) > 1e-12
    signs = np.sign(path.lam[moving])
    if signs.size == 0:
        raise InvalidStateError("path does not move; no barrier direction")
    if not (np.all(signs > 0) or np.all(signs < 0)):
        raise InvalidStateError("path changes direction; barrier sign undefined")
    sigma = 1 if signs[0] > 0 else -1
    floor = -sigma * barrier
    lower_margin = path.value - floor
    ub = apriori_upper_bound(path.t, path.A, path.B, path.C, float(path.value[0]))
    upper_margin = ub - path.value
    dfloor = -sigma * (1.0 + alpha) * M * delta1 * path.lam \
        * (1.0 + M * path.x) ** (-2.0 - alpha)
    sub_lhs = dfloor - (path.A * floor * floor + path.B * floor + path.C)
    return BoundReport(sigma, path.t, path.x, lower_margin, upper_margin, -sub_lhs)

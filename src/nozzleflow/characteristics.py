"""Characteristic curves through stored runs and the checks along them.

Paths are traced forward with RK4 through bilinear space-time interpolation
of the stored speeds, then carry the gradient functional of their family, its
Riccati coefficients, the decaying barrier and the running a-priori upper
bound.  Tracing stops where the stored solution stops being trustworthy: at
the physical boundary, or past ``Scenario.reach(t)``, the one rule for the
trusted domain that also sets which columns of each snapshot hold the run's
values (``Scenario.stored_widths``).  Launches must lie inside that domain
too.

Every path the post-pass checks is traced in one lockstep loop
(``_walk``): the positions of all live paths form one array, and each
stored time step takes one RK4 step for all of them, each stage one call of
``Trajectory.interpolate``: the step from stored row k reads row k, twice
the blend of rows k and k + 1 at the step's midpoint time, then row k + 1.
Each launch has its own family: a family-2 path reads the lambda2 rows of
the speed stack, below the lambda1 rows.  A path joins at the stored time
of its launch and leaves the live set when it exits, so it has positions
only at stored times, and each sample reads its own row.  The arithmetic
is the single-path tracer's, elementwise, so a path does not depend on the
fan it was traced in.  The speeds, and the fields at the samples, are
formed from one block of stored rows at a time (``solver.blocks``); each
row is a function of its own snapshot, so a path does not depend on the
block size either.

Each RK4 step decides once whether any of its four stage positions can need
clamping (a position whose cell has no stored pair).  The live positions'
min and max, which the exit test forms, and the block's speed bounds (one
min and one max, widened by ``BLEND_ULPS`` for the blend's rounding) bound
every stage position; rounding is monotone, so the bounds hold for the
positions as computed.  Where they keep every position inside the stored
pairs, the step tells ``Trajectory.interpolate`` so (``inside=True``), and
it skips its own per-call min and max.  Both ways give the same values wherever nothing is
clamped, so the paths are bitwise those of the per-call check.  The walk
trusts the stored rows to be finite, as every stored run is.

A trace is a walk (``_walk``: the positions, which of them are samples, and
the exit reasons) followed by an assembly (``_assemble``: the fields,
functionals and coefficients at the samples, one ``CharPath`` per launch).
The relaunch rounds of ``launch_fan`` only walk the launches they move, and
the paths are assembled once, after the last round.

The assembly lays the samples out path after path in one table (a ``Fan``,
the list of paths that view it), and ``fan_checks`` checks every path at
once on that table: elementwise arithmetic over all samples, per-path
extremes by ``reduceat``, and the running upper bound by a row-wise cumsum
(``riccati.cumulative_trapezoid``).  ``riccati_residual`` and
``bound_check`` run the same arithmetic on one path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidStateError
from .riccati import bound_growth, coeffs_zw, phi_psi_zw, subsolution_value
from .solver import WALL_MARGIN_FRAC, Trajectory, blocks

#: Paths stop this many cells short of the wall: the innermost stretch both
#: clamps interpolation and concentrates the profile's steepest variation.
WALL_BAND_CELLS = 1.5

#: Launches per fan (at t = 0, and for P2 along the inflow boundary).
FAN = 20

#: A path with fewer samples has no centered difference to check.
MIN_SAMPLES = 3

#: Ulps of a block's largest |speed| S by which ``_walk`` widens the
#: block's speed bounds: a bilinear blend of values in [lo, hi] lies within
#: 6u*S of it (u = 2**-53, the unit of rounding), and an ulp of S is more
#: than u*S.
BLEND_ULPS = 8


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


class Fan(list):
    """The ``CharPath`` of each launch of a batch, in launch order, and the
    sample table their arrays view: row i of ``samples`` holds the
    ``_SAMPLED[i]`` values of every path, laid out path after path, path j's
    in the columns ``starts[j]`` to ``ends[j]``."""

    def __init__(self, paths, samples: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        super().__init__(paths)
        self.samples, self.starts, self.ends = samples, starts, ends

    def column(self, name: str) -> np.ndarray:
        return self.samples[_SAMPLED.index(name)]


def trace_fan(history: Trajectory, x0, family, t0=0.0) -> list:
    """RK4 paths of dx/dt = lambda_family launched from the points (x0, t0),
    traced in lockstep: one RK4 step for every live path per stored step.
    ``family`` is 1 or 2 per launch, or one family for every launch."""
    launches = _launches(history, x0, t0, family)
    if launches[0].size == 0:
        return []
    return _assemble(history, launches, _walk(history, launches))


def _launches(history: Trajectory, x0, t0, family) -> tuple:
    """The launches (x0, t0, family, k0) of ``trace_fan``'s arguments, one
    entry per launch: x0 moved off the wall to the first cell center, the
    innermost point the stored fields can interpolate without clamping, and
    k0 the snapshot of each launch time.  A launch time outside the stored
    run (past T, or past the last snapshot of a run that blew up), or a
    launch point outside the trusted domain, raises DomainError."""
    if not np.isin(family, (1, 2)).all():
        raise DomainError("family must be 1 or 2")
    x0, t0, family = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(x0, dtype=float), np.asarray(t0, dtype=float),
        np.asarray(family, dtype=np.intp)))
    end = float(history.times[-1])
    late = np.flatnonzero(~((0.0 <= t0) & (t0 <= end)))
    if late.size:
        raise DomainError(f"launch time {t0[late[0]]} outside the stored run's [0, {end}]")
    extent = history.scenario.reach(t0)
    outside = ~((0.0 <= x0) & (x0 <= extent))
    if outside.any():
        j = np.flatnonzero(outside)[0]
        raise DomainError(f"launch point {x0[j]} at t = {t0[j]} outside the "
                          f"trusted extent [0, {extent[j]}]")
    times = history.times
    k0 = np.minimum(np.searchsorted(times, t0 - 1e-14, side="left"), len(times) - 1)
    return np.maximum(x0, 0.5 * history.grid.dx), t0, family, k0


def _assemble(history: Trajectory, launches: tuple, walked: tuple) -> Fan:
    """The ``Fan`` of the ``launches`` from the positions, sample marks and
    exit reasons that ``_walk`` gave for them."""
    x0, t0, family, _ = launches
    xs, recorded, reasons = walked
    times = history.times
    counts = recorded.sum(axis=0)
    ends = np.cumsum(counts)
    # The samples are laid out path after path, and taken a block of rows at
    # a time: a sample's place is its path's start plus the samples of that
    # path in the rows before it.
    cols = np.empty((len(_SAMPLED), int(ends[-1])))
    starts = ends - counts
    seen = starts.copy()
    for lo, hi in blocks(0, len(times)):
        marks = recorded[lo:hi]
        row, path_of = np.nonzero(marks)
        if row.size == 0:
            continue
        at = seen[path_of] + np.cumsum(marks, axis=0)[row, path_of] - 1
        seen += marks.sum(axis=0)
        for col, values in zip(cols, _samples(history, xs[lo + row, path_of], lo + row,
                                              family[path_of])):
            col[at] = values
    return Fan([CharPath(int(family[j]), float(x0[j]), float(t0[j]), *cols[:, s:e], reasons[j])
                for j, (s, e) in enumerate(zip(starts.tolist(), ends.tolist()))],
               cols, starts, ends)


def _walk(history: Trajectory, launches: tuple) -> tuple:
    """The RK4 steps of the paths of ``launches`` (as ``_launches`` gives
    them): the positions ``xs`` (row k at stored time k, one column per
    path), the mask ``recorded`` of the positions that are samples (every
    path has one), and each path's exit reason.  The stored rows must be
    finite, as every stored run's are: at a stored time it reads one row."""
    x0, _, family, k0 = launches
    times = history.times
    # Samples are recorded only inside the trusted domain: past ``wall_band``
    # and up to ``reach``.  Leftward paths terminate at the band; rightward
    # launches start recording beyond it.  A path is live from its own
    # launch index until it exits.
    band = wall_band(history)
    xs = np.zeros((len(times), x0.size))
    xs[k0, np.arange(x0.size)] = x0
    reasons = np.full(x0.size, "end", dtype=object)
    running = np.ones(x0.size, dtype=bool)
    edge = history.scenario.reach(times)
    joins = set(k0.tolist())
    first = int(k0.min())
    dx, last = history.grid.dx, history.scenario.trusted_cells - 2
    for lo, hi in blocks(first, len(times) - 1):
        if not running.any():
            break
        if not (running & (k0 < hi)).any():
            continue
        # The step from row k reads row k at its first stage, row k + 1 at
        # its last, and their blend at its two middle ones: the block's
        # speeds are rows lo to hi.  A family-2 path reads the block's
        # lambda2 rows, below its lambda1 rows.
        speeds = history.block(("lam",), lo, hi + 1)
        width = speeds[0].shape[1]
        # Each path's flat offset into the block: its family's rows, less
        # the block's first row.  A step adds the row it starts from.
        offsets = ((family - 1) * (hi + 1 - lo) - lo) * width
        # The block's steps as Python numbers, by step from ``lo``: its
        # size, the reach at its end, and the weight of row k + 1 at the
        # step's midpoint time.
        t_k, t_next = times[lo:hi], times[lo + 1:hi + 1]
        size = t_next - t_k
        weights = np.clip((t_k + 0.5 * size - t_k) / size, 0.0, 1.0).tolist()
        steps = size.tolist()
        reach = edge[lo + 1:hi + 1].tolist()
        # Every stage speed is a blend of the block's: one min and one max
        # bound them, widened by the blend's rounding.
        v_lo, v_hi = float(speeds[0].min()), float(speeds[0].max())
        pad = BLEND_ULPS * math.ulp(max(-v_lo, v_hi))
        v_lo, v_hi = v_lo - pad, v_hi + pad
        live = np.empty(0, dtype=np.intp)
        for j, k in enumerate(range(lo, hi)):
            # The live set, their positions and offsets change only where a
            # path joins or leaves.
            if live.size == 0 or k in joins:
                live = np.flatnonzero(running & (k0 <= k))
                if live.size == 0:
                    if not running.any():
                        break
                    continue
                xl, offset = xs[k][live], offsets[live]
                x_lo, x_hi = float(xl.min()), float(xl.max())
            h = steps[j]
            half = 0.5 * h
            # The stage positions are xl, xl + half*v and xl + h*v, each
            # rounded monotonically: the ends of the positions and of the
            # speeds bound them.
            low = min(x_lo, x_lo + half * v_lo, x_lo + h * v_lo)
            high = max(x_hi, x_hi + half * v_hi, x_hi + h * v_hi)
            inside = low / dx - 0.5 >= 0.0 and high / dx - 0.5 < last + 1
            at, tau = offset + k * width, weights[j]
            v1, = history.interpolate(xl, 0, speeds, 0.0, at, inside=inside)
            v2, = history.interpolate(xl + half * v1, 0, speeds, tau, at, inside=inside)
            v3, = history.interpolate(xl + half * v2, 0, speeds, tau, at, inside=inside)
            v4, = history.interpolate(xl + h * v3, 1, speeds, 0.0, at, inside=inside)
            x_new = xl + h / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            # One min and one max tell whether any path may leave (a NaN
            # fails both tests, as it fails every comparison below), and
            # bound the positions that stay.
            x_lo, x_hi = float(x_new.min()), float(x_new.max())
            if not (band <= x_lo and x_hi <= reach[j]):
                left = (x_new < band) & (v1 < 0.0)
                cone = ~left & (x_new > reach[j])
                leaves = left | cone
                if leaves.any():
                    reasons[live[left]] = "left"
                    reasons[live[cone]] = "cone"
                    running[live[leaves]] = False
                    stays = ~leaves
                    live, x_new, offset = live[stays], x_new[stays], offset[stays]
            xs[k + 1][live] = x_new
            xl = x_new
    # A position is a sample where it lies past the band: every position not
    # walked is 0, short of it.  A path with no sample keeps one at its
    # launch, outside the band.
    recorded = xs >= band
    empty = np.flatnonzero(~recorded.any(axis=0))
    xs[k0[empty], empty] = np.maximum(x0[empty], band)
    recorded[k0[empty], empty] = True
    return xs, recorded, reasons


#: The sampled ``CharPath`` arrays, in the order of its fields.
_SAMPLED = ("t", "x", "z", "w", "lam", "zx", "wx", "a", "ax", "value", "other",
            "A", "B", "C")


def _samples(history: Trajectory, x, rows, family) -> tuple:
    """The ``_SAMPLED`` arrays at the points x of paths of ``family`` (per
    point) at the stored ``rows`` (per point): a walk records positions
    only at stored times, so each sample reads its own row."""
    scn = history.scenario
    r_lo, r_hi = int(rows.min()), int(rows.max()) + 1
    *fields, lam = history.block(("z", "w", "zx", "wx", "lam"), r_lo, r_hi)
    z, w, zx, wx = history.interpolate(x, rows - r_lo, fields)
    speed, = history.interpolate(x, rows - r_lo + (family - 1) * (r_hi - r_lo), [lam])
    a = np.asarray(scn.profile.a(x), dtype=float)
    ax = np.asarray(scn.profile.a_prime(x), dtype=float)
    phi, psi = phi_psi_zw(z, w, zx, wx, a, scn.law)
    A, B, C, Ah, Bh, Ch = coeffs_zw(z, w, a, ax, scn.law)
    # Phi and the first coefficient set are family 1's, Psi and the hatted set family 2's.
    one = family == 1
    return (history.times[rows], x, z, w, speed, zx, wx, a, ax, np.where(one, phi, psi),
            np.where(one, psi, phi), np.where(one, A, Ah), np.where(one, B, Bh),
            np.where(one, C, Ch))


def trace(history: Trajectory, x0: float, family: int, t0: float = 0.0) -> CharPath:
    """RK4 path of dx/dt = lambda_family launched from (x0, t0)."""
    return trace_fan(history, x0, family, t0)[0]


def wall_band(history: Trajectory) -> float:
    """Distance from the wall inside which paths record no samples: the
    problem's ``WALL_MARGIN_FRAC`` of the window, at least ``WALL_BAND_CELLS``."""
    scn = history.scenario
    return max(WALL_BAND_CELLS * history.grid.dx,
               WALL_MARGIN_FRAC[scn.problem] * scn.x_interest)


def launch_fan(history: Trajectory, family, boundary: bool = False) -> Fan:
    """Trace the launch fans of ``family`` (1, 2, or a sequence of them) in
    one lockstep batch.  Each family has ``FAN`` equispaced launches at
    t = 0 from ``wall_band`` to x_interest and, with ``boundary``, ``FAN``
    launches from the inflow boundary (x = 0) at equispaced times on
    [0, T], in that order.  The paths with fewer than ``MIN_SAMPLES``
    samples are relaunched as one batch per round, a t = 0 launch half a
    spacing further from the wall and a boundary launch half a spacing
    earlier, until each has them or its shift would pass x_interest or
    t = 0.  A round only walks its batch; a path does not depend on the
    fan it is traced in, so the paths are assembled once, at the end."""
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
    launches = _launches(history, x0, t0, family)
    walked = _walk(history, launches)
    moves = (shift_x > 0.0) | (shift_t < 0.0)
    while True:
        short = np.flatnonzero(moves & (walked[1].sum(axis=0) < MIN_SAMPLES)
                               & (x0 + shift_x <= scn.x_interest) & (t0 + shift_t >= 0.0))
        if short.size == 0:
            return _assemble(history, launches, walked)
        x0[short] += shift_x[short]
        t0[short] += shift_t[short]
        launches = _launches(history, x0, t0, family)
        # Positions, sample marks and exit reasons, one column per path.
        for whole, part in zip(walked, _walk(history, tuple(a[short] for a in launches))):
            whole[..., short] = part


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


def _residuals(t, v, A, B, C, other=None, starts=None) -> tuple:
    """The transport residual dV/dt - (A V^2 + B V + C) at samples 1 to N - 2
    of samples laid out path after path (``starts``: where each path's
    samples start; one path when None), and with ``other`` the residual of
    the alternative reading (B times the opposite functional), else None.
    The centered difference at a path's last sample and at the next path's
    first reads two paths: its time span is NaN, so it divides no 0 by 0."""
    span = t[2:] - t[:-2]
    if starts is not None and starts.size > 1:
        across = np.concatenate((starts[1:] - 2, starts[1:] - 1))
        span[across[(across >= 0) & (across < span.size)]] = np.nan
    dv = (v[2:] - v[:-2]) / span
    quad = A * v * v
    series = dv - (quad + B * v + C)[1:-1]
    return series, None if other is None else dv - (quad + B * other + C)[1:-1]


def riccati_residual(path: CharPath) -> ResidualReport:
    if path.n < MIN_SAMPLES:
        raise DomainError("residual evaluation needs at least 3 samples")
    series, alt = _residuals(path.t, path.value, path.A, path.B, path.C,
                             path.other if path.family == 2 else None)
    report = ResidualReport(path.family, path.t[1:-1], series,
                            float(np.abs(series).max()))
    if alt is not None:
        report.series_alt = alt
        report.max_norm_alt = float(np.abs(alt).max())
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


def _directions(lam, starts) -> tuple:
    """Per path of samples laid out path after path from ``starts``: sigma,
    +1 where its moving samples (|lambda| > 1e-12) go right and -1 where
    they go left, and the reason it has no barrier direction (None where it
    has one)."""
    ahead = np.logical_or.reduceat(lam > 1e-12, starts)
    back = np.logical_or.reduceat(lam < -1e-12, starts)
    why = [None if right != left else
           "path changes direction; barrier sign undefined" if right else
           "path does not move; no barrier direction"
           for right, left in zip(ahead.tolist(), back.tolist())]
    return np.where(ahead, 1, -1), why


def _margins(x, lam, value, A, B, C, barrier, sigma, phi0, growth,
             delta1, M, alpha) -> tuple:
    """The lower, upper and subsolution margin series at samples of paths
    of direction ``sigma`` whose upper bound starts at ``phi0`` and has
    risen by ``growth`` (sigma and phi0: one value for one path, or one
    per sample)."""
    floor = -sigma * barrier
    dfloor = -sigma * (1.0 + alpha) * M * delta1 * lam * (1.0 + M * x) ** (-2.0 - alpha)
    sub_lhs = dfloor - (A * floor * floor + B * floor + C)
    return value - floor, phi0 + growth - value, -sub_lhs


def bound_check(path: CharPath, delta1: float, M: float, alpha: float) -> BoundReport:
    """Margin series of the barrier bound, the a-priori upper bound, and the
    pointwise barrier differential inequality along the path."""
    barrier = subsolution_value(path.x, delta1, M, alpha)
    (sigma,), (why,) = _directions(path.lam, np.zeros(1, dtype=np.intp))
    if why is not None:
        raise InvalidStateError(why)
    sigma = int(sigma)
    growth = bound_growth(path.t, path.A, path.B, path.C)
    margins = _margins(path.x, path.lam, path.value, path.A, path.B, path.C, barrier,
                       sigma, float(path.value[0]), growth, delta1, M, alpha)
    return BoundReport(sigma, path.t, path.x, *margins)


def _segment_max(a, lo, hi) -> np.ndarray:
    """The largest entry of each a[lo[j]:hi[j]]: segments nonempty, in order
    and apart (a maximum of any grouping is exact)."""
    if lo.size == 0:
        return np.empty(0)
    cuts = np.stack((lo, hi), axis=1).ravel()
    return np.maximum.reduceat(a, cuts[:-1] if cuts[-1] == a.size else cuts)[::2]


def fan_checks(fan: Fan, delta1: float, M: float, alpha: float) -> dict:
    """``riccati_residual`` and ``bound_check`` of every path of ``fan`` at
    once, on its sample table in place.  Returns per path ``error`` (a
    list: why the path is not checked, or None); ``residual_max``,
    ``residual_max_alt`` (the alternative reading's), ``drift`` (the time
    integral of |residual|, by ``np.trapezoid``'s terms and sum),
    ``min_lower``, ``min_upper`` and ``min_sub``, NaN where ``error`` is
    set; and ``growth``, the largest |rise| of the path's upper bound.
    Each entry is bitwise what those functions give the path alone.  A path
    of two or more samples with A >= 0 raises ContractViolationError, as
    ``bound_growth`` does."""
    cols = dict(zip(_SAMPLED, fan.samples))
    t, x, lam, value = cols["t"], cols["x"], cols["lam"], cols["value"]
    A, B, C = cols["A"], cols["B"], cols["C"]
    starts, ends = fan.starts, fan.ends
    counts = ends - starts
    barrier = subsolution_value(x, delta1, M, alpha)
    sigma, why = _directions(lam, starts)
    error = [f"{n} samples, a check needs {MIN_SAMPLES}" if n < MIN_SAMPLES else reason
             for n, reason in zip(counts.tolist(), why)]
    ok = np.array([reason is None for reason in error], dtype=bool)

    def per_path(values):
        full = np.full(ok.size, np.nan)
        full[ok] = values
        return full

    growth = bound_growth(t, A, B, C, ends)
    out = {"error": error, "growth": np.maximum.reduceat(np.abs(growth), starts)}
    margins = _margins(x, lam, value, A, B, C, barrier, np.repeat(sigma, counts),
                       np.repeat(value[starts], counts), growth, delta1, M, alpha)
    del barrier, growth
    for name, margin in zip(("min_lower", "min_upper", "min_sub"), margins):
        out[name] = per_path(np.minimum.reduceat(margin, starts)[ok])
    del margins
    # Path j's residuals are entries starts[j] to ends[j] - 3 of the series.
    lo, hi = starts[ok], ends[ok] - 2
    series, alt = _residuals(t, value, A, B, C, cols["other"], starts)
    size = np.abs(series)
    del series
    out["residual_max"] = per_path(_segment_max(size, lo, hi))
    out["residual_max_alt"] = per_path(_segment_max(np.abs(alt), lo, hi))
    del alt
    # np.trapezoid's terms, each path's summed as np.trapezoid sums them.
    terms = np.diff(t[1:-1]) * (size[1:] + size[:-1]) / 2.0
    out["drift"] = per_path([terms[a:b - 1].sum() for a, b in zip(lo.tolist(), hi.tolist())])
    return out

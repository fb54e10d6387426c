"""Explicit upwind evolution of the diagonal system on a truncated half-line.

The domain is extended past the reporting window by the maximal region speed
times the final time, so the window is never polluted by the artificial right
boundary.  Both invariants are advected with their own local speed (donor
cell, optionally limited second order with two-stage time integration); the
geometric source is applied pointwise inside the same stages, keeping the
z/w source increments exact negatives.

The time step is certified, not measured: the invariant region bounds every
speed by ``lambda_abs_max`` before the run starts, so ``run`` takes
``K = ceil(T*lambda_abs_max/(cfl*dx))`` steps of ``dt = T/K``
(``Scenario.steps``, ``Scenario.dt``).  With ``cfl <= 1`` that step is
stable for as long as the state stays in the region, which the monitors
check on the stored run afterwards (``harness.monitor_report``).

One rule says where the stored solution can be trusted: ``Scenario.reach(t)``
is the right end of the trusted domain at time t.  The invariant region bounds
every speed by ``lambda_abs_max`` in advance, so nothing from the artificial
right boundary passes ``x_max - lambda_abs_max*t``, and a path that starts in
the reporting window (or at the inflow boundary) gets no further than
``x_interest + c_right*t``, with ``c_right = lambda_abs_max`` when a speed can
be positive (P1, P2) and 0 when both are negative (P3).  A stored snapshot
keeps the cells up to the highest reach on [0, T], plus two: one for the
bilinear interpolation at ``i + 1``, one for the central gradient there
(``Scenario.trusted_cells``).  The tracer launches and ends its paths by the
same rule.

The evolve runs only where the stored columns can depend on the state.  A
cell at x reads, by T, cells no further right than ``x + c_left*(T - t)``,
with ``c_left = lambda_abs_max`` when a speed can be negative (P1, P3) and 0
when both are positive (P2).  So the step from t evolves the leading cells up
to the last stored column plus ``c_left*(T - t)``, plus a pad of
``ACTIVE_PAD_SIGMAS*sqrt(K)`` cells (``Scenario.active_cells``), and the set
only shrinks.  On P3 that edge is the right-boundary term of ``reach``,
``x_max - lambda_abs_max*t``, moved right by the two stored cells past the
window.  On P1 and P2 the highest reach lies at T/2, and a snapshot keeps
that width at every step, so P1 drops cells only after T/2.  The scheme reads
two cells to each side per stage, four per step, while the edge moves at most
``cfl`` cells per step, so its numerical diffusion leaks past the edge: the
pad keeps that leak at round-off (``tests/test_solver.py`` gates it).

The state is an (n + 4, 2) array: cell by cell, with z and w side by side,
and two ghost cells each side.  Its last two cells hold the far-field ghosts
from the start, and a cell that a step leaves out keeps its last value, so
the two cells after the active ones are their right ghosts, and the whole
grid needs no other case.  The active cells with their ghosts are one
contiguous block, and a shift by one cell is a shift by two entries of its
flat view, so each operation of the upwind gradient covers both rows on
contiguous memory (on two strided rows numpy takes about twice as long).

A stage forms the speeds of all its cells at once from ``w - z`` and
``w + z``, which the source then reuses.  The invariant region fixes the
sign of both speeds on P2 (>= 0) and P3 (< 0), so there every face mean has
that sign too, and the stage forms only the upwind face values: the limited
slope on the faces it reads, with no face-mean speeds and no per-face
choice.  The choice is made from the stage's own speeds, so P1 (mixed
signs), NaN and a state that has left the region take the general gradient.
The stages write into arrays allocated once per scenario (``_Stages``).
Every cell takes the same operations as it would row by row, so at the same
dt and on the same cells the result is bitwise that of two separate row
updates.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (BlowUpError, DomainError, RunAbortedError,
                     SonicBoundaryError, TrajectoryFileError)
from .model import GasLaw, source_coef, source_pair_zw, speeds_zw
from .region import NozzleProfile, RegionSpec, SpeedBounds, region_speed_bounds

#: Module-level hook so verification tests can plant source mutations.
source_pair = source_pair_zw

#: Region kind (envelope inequality set) each problem type needs.
KIND_FOR = {"P1": "m", "P2": "r", "P3": "l"}

#: Share of the window next to x = 0 where paths record no samples
#: (``characteristics.wall_band``): the boundary layer there raises the
#: transport residual, whose time integral widens each path's tolerance.
#: Largest residual of the desk config at n = 2000, no margin -> margin:
WALL_MARGIN_FRAC = {
    "P1": 0.02,  # wall with mirrored ghosts: family 2, 3.1e-3 -> 1.4e-3
    "P2": 0.02,  # inflow ghosts: family 1, 1.5e-2 -> 9.4e-3
    "P3": 0.06,  # outflow wall, extrapolated ghosts, a cell 0.9% of the
                 # window: family 1, 3.8e-2 -> 2.7e-2 at 0.02 -> 7.7e-3
}

#: A step result beyond this magnitude, or not finite, is a numerical blow-up.
BLOW_LIMIT = 1e6

#: Pad of the active cells, in units of sqrt(K) cells: the numerical
#: diffusion of K steps spreads about sqrt(K) cells.  Largest difference of
#: the stored z, w from the run on every cell at the same dt, desk configs:
#: a pad of 2 cells gives 1e-8 (p3), 3e-10 (p1) and 1e-6 (p2); 2*sqrt(K)
#: gives up to 3.1e-13 (p3, n = 1000); 3*sqrt(K) at most 1.2e-14 (p3, n = 250
#: to 4000; p1 and p2 0).  A test sets it as high as n to evolve every cell.
ACTIVE_PAD_SIGMAS = 3


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [0, x_max], reporting on [0, x_interest]."""

    dx: float
    n: int
    x_interest: float
    x_max: float

    def __post_init__(self):
        if self.dx <= 0.0 or self.n <= 0:
            raise DomainError("grid needs dx > 0 and n > 0")
        if abs(self.dx * self.n - self.x_max) > 1e-9 * max(1.0, self.x_max):
            raise DomainError("grid must satisfy dx * n = x_max")
        if self.x_interest > self.x_max:
            raise DomainError("reporting window cannot exceed the truncation point")

    def cells(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx

    def window(self) -> np.ndarray:
        """Mask of the cells in the reporting window, a leading run of cells."""
        return self.cells() <= self.x_interest + 1e-12


@dataclass
class Field:
    """Invariants at the leading cells of the grid (all of them, unless a
    step evolved fewer) at one time.  When a step made them, ``z`` and ``w``
    are views of the two columns of ``state`` from row 2 on: the (n + 4, 2)
    array of the cells, one per row with z and w side by side, and two ghost
    cells each side."""

    z: np.ndarray
    w: np.ndarray
    t: float
    grid: Grid
    state: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass
class Scenario:
    """One configured run: problem type, physics, region, data and knobs."""

    problem: str
    law: GasLaw
    profile: NozzleProfile
    region: RegionSpec
    z0: Callable
    w0: Callable
    zB: Optional[Callable] = None
    wB: Optional[Callable] = None
    T: float = 1.0
    n: int = 400
    x_interest: float = 1.0
    cfl: float = 0.9
    order: int = 2
    delta1: float = 0.1
    delta2: float = 0.2
    csv_stride: int = 50
    config_text: Optional[str] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # Derived state belongs to this instance: ``dataclasses.replace``
        # hands over the original's dict, whose grid may be for another n.
        self._cache = {}
        if self.problem not in KIND_FOR:
            raise DomainError(f"problem must be P1, P2 or P3, got {self.problem!r}")
        if self.region.kind != KIND_FOR[self.problem]:
            raise DomainError(
                f"problem {self.problem} needs a region of kind "
                f"{KIND_FOR[self.problem]!r}, got {self.region.kind!r}")
        if self.cfl <= 0.0:
            raise DomainError("cfl must be positive (stability needs cfl <= 1)")
        if self.order not in (1, 2):
            raise DomainError("scheme order must be 1 or 2")
        if self.T < 0.0:
            raise DomainError("final time must be nonnegative")
        if self.n < 1:
            raise DomainError(f"n must be at least 1, got {self.n}")
        if self.problem == "P2" and (self.zB is None or self.wB is None):
            raise DomainError("P2 needs boundary data zB(t), wB(t)")

    @property
    def speed_bounds(self) -> SpeedBounds:
        if "bounds" not in self._cache:
            self._cache["bounds"] = region_speed_bounds(self.region, self.law)
        return self._cache["bounds"]

    @property
    def grid(self) -> Grid:
        if "grid" not in self._cache:
            x_max = self.x_interest + self.speed_bounds.lambda_abs_max * self.T
            self._cache["grid"] = Grid(x_max / self.n, self.n, self.x_interest, x_max)
        return self._cache["grid"]

    @property
    def steps(self) -> int:
        """K, the fewest steps of one size dt = T/K over which no speed the
        region allows crosses more than ``cfl`` cells."""
        lam = self.speed_bounds.lambda_abs_max
        return math.ceil(self.T * lam / (self.cfl * self.grid.dx))

    @property
    def dt(self) -> float:
        return self.T / self.steps if self.steps else 0.0

    @property
    def step_times(self) -> np.ndarray:
        """The K + 1 times of the run: k*dt, and T exactly at the end."""
        return np.linspace(0.0, self.T, self.steps + 1)

    def reach(self, t):
        """Right end of the trusted domain at the time(s) ``t`` (see the
        module docstring)."""
        bounds = self.speed_bounds
        lam = bounds.lambda_abs_max
        c_right = lam if max(bounds.sign1, bounds.sign2) > 0 else 0.0
        t = np.asarray(t, dtype=float)
        return np.minimum(self.x_interest + c_right * t, self.grid.x_max - lam * t)

    @property
    def trusted_cells(self) -> int:
        """Leading cells of the grid that a stored snapshot keeps: those up
        to the highest ``reach`` on [0, T], plus two (see the module
        docstring)."""
        if "trusted" not in self._cache:
            # Since x_max = x_interest + lambda_abs_max*T, the two lines of
            # reach cross at T/2 (P1, P2) or T (P3): its top is at 0, T/2 or T.
            top = float(self.reach(np.linspace(0.0, self.T, 3)).max())
            count = int((self.runtime_arrays()["x"] <= top + 1e-12).sum()) + 2
            self._cache["trusted"] = min(self.grid.n, count)
        return self._cache["trusted"]

    @property
    def stored_bytes(self) -> int:
        """Bytes of the z and w rows a run stores: (K + 1) x
        ``trusted_cells`` x 16."""
        return (self.steps + 1) * self.trusted_cells * 16

    def active_cells(self, t):
        """Leading cells that the step from the time(s) ``t`` evolves: those
        a stored column can depend on, plus a pad of
        ``ACTIVE_PAD_SIGMAS*sqrt(K)`` cells (see the module docstring)."""
        bounds = self.speed_bounds
        c_left = bounds.lambda_abs_max if min(bounds.sign1, bounds.sign2) < 0 else 0.0
        x = self.runtime_arrays()["x"]
        edge = x[self.trusted_cells - 1] + c_left * (self.T - np.asarray(t, dtype=float))
        pad = math.ceil(ACTIVE_PAD_SIGMAS * math.sqrt(self.steps))
        return np.minimum(np.searchsorted(x, edge + 1e-12, side="right") + pad, self.grid.n)

    def runtime_arrays(self) -> dict:
        """Grid-sampled profile data used by every step (built once)."""
        if "arrays" not in self._cache:
            grid = self.grid
            x = grid.cells()
            ghost_x = np.array([grid.x_max + 0.5 * grid.dx, grid.x_max + 1.5 * grid.dx])
            a = np.asarray(self.profile.a(x), dtype=float)
            self._cache["arrays"] = {
                "x": x,
                "a": a,
                "coef": source_coef(a, self.law),
                # Far-field ghosts, rows z and w: the initial data past x_max.
                "gr": np.array([np.broadcast_to(fn(ghost_x), 2) for fn in (self.z0, self.w0)],
                               dtype=float),
                "window": grid.window(),
            }
        return self._cache["arrays"]

    def majorant_integral(self, x) -> np.ndarray:
        """s(x), the integral of abar from 0 to the points ``x`` of [0, x_max],
        which places the invariant rectangle at x.  Only the region checks
        read it, so its quadrature table (``NozzleProfile.quadrature_table``
        on [0, x_max]) is built at the first call, once per scenario."""
        if "s_table" not in self._cache:
            self._cache["s_table"] = self.profile.quadrature_table(self.grid.x_max)
        return np.asarray(self.profile.cum_abar(x, self._cache["s_table"]), dtype=float)

    def initial_field(self) -> Field:
        x = self.grid.cells()
        z = np.asarray(self.z0(x), dtype=float).copy()
        w = np.asarray(self.w0(x), dtype=float).copy()
        return Field(z, w, 0.0, self.grid)


@dataclass
class BoundaryValues:
    """Left ghost cells ``gl`` (rows z and w, cells [-2, -1]) and the x = 0
    edge trace."""

    gl: np.ndarray
    z_edge: float
    w_edge: float


def boundary_update(fld: Field, t: float, scn: Scenario) -> BoundaryValues:
    """Problem-specific ghost/edge values at time t."""
    if scn.problem == "P1":
        (z0, z1), (w0, w1) = fld.z[:2].tolist(), fld.w[:2].tolist()
        z_edge = 1.5 * z0 - 0.5 * z1
        w_edge = -z_edge
        lam1, lam2 = speeds_zw(z_edge, w_edge, scn.law)
        if not (lam1 < 0.0 < lam2):
            raise SonicBoundaryError(
                f"wall boundary needs lambda1 < 0 < lambda2, got "
                f"({float(lam1):.6g}, {float(lam2):.6g}) at t={t:.6g}", t=t)
        # Mirrored: the ghosts of each row are the other row's cells, negated.
        gl = [[-other[1], -other[0]] for other in ((w0, w1), (z0, z1))]
    elif scn.problem == "P2":
        zb, wb = float(scn.zB(t)), float(scn.wB(t))
        z_edge, w_edge = zb, wb
        # Characteristic-shifted ghosts: the state at x < 0 is the boundary
        # value that will arrive at the wall a travel time later.  Constant
        # ghosts would plant an O(dx) inflow layer.
        lam1, lam2 = speeds_zw(zb, wb, scn.law)
        dx = fld.grid.dx
        gl = [[float(fn(t + 1.5 * dx / float(lam))), float(fn(t + 0.5 * dx / float(lam)))]
              for fn, lam in ((scn.zB, lam1), (scn.wB, lam2))]
    else:
        rows = (fld.z[:3].tolist(), fld.w[:3].tolist())
        z_edge, w_edge = (1.5 * u0 - 0.5 * u1 for u0, u1, _ in rows)
        # Quadratic continuation at the pure-outflow wall: lower-order ghosts
        # plant a boundary layer whose gradients do not converge.
        gl = [[6.0 * u0 - 8.0 * u1 + 3.0 * u2, 3.0 * u0 - 3.0 * u1 + u2]
              for u0, u1, u2 in rows]
    return BoundaryValues(np.array(gl), z_edge, w_edge)


class _Stages:
    """Arrays the evolve stages write into, allocated once per scenario for
    the whole grid; a stage on the first m cells uses their leading part.
    Two-row arrays are laid out as the state is, cell by cell."""

    def __init__(self, scn: Scenario):
        n = scn.grid.n
        self.coef = scn.runtime_arrays()["coef"]
        self.half_theta = 0.5 * scn.law.theta
        self.mid = np.empty((n + 4, 2))  # the second stage's state
        self.lam = np.empty((n + 4, 2))
        self.gap, self.total, self.v, self.c = (np.empty(n + 4) for _ in range(4))
        self.d = np.empty(2 * (n + 2))
        self.prod, self.den, self.slope, self.face = (np.empty(2 * (n + 1)) for _ in range(4))
        self.pos = np.empty(2 * (n + 1), dtype=bool)
        self.grad = np.empty(2 * n)
        self.f1, self.f2, self.inc = (np.empty((n, 2)) for _ in range(3))


def _stages(scn: Scenario) -> _Stages:
    if "stages" not in scn._cache:
        scn._cache["stages"] = _Stages(scn)
    return scn._cache["stages"]


def _limited_slope(a, b, work: Optional[_Stages] = None):
    """van Leer harmonic slope 2ab/(a+b) where ab > 0, else 0: TVD, and smooth
    in the slope ratio (minmod's branch switching staircases smooth profiles,
    which wrecks the convergence of derivative diagnostics).  With ``work``,
    for 1-D ``a`` and ``b``, its arrays hold the temporaries and the result."""
    if work is None:
        prod, den, pos, slope = None, None, None, np.zeros(np.shape(a))
    else:
        k = a.size
        prod, den, pos, slope = work.prod[:k], work.den[:k], work.pos[:k], work.slope[:k]
        slope.fill(0.0)
    prod = np.multiply(a, b, out=prod)
    pos = np.greater(prod, 0.0, out=pos)
    den = np.add(a, b, out=den)
    # Masked: on a run's own slopes, ab > 0 at 98% of the faces (p3, n = 1000
    # and 2000), and the masked divide into zeros costs less than an unmasked
    # one plus the select and the errstate it needs (15 against 19 us a call
    # on a 2-core x86-64 VM, numpy 2.4).
    return np.divide(np.multiply(prod, 2.0, out=prod), den, out=slope, where=pos)


def _upwind_gradient(u_ext, lam_ext, dx: float, order: int):
    """Upwind-biased gradient at the n interior cells from the extended array
    (two ghosts each side); upwind side chosen by the face-mean speed.  Rows
    of a 2-D ``u_ext`` are independent fields, each with its own speeds."""
    n = u_ext.shape[-1] - 4
    lam_face = 0.5 * (lam_ext[..., 1:n + 2] + lam_ext[..., 2:n + 3])
    if order == 1:
        u_face = np.where(lam_face >= 0.0, u_ext[..., 1:n + 2], u_ext[..., 2:n + 3])
    else:
        d = u_ext[..., 1:] - u_ext[..., :-1]
        slope = _limited_slope(d[..., :-1], d[..., 1:])
        u_face = np.where(lam_face >= 0.0,
                          u_ext[..., 1:n + 2] + 0.5 * slope[..., 0:n + 1],
                          u_ext[..., 2:n + 3] - 0.5 * slope[..., 1:n + 2])
    return (u_face[..., 1:] - u_face[..., :-1]) / dx


def _one_sided_gradient(flat, leftward: bool, dx: float, order: int, work: _Stages):
    """``_upwind_gradient`` of both rows when every face-mean speed has one
    sign: each face takes its right cell (``leftward``, all speeds < 0) or
    its left cell (all speeds >= 0), and only the slopes those cells need
    are formed.  ``flat`` is the block of m cells and their ghosts as one
    1-D array, z and w of each cell side by side, so a shift of one cell is
    a shift of two entries and each operation covers both rows."""
    m = flat.size // 2 - 4
    s = 2 * int(leftward)
    u_face = flat[2 + s:2 * m + 4 + s]
    if order == 2:
        d = np.subtract(flat[2 + s:2 * m + 6 + s], flat[s:2 * m + 4 + s],
                        out=work.d[:2 * m + 4])
        half = _limited_slope(d[:-2], d[2:], work)
        np.multiply(half, 0.5, out=half)
        u_face = (np.subtract if leftward else np.add)(u_face, half,
                                                       out=work.face[:2 * m + 2])
    grad = np.subtract(u_face[2:], u_face[:-2], out=work.grad[:2 * m])
    return np.divide(grad, dx, out=grad).reshape(m, 2)


def _stage_rhs(ext, out, scn: Scenario, work: _Stages):
    """Time derivative of the state in the interior of ``ext`` (m cells and
    two ghosts each side, laid out as the state), written into ``out``:
    each row advected with its own speed, plus the source.  When every
    speed of the stage is < 0 or every one is >= 0, so is every face mean,
    and the upwind side is known without comparing them."""
    m = len(ext) - 4
    z, w = ext[:, 0], ext[:, 1]
    gap = np.subtract(w, z, out=work.gap[:m + 4])
    total = np.add(w, z, out=work.total[:m + 4])
    # lambda1, lambda2 = v -+ c with v = (w + z)/2 and c = (theta/2)(w - z).
    v = np.multiply(total, 0.5, out=work.v[:m + 4])
    c = np.multiply(gap, work.half_theta, out=work.c[:m + 4])
    lam = work.lam[:m + 4]
    np.subtract(v, c, out=lam[:, 0])
    np.add(v, c, out=lam[:, 1])
    dx, order = scn.grid.dx, scn.order
    if lam.max() < 0.0:
        grad = _one_sided_gradient(ext.reshape(-1), True, dx, order, work)
    elif lam.min() >= 0.0:
        grad = _one_sided_gradient(ext.reshape(-1), False, dx, order, work)
    else:  # mixed signs (P1), NaN, or a state that left the region
        grad = _upwind_gradient(ext.T, lam.T, dx, order).T
    sz, sw = source_pair(gap[2:-2], total[2:-2], work.coef[:m])
    np.multiply(lam[2:-2], grad, out=out)
    np.subtract(sz, out[:, 0], out=out[:, 0])
    np.subtract(sw, out[:, 1], out=out[:, 1])
    return out


def _state_of(fld: Field, scn: Scenario) -> np.ndarray:
    """The state array of ``fld``: its own, when a step made it, else a new
    one with the far-field ghosts in its last two cells (``fld`` must then
    cover the grid)."""
    if fld.state is not None:
        return fld.state
    state = np.empty((scn.grid.n + 4, 2))
    state[2:-2, 0] = fld.z
    state[2:-2, 1] = fld.w
    state[-2:] = scn.runtime_arrays()["gr"].T
    return state


def _leading(state: np.ndarray, m: int, t: float, grid: Grid) -> Field:
    """The field of the first ``m`` cells of ``state``."""
    return Field(state[2:m + 2, 0], state[2:m + 2, 1], t, grid, state)


def step(fld: Field, dt: float, scn: Scenario, bv: Optional[BoundaryValues] = None) -> Field:
    """One explicit step (forward Euler or two-stage second order) of the
    cells of ``fld``: the whole grid, or the leading cells of a field whose
    state array holds the next two, its right ghosts.  ``bv`` are the
    boundary values of ``fld`` when the caller has them.  Returns the same
    cells at t + dt, in a new state array whose other cells keep their
    values."""
    t, m = fld.t, fld.z.size
    state = _state_of(fld, scn)
    work = _stages(scn)
    new = np.empty_like(state)
    new[m + 2:] = state[m + 2:]
    out = new[2:m + 2]
    ext = state[:m + 4]
    ext[:2] = (bv if bv is not None else boundary_update(fld, t, scn)).gl.T
    u = ext[2:-2]
    f1 = _stage_rhs(ext, work.f1[:m], scn, work)
    inc = np.multiply(f1, dt, out=work.inc[:m])
    if scn.order == 1:
        np.add(u, inc, out=out)
    else:
        mid = work.mid[:m + 4]
        np.add(u, inc, out=mid[2:-2])
        mid[-2:] = ext[-2:]
        mid[:2] = boundary_update(_leading(mid, m, t + dt, fld.grid), t + dt, scn).gl.T
        f2 = _stage_rhs(mid, work.f2[:m], scn, work)
        np.multiply(np.add(f1, f2, out=inc), 0.5 * dt, out=inc)
        np.add(u, inc, out=out)
    if not (out.max() <= BLOW_LIMIT and out.min() >= -BLOW_LIMIT):  # NaN fails too
        bad = ~(np.abs(out) <= BLOW_LIMIT)
        cell = int(np.argmax(bad.any(axis=1)))
        raise BlowUpError(
            f"solution left the finite range at t={t + dt:.6g}, cell {cell} "
            f"(x={(cell + 0.5) * fld.grid.dx:.6g})", t=t + dt, cell=cell)
    return _leading(new, m, t + dt, fld.grid)


#: Relative tolerance of a stored run's time gaps against its steps ``dts``:
#: round-off is at most 1e-13 on the desk configs, a skipped step about 1.
STEP_MATCH = 1e-9

#: Ceiling on the bytes a run stores (``Scenario.stored_bytes``): the run and
#: its post-pass hold every stored row at once, so a config past it would end
#: in an allocation failure after its certificates, not in a report.  The
#: desk configs store at most 115 MiB at n = 4000 and 458 MiB at n = 8000
#: (p2); p3_desk at n = 100 and cfl = 1e-9 asks for 9.4e10 steps, 11 TiB.
STORED_BYTES_MAX = 2 ** 30

#: Stored steps that one pass over a run evaluates at once (the monitors, the
#: tracer's speed and sample rows, the derivative extremes, the conservative
#: residual), so the derived arrays of a pass take memory for a block of
#: rows, not for the run.  A module hook: tests set it from 1 up.
_BLOCK = 64


def blocks(start: int, stop: int):
    """The (lo, hi) bounds of consecutive blocks of at most ``_BLOCK`` rows
    that cover the rows ``start`` to ``stop`` - 1."""
    for lo in range(start, stop, _BLOCK):
        yield lo, min(lo + _BLOCK, stop)


#: What a trajectory stores per snapshot, in the order ``append`` takes it:
#: time, step, the trusted columns of z and w, and the x = 0 edge traces.
_STORED = ("times", "dts", "z", "w", "z_edge", "w_edge")


class Trajectory:
    """Stored snapshots of one run plus their space-time interpolator.

    One snapshot per step keeps the first ``scenario.trusted_cells``
    columns.  ``append`` writes them into rows allocated for the K + 1
    snapshots of a run, and ``finalize`` makes the rows written so far the
    arrays ``times``, ``dts``, ``z``, ``w``, ``z_edge`` and ``w_edge``, so
    each snapshot is held once.  ``rows`` are the arrays of a stored run.
    ``blow_up`` is None for a run that reached T, else the failure's
    ``t``, ``cell`` and ``message`` (empty if a stored file lacks them)."""

    def __init__(self, scenario: Scenario, rows: Optional[dict] = None):
        self.scenario = scenario
        self.grid = scenario.grid
        self.blow_up = None
        if rows is None:
            snaps, m = scenario.steps + 1, scenario.trusted_cells
            rows = {name: np.empty((snaps, m) if name in ("z", "w") else snaps)
                    for name in _STORED}
            self._count = 0
        else:
            self._count = len(rows["times"])
        self._rows = rows

    @classmethod
    def from_npz(cls, scenario: Scenario, data,
                 blow_up: Optional[dict] = None) -> "Trajectory":
        """The run of ``scenario`` that ``save`` stored in ``data`` (an open
        ``.npz`` or any mapping of its arrays).  Keys, shapes and one snapshot
        per step are checked; snapshots wider than the trusted columns, as
        written before storage was trimmed, are trimmed."""
        missing = [name for name in _STORED if name not in data]
        if missing:
            raise TrajectoryFileError(f"missing arrays: {', '.join(missing)}")
        arrays = {name: np.asarray(data[name]) for name in _STORED}
        for name, arr in arrays.items():
            if arr.dtype.kind not in "fiu":
                raise TrajectoryFileError(f"{name} holds {arr.dtype} values, not numbers")
        snaps = arrays["times"].shape
        if len(snaps) != 1 or snaps[0] < 1:
            raise TrajectoryFileError(f"times must be a nonempty 1-D array, has shape {snaps}")
        for name in ("dts", "z_edge", "w_edge"):
            if arrays[name].shape != snaps:
                raise TrajectoryFileError(
                    f"{name} has shape {arrays[name].shape}, times {snaps}")
        gaps, dts = np.diff(arrays["times"]), arrays["dts"][1:]
        if not np.all(np.abs(gaps - dts) <= STEP_MATCH * np.abs(dts)):
            raise TrajectoryFileError("time gaps differ from dts: snapshots skip steps")
        shape = arrays["z"].shape
        if arrays["w"].shape != shape:
            raise TrajectoryFileError(f"z has shape {shape}, w {arrays['w'].shape}")
        m, n = scenario.trusted_cells, scenario.grid.n
        if len(shape) != 2 or shape[0] != snaps[0] or not m <= shape[1] <= n:
            raise TrajectoryFileError(
                f"z and w have shape {shape}, need ({snaps[0]}, m) with {m} <= m <= {n}")
        for name in ("z", "w"):
            arrays[name] = arrays[name][:, :m]
        rows = {name: np.ascontiguousarray(arr, dtype=float) for name, arr in arrays.items()}
        return cls(scenario, rows).finalize(blow_up)

    def append(self, fld: Field, dt: float, bv: BoundaryValues):
        k, m = self._count, self.scenario.trusted_cells
        for name, value in zip(_STORED, (fld.t, dt, fld.z[:m], fld.w[:m],
                                         bv.z_edge, bv.w_edge)):
            self._rows[name][k] = value
        self._count = k + 1

    def finalize(self, blow_up: Optional[dict] = None):
        """Take the snapshots written so far as the run; ``run`` calls this
        once, at the end of the run or at its abort (with the failure's
        details), and ``from_npz`` on the loaded arrays."""
        self.blow_up = blow_up
        for name, rows in self._rows.items():
            setattr(self, name, rows[:self._count])
        self._rows = None
        return self

    @property
    def blown_up(self) -> bool:
        return self.blow_up is not None

    def block(self, names, lo: int = 0, hi: Optional[int] = None) -> list:
        """Rows ``lo`` to ``hi`` - 1 (to the end by default) of the stacks
        ``names``: ``z`` and ``w`` as stored, ``zx`` and ``wx`` their central
        x-gradients, and ``lam`` lambda1 of these rows above lambda2 of these
        rows.  Each row is a function of its own snapshot, so the rows of a
        block are bitwise those of the whole run."""
        z, w = self.z[lo:hi], self.w[lo:hi]
        out = []
        for name in names:
            if name == "lam":
                lam = np.empty((2,) + z.shape)
                speeds_zw(z, w, self.scenario.law, out=lam)
                out.append(lam.reshape(-1, z.shape[1]))
            elif name in ("zx", "wx"):
                out.append(np.gradient(z if name == "zx" else w, self.grid.dx, axis=1))
            else:
                out.append({"z": z, "w": w}[name])
        return out

    def time_weights(self, t):
        """Locate the times ``t`` in the stored run: the bracketing snapshot
        indices ``k`` <= ``k2`` and the weight ``tau`` of the later one.
        Times past the run take its first or last snapshot."""
        times = self.times
        last = len(times) - 1
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, last)
        k2 = np.minimum(k + 1, last)
        moving = k2 != k
        span = np.where(moving, times[k2] - times[k], 1.0)
        tau = np.where(moving, np.clip((t - times[k]) / span, 0.0, 1.0), 0.0)
        return k, k2, tau

    def interpolate(self, x, when, stacks) -> list:
        """Bilinear space-time interpolation of ``stacks``, rows of the
        stored stacks as ``block`` gives them, at positions ``x`` and at the
        rows ``when = (k, k2, tau)``: the bracketing snapshots and the weight
        of the later one, as ``time_weights`` locates them, less the index of
        the block's first snapshot.  ``t`` has the shape of ``x``, or is one
        time shared by every point.  Positions past the stored columns take
        their outermost pair.  A ``lam`` block holds lambda1 of its rows
        above lambda2: add its row count to read lambda2."""
        k, k2, tau = when
        # np.minimum(np.maximum(...)) is np.clip without its per-call cost,
        # which dominates at the few dozen points of one RK4 stage.
        xi = np.asarray(x, dtype=float) / self.grid.dx - 0.5
        i = np.minimum(np.maximum(np.floor(xi), 0), self.scenario.trusted_cells - 2)
        frac = np.minimum(np.maximum(xi - i, 0.0), 1.0)
        i = i.astype(np.intp)
        i1, rest, stay = i + 1, 1.0 - frac, 1.0 - tau
        out = []
        for stack in stacks:
            lo = rest * stack[k, i] + frac * stack[k, i1]
            hi = rest * stack[k2, i] + frac * stack[k2, i1]
            out.append(stay * lo + tau * hi)
        return out

    def save(self, path):
        if self.scenario.config_text is None:
            raise DomainError("trajectory saving needs the originating config text")
        meta = {"config_text": self.scenario.config_text, "blown_up": self.blown_up}
        if self.blow_up:
            meta["blow_up"] = self.blow_up
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as npz:
            # The config text compresses well only at a high level, and it
            # is small enough that the level costs nothing.
            record = io.BytesIO()
            np.lib.format.write_array(record, np.array(json.dumps(meta)), allow_pickle=False)
            npz.writestr("meta.npy", record.getvalue(), compresslevel=9)
            for name in _STORED:
                with npz.open(name + ".npy", "w", force_zip64=True) as entry:
                    np.lib.format.write_array(entry, getattr(self, name),
                                              allow_pickle=False)


def run(scn: Scenario):
    """Integrate to T in ``scn.steps`` steps of ``scn.dt``, each on the
    ``scn.active_cells`` of its start, storing a snapshot every step.
    Returns (trajectory, field); the returned field covers the whole grid.
    A numerical blow-up, or a wall that turns sonic after t = 0, aborts the
    run with the partial trajectory attached to the error."""
    fld = scn.initial_field()
    traj = Trajectory(scn)
    bv = boundary_update(fld, 0.0, scn)
    traj.append(fld, 0.0, bv)
    times, n, dt = scn.step_times, scn.grid.n, scn.dt
    state = _state_of(fld, scn)
    try:
        for k, m in enumerate(scn.active_cells(times[:-1]).tolist()):
            state = step(_leading(state, m, times[k], scn.grid), dt, scn, bv).state
            fld = _leading(state, n, times[k + 1], scn.grid)
            bv = boundary_update(fld, fld.t, scn)
            traj.append(fld, dt, bv)
    except RunAbortedError as err:
        err.trajectory = traj.finalize({"t": err.t, "cell": err.cell, "message": str(err)})
        raise
    return traj.finalize(), fld

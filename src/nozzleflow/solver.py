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
flat view, so where both rows read from one side, each operation of the
upwind gradient covers both on contiguous memory (on two strided rows numpy
takes about twice as long).

``run`` allocates two state arrays and alternates them: each step reads one
and writes the other.  The array it writes holds the state of one step
earlier, so its cells past the active ones are up to date except where the
last step evolved more cells; ``run`` copies those before the step.  The
left ghosts are written straight into a state's first two rows
(``_write_ghosts``), and each snapshot goes straight into the trajectory's
rows, allocated for the run.
The P2 inflow ghosts depend on t alone: the ghosts after a second-order
step are those of its second stage, reused, when ``t_k + dt == t_{k+1}``
exactly (70-89% of the desk steps).  The inflow data are evaluated one time
value at a time, never over an array of times: numpy's power over an array
is not bitwise its value at each time (``1.4 + 0.01*(1 + t)^1.5`` differs
at 5 of 5000 random t).

The upwind side is certified too: the region fixes each speed's sign
(``speed_bounds.sign1``, ``sign2``), so each row reads from one side all
run, and a stage forms only those limited face values, with no face-mean
speeds and no per-face choice.  On P2 (>= 0) and P3 (< 0) both rows share a
side and take one gradient of the flat block; on P1 z reads from the right
and w from the left, one gradient each.  In the region every face mean has
the certified sign, so the side is the one it would choose; a state that
leaves the region (past the certified cfl, say) keeps the sides, and the
monitors flag it or it blows up.  The stages write into arrays allocated
once per run (``_Stages``), through views that both share (``_Width``): of
the work arrays, and of the arrays the stages read: an ``_Operand`` for
each of the two states and for the second stage's ``mid``, handed to the
stage that reads it.  A step called alone builds the same workspace as
``run``.  The views are cut once per ``_QUANTUM`` = 16
cells of width: a cut lasts until the active width has shrunk by 16 cells,
so a step on m cells computes the W >= m cells of its cut.  Before the
second stage, the cells of ``mid`` from m on take the state's values, so
cells m and m + 1 are still its right ghosts; only the m cells are written
into the new state and checked for a blow-up, and the others keep the
state's values.  Each of the m cells takes the same operations as it would
row by row, so at the same dt and on the same cells the result is bitwise
that of two separate row updates.  ``report.json``'s ``cell_steps`` counts
the m cells of each step, not the W of its cut.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import InitVar, dataclass, field
from functools import cached_property
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

#: Cells by which the active width shrinks before ``_Stages.at`` cuts the
#: work views anew: a step computes the cells of the last cut, up to
#: ``_QUANTUM`` - 1 more than its active ones.  At 16, p3_desk at n = 1000
#: cuts 53 times in 1048 steps, against 844 cuts at one a width.
_QUANTUM = 16


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


@dataclass(frozen=True)
class Scenario:
    """One configured run: problem type, physics, region, data and knobs.

    Frozen, with what derives from the fields in cached properties, which
    ``dataclasses.replace`` does not copy.  ``config_text`` is the parsed
    text, which ``replace`` keeps; ``Trajectory.from_npz`` refuses a run
    that is not its config's.  ``_cache`` is accepted and ignored."""

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
    _cache: InitVar[Optional[dict]] = None

    def __post_init__(self, _cache):
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
        if self.csv_stride < 1:
            raise DomainError(f"csv_stride must be at least 1, got {self.csv_stride}")
        if self.problem == "P2" and (self.zB is None or self.wB is None):
            raise DomainError("P2 needs boundary data zB(t), wB(t)")

    @cached_property
    def speed_bounds(self) -> SpeedBounds:
        return region_speed_bounds(self.region, self.law)

    @cached_property
    def grid(self) -> Grid:
        x_max = self.x_interest + self.speed_bounds.lambda_abs_max * self.T
        return Grid(x_max / self.n, self.n, self.x_interest, x_max)

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

    @cached_property
    def window_cells(self) -> int:
        """Cells of the reporting window [0, x_interest], a leading run of
        the grid's cells."""
        return int((self.grid.cells() <= self.x_interest + 1e-12).sum())

    @cached_property
    def trusted_cells(self) -> int:
        """Leading cells of the grid that a stored snapshot keeps: those up
        to the highest ``reach`` on [0, T], plus two (see the module
        docstring)."""
        # Since x_max = x_interest + lambda_abs_max*T, the two lines of
        # reach cross at T/2 (P1, P2) or T (P3): its top is at 0, T/2 or T.
        top = float(self.reach(np.linspace(0.0, self.T, 3)).max())
        count = int((self.runtime_arrays["x"] <= top + 1e-12).sum()) + 2
        return min(self.grid.n, count)

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
        x = self.runtime_arrays["x"]
        edge = x[self.trusted_cells - 1] + c_left * (self.T - np.asarray(t, dtype=float))
        pad = math.ceil(ACTIVE_PAD_SIGMAS * math.sqrt(self.steps))
        return np.minimum(np.searchsorted(x, edge + 1e-12, side="right") + pad, self.grid.n)

    @cached_property
    def runtime_arrays(self) -> dict:
        """Grid-sampled profile data used by every step."""
        grid = self.grid
        x = grid.cells()
        ghost_x = np.array([grid.x_max + 0.5 * grid.dx, grid.x_max + 1.5 * grid.dx])
        a = np.asarray(self.profile.a(x), dtype=float)
        return {"x": x, "a": a, "coef": source_coef(a, self.law),
                # Far-field ghosts, rows z and w: the initial data past x_max.
                "gr": np.array([np.broadcast_to(fn(ghost_x), 2) for fn in (self.z0, self.w0)],
                               dtype=float)}

    @cached_property
    def _s_table(self) -> tuple:
        return self.profile.quadrature_table(self.grid.x_max)

    def majorant_integral(self, x) -> np.ndarray:
        """s(x), the integral of abar from 0 to the points ``x`` of [0, x_max],
        which places the invariant rectangle at x.  Only the region checks
        read it, so its quadrature table (``NozzleProfile.quadrature_table``
        on [0, x_max]) is built at the first call, once per scenario."""
        return np.asarray(self.profile.cum_abar(x, self._s_table), dtype=float)

    def initial_field(self) -> Field:
        x = self.grid.cells()
        z = np.asarray(self.z0(x), dtype=float).copy()
        w = np.asarray(self.w0(x), dtype=float).copy()
        return Field(z, w, 0.0, self.grid)


def _write_ghosts(state: np.ndarray, t: float, scn: Scenario, work: _Stages) -> None:
    """Write the left ghost cells of ``state`` (its rows 0 and 1, cells -2
    and -1) for time t."""
    if scn.problem == "P1":
        (z0, w0), (z1, w1) = state[2:4].tolist()
        # The wall state at x = 0, extrapolated z and w = -z, must be subsonic.
        z_edge = 1.5 * z0 - 0.5 * z1
        lam1, lam2 = speeds_zw(z_edge, -z_edge, scn.law)
        if not (lam1 < 0.0 < lam2):
            raise SonicBoundaryError(
                f"wall boundary needs lambda1 < 0 < lambda2, got "
                f"({float(lam1):.6g}, {float(lam2):.6g}) at t={t:.6g}", t=t)
        # Mirrored: the ghosts of each row are the other row's cells, negated.
        state[0, 0], state[0, 1], state[1, 0], state[1, 1] = -w1, -z1, -w0, -z0
    elif scn.problem == "P2":
        # The inflow ghosts depend on t alone, so those of the last time are
        # kept in ``work``: after a second-order step they are its second
        # stage's when t_k + dt == t_{k+1} exactly.
        if work.inflow_t != t:
            # Characteristic-shifted ghosts: the state at x < 0 is the
            # boundary value that will arrive at the wall a travel time
            # later.  Constant ghosts would plant an O(dx) inflow layer.
            lam1, lam2 = speeds_zw(float(scn.zB(t)), float(scn.wB(t)), scn.law)
            dx = scn.grid.dx
            work.inflow_t, work.inflow = t, np.array(
                [[float(fn(t + h * dx / float(lam)))
                  for fn, lam in ((scn.zB, lam1), (scn.wB, lam2))] for h in (1.5, 0.5)])
        state[:2] = work.inflow
    else:
        (z0, w0), (z1, w1), (z2, w2) = state[2:5].tolist()
        # Quadratic continuation at the pure-outflow wall: lower-order ghosts
        # plant a boundary layer whose gradients do not converge.
        state[0, 0], state[0, 1] = 6.0 * z0 - 8.0 * z1 + 3.0 * z2, 6.0 * w0 - 8.0 * w1 + 3.0 * w2
        state[1, 0], state[1, 1] = 3.0 * z0 - 3.0 * z1 + z2, 3.0 * w0 - 3.0 * w1 + w2


class _Stages:
    """Arrays the evolve stages write into, allocated once per run for the
    whole grid; a step on the first m cells computes on the views of the
    cut that ``at(m)`` gives.  Two-row arrays are laid out as the state is,
    cell by cell.  ``buffers`` are the two state arrays that the steps
    alternate (``step``), whose views each cut keeps too."""

    def __init__(self, scn: Scenario, buffers: tuple = ()):
        n = scn.grid.n
        self.coef = scn.runtime_arrays["coef"]
        # The stages' scalar factors as 0-d arrays: a ufunc converts a Python
        # float anew at each call, which costs a third of a call on 1000 cells.
        self.half, self.half_theta = np.array(0.5), np.array(0.5 * scn.law.theta)
        self.dx, self.order = np.array(scn.grid.dx), scn.order
        # A stage makes one gradient call on the flat block of both rows when
        # they read from the same side, else one a row: the side each call
        # reads from (right if its speeds are < 0), and a cell's entries.
        bounds = scn.speed_bounds
        sides = (bounds.sign1 < 0, bounds.sign2 < 0)
        self.leftward = sides[:1] if sides[0] == sides[1] else sides
        self.entries = 2 // len(self.leftward)
        self.mid = np.empty((n + 4, 2))  # the second stage's state
        self.buffers = buffers
        self.lam = np.empty((n, 2))
        self.gap, self.total, self.v, self.c = (np.empty(n) for _ in range(4))
        self.d = np.empty(2 * (n + 2))
        self.prod, self.den, self.slope, self.face = (np.empty(2 * (n + 1)) for _ in range(4))
        self.pos = np.empty(2 * (n + 1), dtype=bool)
        self.grad = np.empty((n, 2))
        self.f1, self.f2, self.inc = (np.empty((n, 2)) for _ in range(3))
        # The last time the P2 ghosts were formed for, and their rows.
        self.inflow_t, self.inflow = None, None
        self.width = None

    def calls(self, a: np.ndarray) -> tuple:
        """The views of the two-row ``a`` that the gradient calls read or
        write, one for each entry of ``leftward``."""
        return (a.reshape(-1),) if self.entries == 2 else (a[:, 0], a[:, 1])

    def at(self, m: int) -> "_Width":
        """The cut for a step on the first m cells: the last one while it
        is at most ``_QUANTUM`` - 1 cells wider, else a new one of m cells."""
        width = self.width
        if width is None or not m <= width.m < m + _QUANTUM:
            width = self.width = _Width(self, m)
        return width


class _Operand:
    """The views of one array laid out as the state, of the W cells of a
    cut: ``ext`` (the cells and two ghosts each side), its ``cells`` and
    their ``z`` and ``w`` columns, and for each gradient call the slices of
    its input that the faces read (``_cuts``)."""

    def __init__(self, a: np.ndarray, work: _Stages, m: int):
        self.ext = a[:m + 4]
        self.cells = self.ext[2:-2]
        self.z, self.w = self.cells[:, 0], self.cells[:, 1]
        self.cuts = [_cuts(u, leftward, work, m)
                     for u, leftward in zip(work.calls(self.ext), work.leftward)]


def _cuts(u, leftward: bool, work: _Stages, m: int) -> tuple:
    """The slices of ``u`` (m cells and two ghosts each side) that the upwind
    faces read from (``_one_sided_gradient``): the lower and upper faces'
    cells at order 1; at order 2 the two ends of each difference and the
    faces' cells."""
    e = work.entries
    s = e * int(leftward)
    if work.order == 1:
        return u[e + s:e * (m + 1) + s], u[2 * e + s:e * (m + 2) + s]
    return u[e + s:e * (m + 3) + s], u[s:e * (m + 2) + s], u[e + s:e * (m + 2) + s]


class _Width:
    """One cut: the views of the ``_Stages`` arrays that both stages of a
    step on its first W = ``m`` cells write into, and the ``_Operand`` of
    each array the stages read: ``mid``, and ``states``, one for each of the
    ``buffers`` in their order.  Made once per cut.  The gradient's
    temporaries hold ``work.entries`` entries a cell: both rows, or one."""

    def __init__(self, work: _Stages, m: int):
        self.m, e = m, work.entries
        self.gap, self.total, self.v, self.c = (a[:m] for a in (work.gap, work.total,
                                                                 work.v, work.c))
        self.lam = work.lam[:m]
        self.lam1, self.lam2 = self.lam[:, 0], self.lam[:, 1]
        self.coef = work.coef[:m]
        faces = e * (m + 1)
        self.d = work.d[:faces + e]
        self.d_lo, self.d_hi = self.d[:-e], self.d[e:]
        self.prod, self.den, self.pos = work.prod[:faces], work.den[:faces], work.pos[:faces]
        self.slope, self.face = work.slope[:faces], work.face[:faces]
        self.face_lo, self.face_hi = self.face[:-e], self.face[e:]
        self.grad = work.grad[:m]
        self.grads = work.calls(self.grad)
        self.inc = work.inc[:m]
        # Each stage's derivative, with its z and w columns.
        f1, f2 = work.f1[:m], work.f2[:m]
        self.f1, self.f2 = (f1, f1[:, 0], f1[:, 1]), (f2, f2[:, 0], f2[:, 1])
        self.mid = _Operand(work.mid, work, m)
        self.states = [_Operand(a, work, m) for a in work.buffers]


def _limited_slope(a, b, work):
    """van Leer harmonic slope 2ab/(a+b) where ab > 0, else 0: TVD, and smooth
    in the slope ratio (minmod's branch switching staircases smooth profiles,
    which wrecks the convergence of derivative diagnostics).  The arrays
    ``prod``, ``den``, ``pos`` and ``slope`` of ``work``, of the size of the
    1-D ``a`` and ``b``, hold the temporaries and the result."""
    prod, den, pos, slope = work.prod, work.den, work.pos, work.slope
    slope.fill(0.0)
    np.multiply(a, b, out=prod)
    np.greater(prod, 0.0, out=pos)
    np.add(a, b, out=den)
    # Masked: on a run's own slopes, ab > 0 at 98% of the faces (p3, n = 1000
    # and 2000), and the masked divide into zeros costs less than an unmasked
    # one plus the select and the errstate it needs (15 against 19 us a call
    # on a 2-core x86-64 VM, numpy 2.4).
    return np.divide(np.multiply(prod, 2.0, out=prod), den, out=slope, where=pos)


def _one_sided_gradient(cuts: tuple, out, leftward: bool, work: _Stages, width: _Width):
    """Upwind gradient at the ``width.m`` cells of an input ``u`` (with two
    ghosts each side), written into ``out``: each face takes the limited
    value of its right cell (``leftward``, the certified speeds < 0) or its
    left cell (>= 0), and only the slopes those cells need are formed.
    ``cuts`` are the slices of ``u`` that the faces read, as ``_cuts`` gives
    them (a cut keeps them, ``_Operand``).  ``u`` is one row, or the flat
    block of both with z and w of each cell side by side (a cell is
    ``work.entries`` entries), so that each operation covers both."""
    if work.order == 1:
        face_lo, face_hi = cuts
    else:
        ahead, behind, centre = cuts
        np.subtract(ahead, behind, out=width.d)
        half = _limited_slope(width.d_lo, width.d_hi, width)
        np.multiply(half, work.half, out=half)
        (np.subtract if leftward else np.add)(centre, half, out=width.face)
        face_lo, face_hi = width.face_lo, width.face_hi
    np.subtract(face_hi, face_lo, out=out)
    np.divide(out, work.dx, out=out)


def _stage_rhs(views: _Operand, rhs, work: _Stages, width: _Width):
    """Time derivative of the state at the W cells of the cut ``width``
    that ``views`` holds (one of ``width.states``, or ``width.mid``),
    written into ``rhs``, one of ``width.f1`` and ``width.f2``: each row
    advected with its own speed from the upwind side the region certifies,
    plus the source."""
    gap = np.subtract(views.w, views.z, out=width.gap)
    total = np.add(views.w, views.z, out=width.total)
    # lambda1, lambda2 = v -+ c with v = (w + z)/2 and c = (theta/2)(w - z).
    v = np.multiply(total, work.half, out=width.v)
    c = np.multiply(gap, work.half_theta, out=width.c)
    np.subtract(v, c, out=width.lam1)
    np.add(v, c, out=width.lam2)
    for cuts, out, leftward in zip(views.cuts, width.grads, work.leftward):
        _one_sided_gradient(cuts, out, leftward, work, width)
    sz, sw = source_pair(gap, total, width.coef)
    out, out_z, out_w = rhs
    np.multiply(width.lam, width.grad, out=out)
    np.subtract(sz, out_z, out=out_z)
    np.subtract(sw, out_w, out=out_w)
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
    state[-2:] = scn.runtime_arrays["gr"].T
    return state


def step(fld: Field, dt: float, scn: Scenario, work: Optional[_Stages] = None) -> Field:
    """One explicit step (forward Euler or two-stage second order) of the
    cells of ``fld``: the whole grid, or the leading cells of a field whose
    state array holds the next two, its right ghosts.  ``fld``'s state is
    one of the two ``buffers`` of the workspace ``work``, with its left
    ghosts written, and the step returns the same cells at t + dt in the
    other, whose remaining cells hold their values already.  ``run`` passes
    its workspace; a step called on its own builds one as ``run`` does, from
    the state of ``fld`` and a copy.  The stages compute the W >= m cells of
    the cut (``_Stages.at``), and only the m cells of ``fld`` are written."""
    t, m = fld.t, fld.z.size
    if work is None:
        state = _state_of(fld, scn)
        work = _Stages(scn, (state, state.copy()))
        _write_ghosts(state, t, scn, work)
    side = int(fld.state is work.buffers[1])
    state, new = work.buffers[side], work.buffers[1 - side]
    width = work.at(m)
    src = width.states[side]
    f1 = _stage_rhs(src, width.f1, work, width)
    inc = np.multiply(f1, dt, out=width.inc)
    if work.order == 2:
        mid = width.mid
        np.add(src.cells, inc, out=mid.cells)
        # Cells m and m + 1 are the right ghosts; the rest of the cut reads
        # the state's values, never the first stage's.
        mid.ext[m + 2:] = src.ext[m + 2:]
        _write_ghosts(mid.ext, t + dt, scn, work)
        f2 = _stage_rhs(mid, width.f2, work, width)
        np.multiply(np.add(f1, f2, out=inc), 0.5 * dt, out=inc)
    # Only the m cells of ``fld`` are written: past them ``new`` holds the
    # state's values already.
    out, inc = new[2:m + 2], inc[:m]
    np.add(state[2:m + 2], inc, out=out)
    size = np.abs(out, out=inc)
    if not size.max() <= BLOW_LIMIT:  # NaN fails too
        bad = ~(size <= BLOW_LIMIT)
        cell = int(np.argmax(bad.any(axis=1)))
        raise BlowUpError(
            f"solution left the finite range at t={t + dt:.6g}, cell {cell} "
            f"(x={(cell + 0.5) * fld.grid.dx:.6g})", t=t + dt, cell=cell)
    return Field(out[:, 0], out[:, 1], t + dt, fld.grid, new)


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


#: What a trajectory stores per snapshot: time and the trusted columns of z
#: and w.  The step is the config's ``Scenario.dt``.
_STORED = ("times", "z", "w")


class Trajectory:
    """Stored snapshots of one run plus their space-time interpolator.

    ``rows`` are the arrays of a stored run, by the names of ``_STORED``:
    one snapshot per step, each keeping the first ``scenario.trusted_cells``
    columns of z and w.  ``blow_up`` is None for a run that reached T, else
    the failure's ``t``, ``cell`` and ``message`` (empty if a stored file
    lacks them)."""

    def __init__(self, scenario: Scenario, rows: dict, blow_up: Optional[dict] = None):
        self.scenario = scenario
        self.grid = scenario.grid
        self.blow_up = blow_up
        for name in _STORED:
            setattr(self, name, rows[name])

    @classmethod
    def from_npz(cls, scenario: Scenario, data,
                 blow_up: Optional[dict] = None) -> "Trajectory":
        """The run of ``scenario`` that ``save`` stored in ``data`` (an open
        ``.npz`` or any mapping of its arrays).  Keys and shapes are checked:
        the times must be the step times of ``scenario`` (so no step is
        skipped), and z and w must hold its ``trusted_cells`` columns.
        Every value must be finite."""
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
        # All K + 1 step times of the config, or the first of them if the
        # run blew up; no run is stored past the storage ceiling.
        want = scenario.steps + 1
        if (scenario.stored_bytes > STORED_BYTES_MAX or snaps[0] > want
                or (blow_up is None and snaps[0] < want)
                or not np.array_equal(arrays["times"], scenario.step_times[:snaps[0]])):
            raise TrajectoryFileError(
                f"the times of its {snaps[0]} snapshots are not those of its config's "
                f"run (K + 1 = {want}): the file holds another run")
        snapshot = snaps + (scenario.trusted_cells,)
        for name in ("z", "w"):
            if arrays[name].shape != snapshot:
                raise TrajectoryFileError(f"{name} has shape {arrays[name].shape}, need {snapshot}")
        rows = {name: np.ascontiguousarray(arr, dtype=float) for name, arr in arrays.items()}
        # A NaN or inf would reach the checks as a position or a value.
        broken = [name for name, arr in rows.items()
                  if not all(np.isfinite(arr[lo:hi]).all() for lo, hi in blocks(0, len(arr)))]
        if broken:
            raise TrajectoryFileError(f"{', '.join(broken)} hold values that are not finite")
        return cls(scenario, rows, blow_up)

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

    def interpolate(self, x, when, stacks, offset=0) -> list:
        """Bilinear space-time interpolation of ``stacks``, rows of the
        stored stacks as ``block`` gives them, at positions ``x`` and at the
        rows ``when = (k, k2, tau)``: the bracketing snapshots and the weight
        of the later one, as ``time_weights`` locates them, less the index of
        the block's first snapshot.  ``t`` has the shape of ``x``, or is one
        time shared by every point.  Positions past the stored columns take
        their outermost pair.  A ``lam`` block holds lambda1 of its rows
        above lambda2: add its row count to read lambda2.  ``offset`` (one
        number, or one per point) is added to each point's index into the
        flat stacks, where entry (r, c) is entry r*m + c: an offset of j*m
        reads the rows j further down.

        Three shortcuts leave every value as the general formula gives it.
        Where every floor(x/dx - 0.5) has a stored pair, the position is not
        clamped; a fourth entry of ``when``, True, says the caller has
        bounded every position so, and the check is skipped.  A weight
        ``tau`` that is one float, exactly 0, reads row k alone: 1.0*lo +
        0.0*hi equals lo wherever row k2 is finite, and a stored run is
        finite (``run`` stores no step that left the finite range, and
        ``from_npz`` refuses a file that is not).  A row k that is the int
        0 adds nothing to the indices."""
        k, k2, tau = when[:3]
        xi = np.asarray(x, dtype=float) / self.grid.dx - 0.5
        cell = np.floor(xi)
        last = self.scenario.trusted_cells - 2
        if (len(when) > 3 and when[3]) or (cell.size and 0.0 <= cell.min()
                                             and cell.max() <= last):
            # xi - cell is exact here, and already in [0, 1).
            frac = xi - cell
        else:
            # np.minimum(np.maximum(...)) is np.clip without its per-call
            # cost, which dominates at the few dozen points of one RK4 stage.
            cell = np.minimum(np.maximum(cell, 0), last)
            frac = np.minimum(np.maximum(xi - cell, 0.0), 1.0)
        rest = 1.0 - frac
        # The stacks are C-contiguous: entry (k, i) is entry k*m + i of the
        # flat stack, and entry (k, i + 1) that of the flat stack from 1 on.
        # A 1-D gather costs less than a 2-D one.
        m = stacks[0].shape[1]
        at = cell.astype(np.intp) + offset
        at_k = at if isinstance(k, int) and k == 0 else at + k * m
        one_row = isinstance(tau, float) and tau == 0.0
        if not one_row:
            at_k2, stay = at + k2 * m, 1.0 - tau
        out = []
        for stack in stacks:
            flat = stack.reshape(-1)
            after = flat[1:]
            lo = rest * flat[at_k] + frac * after[at_k]
            if one_row:
                out.append(lo)
                continue
            hi = rest * flat[at_k2] + frac * after[at_k2]
            out.append(stay * lo + tau * hi)
        return out

    def save(self, path):
        if self.scenario.config_text is None:
            raise DomainError("trajectory saving needs the originating config text")
        meta = {"config_text": self.scenario.config_text, "blown_up": self.blown_up}
        if self.blow_up:
            meta["blow_up"] = self.blow_up
        if self.scenario.profile.table is not None:  # a tabulated duct's rows
            meta["table"] = self.scenario.profile.table.tolist()
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
    times, dt, grid = scn.step_times, scn.dt, scn.grid
    snaps, kept = len(times), scn.trusted_cells
    z, w = np.empty((snaps, kept)), np.empty((snaps, kept))
    rows = dict(zip(_STORED, (times, z, w)))
    state = _state_of(scn.initial_field(), scn)
    # Two states that the steps alternate between (see the module docstring).
    buffers = (state, state.copy())
    work = _Stages(scn, buffers)
    _write_ghosts(state, 0.0, scn, work)
    # Each state's stored columns of z and w.
    stored = [(b[2:kept + 2, 0], b[2:kept + 2, 1]) for b in buffers]
    z[0], w[0] = stored[0]
    count, last = 1, grid.n
    try:
        for k, m in enumerate(scn.active_cells(times[:-1]).tolist()):
            state, new = buffers[k % 2], buffers[1 - k % 2]
            if m != last:
                new[m + 2:last + 2] = state[m + 2:last + 2]
                last = m
            step(Field(state[2:m + 2, 0], state[2:m + 2, 1], times[k], grid, state), dt, scn,
                 work)
            _write_ghosts(new, times[k + 1], scn, work)
            z[k + 1], w[k + 1] = stored[1 - k % 2]
            count = k + 2
    except RunAbortedError as err:
        err.trajectory = Trajectory(scn, {name: arr[:count] for name, arr in rows.items()},
                                    {"t": err.t, "cell": err.cell, "message": str(err)})
        raise
    state = buffers[(snaps - 1) % 2]
    return Trajectory(scn, rows), Field(state[2:-2, 0], state[2:-2, 1], times[-1], grid, state)

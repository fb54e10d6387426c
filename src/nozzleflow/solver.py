"""Explicit upwind evolution of the diagonal system on a truncated half-line.

The domain is extended past the reporting window by the maximal region speed
times the final time, so the window is never polluted by the artificial right
boundary.  Both invariants are advected with their own local speed (donor
cell, optionally limited second order with two-stage time integration); the
geometric source is applied pointwise inside the same stages, keeping the
z/w source increments exact negatives.

One kernel evolves both invariants: each stage extends the (2, n) state
(rows z and w) with its ghost cells into one (2, n + 4) array, takes the
speeds on all of it once, then the limited slopes, upwind gradients and the
update for both rows at once.  The invariant region fixes the sign of both
speeds on P2 (>= 0) and P3 (< 0), so there every face mean has that sign
too, and the stage forms only the upwind face values: the limited slope on
the faces it reads, with no face-mean speeds and no per-face choice.  The
choice is made from the stage's own speeds, so P1 (mixed signs), NaN and a
state that has left the region take the general gradient.  ``run`` takes
the stable step from the speeds of the first stage (their interior) and
hands them to ``step``, so no speed is computed twice; it also hands over
the boundary values it computed for the monitors and the stored snapshot,
so ``boundary_update`` runs twice per second-order step.  ``step`` writes
its result into the interior of a fresh (2, n + 4) array, and the fields it
returns are row views of it, so the next step fills in the ghosts without
stacking z and w again.  Every cell takes the same operations as it would
row by row, so the result is bitwise that of two separate row updates.

One rule says where the stored solution can be trusted: ``Scenario.reach(t)``
is the right end of the trusted domain at time t.  The invariant region bounds
every speed by ``lambda_abs_max`` in advance, so nothing from the artificial
right boundary passes ``x_max - lambda_abs_max*t``, and a path that starts in
the reporting window (or at the inflow boundary) gets no further than
``x_interest + c_right*t``, with ``c_right = lambda_abs_max`` when a speed can
be positive (P1, P2) and 0 when both are negative (P3).  The evolve always
runs on the whole extended grid, but a stored snapshot keeps only the cells
up to the highest reach, plus two: one for the bilinear interpolation at
``i + 1``, one for the central gradient there (``Scenario.trusted_cells``).
The tracer launches and ends its paths by the same rule.
"""
from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (BlowUpError, DomainError, SonicBoundaryError,
                     TrajectoryFileError)
from .model import GasLaw, source_pair_zw, speeds_zw
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
    """Invariants at cell centers at one time."""

    z: np.ndarray
    w: np.ndarray
    t: float
    grid: Grid


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

    def runtime_arrays(self) -> dict:
        """Grid-sampled profile data used by every step (built once)."""
        if "arrays" not in self._cache:
            grid = self.grid
            x = grid.cells()
            ghost_x = np.array([grid.x_max + 0.5 * grid.dx, grid.x_max + 1.5 * grid.dx])
            self._cache["arrays"] = {
                "x": x,
                "a": np.asarray(self.profile.a(x), dtype=float),
                "s": np.asarray(self.profile.cum_abar(x), dtype=float),
                "gr_z": np.asarray(self.z0(ghost_x), dtype=float),
                "gr_w": np.asarray(self.w0(ghost_x), dtype=float),
                "window": grid.window(),
            }
        return self._cache["arrays"]

    def initial_field(self) -> Field:
        x = self.grid.cells()
        z = np.asarray(self.z0(x), dtype=float).copy()
        w = np.asarray(self.w0(x), dtype=float).copy()
        return Field(z, w, 0.0, self.grid)


@dataclass
class BoundaryValues:
    """Ghost cells (ordered outward-in: [-2, -1] left, [n, n+1] right) and
    the x = 0 edge trace."""

    gl_z: np.ndarray
    gl_w: np.ndarray
    gr_z: np.ndarray
    gr_w: np.ndarray
    z_edge: float
    w_edge: float


def boundary_update(fld: Field, t: float, scn: Scenario) -> BoundaryValues:
    """Problem-specific ghost/edge values at time t."""
    arrays = scn.runtime_arrays()
    z, w = fld.z, fld.w
    if scn.problem == "P1":
        z_edge = 1.5 * z[0] - 0.5 * z[1]
        w_edge = -z_edge
        lam1, lam2 = speeds_zw(z_edge, w_edge, scn.law)
        if not (lam1 < 0.0 < lam2):
            raise SonicBoundaryError(
                f"wall boundary needs lambda1 < 0 < lambda2, got "
                f"({float(lam1):.6g}, {float(lam2):.6g}) at t={t:.6g}")
        gl_z = np.array([-w[1], -w[0]])
        gl_w = np.array([-z[1], -z[0]])
    elif scn.problem == "P2":
        zb, wb = float(scn.zB(t)), float(scn.wB(t))
        z_edge, w_edge = zb, wb
        # Characteristic-shifted ghosts: the state at x < 0 is the boundary
        # value that will arrive at the wall a travel time later.  Constant
        # ghosts would plant an O(dx) inflow layer.
        lam1, lam2 = speeds_zw(zb, wb, scn.law)
        dx = fld.grid.dx
        gl_z = np.array([float(scn.zB(t + 1.5 * dx / float(lam1))),
                         float(scn.zB(t + 0.5 * dx / float(lam1)))])
        gl_w = np.array([float(scn.wB(t + 1.5 * dx / float(lam2))),
                         float(scn.wB(t + 0.5 * dx / float(lam2)))])
    else:
        z_edge = 1.5 * z[0] - 0.5 * z[1]
        w_edge = 1.5 * w[0] - 0.5 * w[1]
        # Quadratic continuation at the pure-outflow wall: lower-order ghosts
        # plant a boundary layer whose gradients do not converge.
        gl_z = np.array([6.0 * z[0] - 8.0 * z[1] + 3.0 * z[2],
                         3.0 * z[0] - 3.0 * z[1] + z[2]])
        gl_w = np.array([6.0 * w[0] - 8.0 * w[1] + 3.0 * w[2],
                         3.0 * w[0] - 3.0 * w[1] + w[2]])
    return BoundaryValues(gl_z, gl_w, arrays["gr_z"], arrays["gr_w"], z_edge, w_edge)


def stable_dt(lam, dx: float, cfl: float, t_left: Optional[float] = None) -> float:
    """Largest stable step for cells with the speeds ``lam`` (rows lambda1
    and lambda2), no longer than ``t_left`` when it is given."""
    vmax = float(max(np.abs(lam).max(axis=-1)))
    if vmax <= 1e-300:
        raise DomainError("all characteristic speeds vanish (uniform vacuum)")
    dt = cfl * dx / vmax
    if t_left is not None:
        dt = min(dt, t_left)
    return dt


def _limited_slope(a, b):
    """van Leer harmonic slope: TVD, and smooth in the slope ratio (minmod's
    branch switching staircases smooth profiles, which wrecks the convergence
    of derivative diagnostics)."""
    prod = a * b
    pos = prod > 0.0
    return np.where(pos, 2.0 * prod / np.where(pos, a + b, 1.0), 0.0)


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


def _one_sided_gradient(u_ext, leftward: bool, dx: float, order: int):
    """``_upwind_gradient`` when every face-mean speed has one sign: each
    face takes its right cell (``leftward``, all speeds < 0) or its left cell
    (all speeds >= 0), and only the slopes those cells need are formed."""
    n = u_ext.shape[-1] - 4
    s = int(leftward)
    u_face = u_ext[..., 1 + s:n + 2 + s]
    if order == 2:
        d = u_ext[..., 1 + s:n + 3 + s] - u_ext[..., s:n + 2 + s]
        slope = _limited_slope(d[..., :-1], d[..., 1:])
        u_face = u_face - 0.5 * slope if leftward else u_face + 0.5 * slope
    return (u_face[..., 1:] - u_face[..., :-1]) / dx


def _extend(fld: Field, bv: BoundaryValues, scn: Scenario):
    """The (2, n + 4) array of ``fld`` (rows z and w) with its ghost cells
    ``bv``, and the speeds on all of it.  A field that ``step`` returned
    already lives in the interior of such an array, which is reused."""
    n = fld.z.size
    ext = fld.z.base
    if ext is None or ext is not fld.w.base or ext.shape != (2, n + 4):
        ext = np.empty((2, n + 4))
        ext[0, 2:-2] = fld.z
        ext[1, 2:-2] = fld.w
    ext[0, :2] = bv.gl_z
    ext[1, :2] = bv.gl_w
    ext[0, -2:] = bv.gr_z
    ext[1, -2:] = bv.gr_w
    lam = np.empty_like(ext)
    lam[0], lam[1] = speeds_zw(ext[0], ext[1], scn.law)
    return ext, lam


def _stage_rhs(ext, lam, scn: Scenario):
    """Time derivative of the state in the interior of ``ext`` (``_extend``):
    each row advected with its own speed, plus the source.  When every
    speed of ``lam`` is < 0 or every one is >= 0, so is every face mean,
    and the upwind side is known without comparing them."""
    dx, order = scn.grid.dx, scn.order
    if lam.max() < 0.0:
        grad = _one_sided_gradient(ext, True, dx, order)
    elif lam.min() >= 0.0:
        grad = _one_sided_gradient(ext, False, dx, order)
    else:  # mixed signs (P1), NaN, or a state that left the region
        grad = _upwind_gradient(ext, lam, dx, order)
    f = -lam[:, 2:-2] * grad
    sz, sw = source_pair(ext[0, 2:-2], ext[1, 2:-2], scn.runtime_arrays()["a"], scn.law)
    f[0] += sz
    f[1] += sw
    return f


def step(fld: Field, dt: float, scn: Scenario, bv: Optional[BoundaryValues] = None,
         first: Optional[tuple] = None) -> Field:
    """One explicit step (forward Euler or two-stage second order).  ``bv``
    are the boundary values of ``fld`` and ``first`` its ``_extend``, when
    the caller already has them.  The returned rows z and w are the interior
    of one (2, n + 4) array, so the next step need not stack them again."""
    t = fld.t
    if first is None:
        first = _extend(fld, bv if bv is not None else boundary_update(fld, t, scn), scn)
    ext, lam = first
    u = ext[:, 2:-2]
    f1 = _stage_rhs(ext, lam, scn)
    new = np.add(u, dt * f1, out=np.empty_like(ext)[:, 2:-2])
    if scn.order == 2:
        mid = Field(new[0], new[1], t + dt, fld.grid)
        f2 = _stage_rhs(*_extend(mid, boundary_update(mid, t + dt, scn), scn), scn)
        new = np.add(u, 0.5 * dt * (f1 + f2), out=np.empty_like(ext)[:, 2:-2])
    if not np.abs(new).max() <= BLOW_LIMIT:  # NaN compares false: bad too
        bad = ~(np.abs(new) <= BLOW_LIMIT)
        cell = int(np.argmax(bad.any(axis=0)))
        raise BlowUpError(
            f"solution left the finite range at t={t + dt:.6g}, cell {cell} "
            f"(x={(cell + 0.5) * fld.grid.dx:.6g})", t=t + dt, cell=cell)
    return Field(new[0], new[1], t + dt, fld.grid)


#: Relative tolerance of a stored run's time gaps against its steps ``dts``:
#: round-off is at most 1e-13 on the desk configs, a skipped step about 1.
STEP_MATCH = 1e-9

#: What a trajectory stores per snapshot, in the order ``append`` takes it:
#: time, step, the trusted columns of z and w, and the x = 0 edge traces.
_STORED = ("times", "dts", "z", "w", "z_edge", "w_edge")


class Trajectory:
    """Stored snapshots of one run plus their space-time interpolator.

    One snapshot per step keeps the first ``scenario.trusted_cells``
    columns.  ``append`` collects them as rows and ``finalize`` stacks the
    rows once into the arrays ``times``, ``dts``, ``z``, ``w``, ``z_edge``
    and ``w_edge``, then drops them, so each snapshot is held once."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.grid = scenario.grid
        self.blown_up = False
        self._rows = {name: [] for name in _STORED}
        self._caches = {}

    @classmethod
    def from_npz(cls, scenario: Scenario, data, blown_up: bool = False) -> "Trajectory":
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
            arrays[name] = np.ascontiguousarray(arrays[name][:, :m])
        traj = cls(scenario)
        traj._rows = arrays
        return traj.finalize(blown_up)

    def append(self, fld: Field, dt: float, bv: BoundaryValues):
        m = self.scenario.trusted_cells
        for name, value in zip(_STORED, (fld.t, dt, fld.z[:m].copy(), fld.w[:m].copy(),
                                         bv.z_edge, bv.w_edge)):
            self._rows[name].append(value)

    def finalize(self, blown_up: bool = False):
        """Stack the appended snapshots; ``run`` calls this once, at the end
        of the run or at its blow-up, and ``from_npz`` on the loaded arrays."""
        self.blown_up = blown_up
        for name, rows in self._rows.items():
            setattr(self, name, np.asarray(rows, dtype=float))
        self._rows = None
        return self

    def _stack(self, name: str) -> np.ndarray:
        if name in ("z", "w"):
            return self.z if name == "z" else self.w
        if name not in self._caches:
            z, w = self.z, self.w
            if name in ("lam1", "lam2"):
                lam1, lam2 = speeds_zw(z, w, self.scenario.law)
                self._caches["lam1"], self._caches["lam2"] = lam1, lam2
            elif name == "zx":
                self._caches["zx"] = np.gradient(z, self.grid.dx, axis=1)
            elif name == "wx":
                self._caches["wx"] = np.gradient(w, self.grid.dx, axis=1)
        return self._caches[name]

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

    def interpolate(self, x, when, names) -> list:
        """Bilinear space-time interpolation of the stored stacks ``names``
        (any of z, w, zx, wx, lam1, lam2) at positions ``x`` and at the times
        ``when = time_weights(t)`` locates.  ``t`` has the shape of ``x``, or
        is one time shared by every point.  Positions past the stored columns
        take their outermost pair."""
        k, k2, tau = when
        # np.minimum(np.maximum(...)) is np.clip without its per-call cost,
        # which dominates at the few dozen points of one RK4 stage.
        xi = np.asarray(x, dtype=float) / self.grid.dx - 0.5
        i = np.minimum(np.maximum(np.floor(xi), 0), self.scenario.trusted_cells - 2)
        frac = np.minimum(np.maximum(xi - i, 0.0), 1.0)
        i = i.astype(np.intp)
        i1, rest, stay = i + 1, 1.0 - frac, 1.0 - tau
        out = []
        for name in names:
            stack = self._stack(name)
            lo = rest * stack[k, i] + frac * stack[k, i1]
            hi = rest * stack[k2, i] + frac * stack[k2, i1]
            out.append(stay * lo + tau * hi)
        return out

    def save(self, path):
        if self.scenario.config_text is None:
            raise DomainError("trajectory saving needs the originating config text")
        meta = {"config_text": self.scenario.config_text, "blown_up": self.blown_up}
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


def run(scn: Scenario, monitors=None):
    """Integrate to T, observing monitors and storing a snapshot every step.
    Returns (trajectory, field).  A numerical blow-up aborts with the
    partial trajectory attached."""
    fld = scn.initial_field()
    traj = Trajectory(scn)
    bv = boundary_update(fld, 0.0, scn)
    traj.append(fld, 0.0, bv)
    if monitors is not None:
        monitors.observe(fld, bv, None, 0.0)
    T = scn.T
    try:
        while fld.t < T - 1e-14 * max(T, 1.0):
            # The step's first stage takes the speeds of every cell; the
            # stable step comes from those of the interior.
            first = _extend(fld, bv, scn)
            dt = stable_dt(first[1][:, 2:-2], scn.grid.dx, scn.cfl, T - fld.t)
            if dt <= 0.0:
                break
            new = step(fld, dt, scn, bv, first)
            bv = boundary_update(new, new.t, scn)
            if monitors is not None:
                monitors.observe(new, bv, fld, dt)
            traj.append(new, dt, bv)
            fld = new
    except BlowUpError as err:
        err.trajectory = traj.finalize(blown_up=True)
        raise
    return traj.finalize(), fld

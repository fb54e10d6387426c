"""Invariant-region machinery for the duct system.

Critical constants of the quotient function f, duct-coefficient profiles with
their integrable majorants, machine-checked certificates for the admissibility
conditions on (a, L1, L2, U1, U2) (``check_hypothesis``, band from
``RegionSpec.kind``), signed margins of (z, w) arrays against the x-dependent
rectangle (``membership_margins``), corner bounds on the characteristic speeds,
and a feasibility search for admissible constants.

Every certificate item is built by ``cert_item`` (``worst_item`` takes the
worst sample of an array) and judged by one of three fixed rules: EXACT
(slack >= 0), GRACE (slack >= -ROUNDOFF * max(1, |lhs|, |rhs|)) or STRICT
(slack > 0 and slack >= STRICT_MARGIN * max(|lhs|, |rhs|), so that exact
ties fail while pairs that decay to zero can pass).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificateFailure,
    DomainError,
    PoleError,
    SearchError,
)
from .model import GasLaw, speeds_zw

#: Numerical grace for non-strict inequalities evaluated in floating point.
ROUNDOFF = 32.0 * float(np.finfo(float).eps)

#: Relative margin of the STRICT rule.
STRICT_MARGIN = 1e-9

#: The most intervals ``NozzleProfile.quadrature_table`` takes.
QUADRATURE_MAX_INTERVALS = 1 << 21


# ---------------------------------------------------------------------------
# critical constants of f
# ---------------------------------------------------------------------------

def f_eval(r, law: GasLaw):
    """The quotient (2/(gamma-1)) (gamma+1+(3-gamma) r) / |r^2-1|: a float
    at a float r (the bisections of ``critical_constants`` stay in Python
    floats), else an array."""
    if isinstance(r, float):
        pole = abs(r) == 1.0
    else:
        r = np.asarray(r, dtype=float)
        pole = (abs(r) == 1.0).any()
    if pole:
        raise PoleError("f has poles at r = +-1")
    g = law.gamma
    return (2.0 / (g - 1.0)) * (g + 1.0 + (3.0 - g) * r) / abs(r * r - 1.0)


@dataclass(frozen=True)
class CriticalConstants:
    """Interior minimum l of f on [-1,1] and the two outer level-l roots."""

    l: float
    sigma1: float
    sigma2: float


def _bisect(fn, lo: float, hi: float, tol: float = 1e-13, max_iter: int = 200) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise SearchError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def critical_constants(law: GasLaw) -> CriticalConstants:
    """l from the closed-form interior critical point; the outer roots of
    f(r) = l by bisection on (-2, -1) and (1, inf)."""
    g = law.gamma
    disc = (g + 1.0) ** 2 - (3.0 - g) ** 2  # = 8 (gamma - 1) > 0
    r_star = (-(g + 1.0) + math.sqrt(disc)) / (3.0 - g)
    l = float(f_eval(r_star, law))

    def shifted(r):
        return f_eval(r, law) - l

    eps = 1e-9
    sigma1 = -_bisect(shifted, -2.0 + eps, -1.0 - eps)
    hi = 2.0
    while shifted(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise SearchError("could not bracket the outer root of f(r) = l")
    sigma2 = _bisect(shifted, 1.0 + eps, hi)
    return CriticalConstants(l=l, sigma1=float(sigma1), sigma2=float(sigma2))


# ---------------------------------------------------------------------------
# monotone cubic interpolation (for tabulated ducts)
# ---------------------------------------------------------------------------

class PchipCurve:
    """Shape-preserving cubic Hermite interpolant with Fritsch-Carlson slopes.

    Constant extension outside the table (derivative 0 there).
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise DomainError("table abscissae must be strictly increasing, length >= 2")
        h = np.diff(xs)
        delta = np.diff(ys) / h
        d = np.zeros_like(ys)
        for i in range(1, len(xs) - 1):
            if delta[i - 1] * delta[i] <= 0.0:
                d[i] = 0.0
            else:
                w1 = 2.0 * h[i] + h[i - 1]
                w2 = h[i] + 2.0 * h[i - 1]
                d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
        d[0] = self._end_slope(h[0], h[1] if len(h) > 1 else h[0], delta[0],
                               delta[1] if len(h) > 1 else delta[0])
        d[-1] = self._end_slope(h[-1], h[-2] if len(h) > 1 else h[-1], delta[-1],
                                delta[-2] if len(h) > 1 else delta[-1])
        self.xs, self.ys, self.d = xs, ys, d

    @staticmethod
    def _end_slope(h0, h1, d0, d1):
        s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if s * d0 <= 0.0:
            return 0.0
        if abs(s) > 3.0 * abs(d0):
            return 3.0 * d0
        return s

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        return x, i

    def __call__(self, x):
        x, i = self._locate(x)
        h = self.xs[i + 1] - self.xs[i]
        t = np.clip((x - self.xs[i]) / h, 0.0, 1.0)
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return (h00 * self.ys[i] + h * h10 * self.d[i]
                + h01 * self.ys[i + 1] + h * h11 * self.d[i + 1])

    def derivative(self, x):
        x, i = self._locate(x)
        h = self.xs[i + 1] - self.xs[i]
        t = (x - self.xs[i]) / h
        inside = (t >= 0.0) & (t <= 1.0)
        t = np.clip(t, 0.0, 1.0)
        dh00 = 6 * t * (t - 1)
        dh10 = (1 - t) * (1 - 3 * t)
        dh01 = -dh00
        dh11 = t * (3 * t - 2)
        val = (dh00 * self.ys[i] / h + dh10 * self.d[i]
               + dh01 * self.ys[i + 1] / h + dh11 * self.d[i + 1])
        return np.where(inside, val, 0.0)


# ---------------------------------------------------------------------------
# duct-coefficient profiles
# ---------------------------------------------------------------------------

@dataclass
class NozzleProfile:
    """Duct coefficient a(x) = A'(x)/A(x) with an integrable C^1 majorant.

    ``abar`` must dominate |a|/l pointwise (re-checked by certificates, not
    assumed).  ``I_total`` is the full integral of abar on [0, inf); for
    tabulated ducts without a user tail bound it only covers the table and the
    certificates carrying it are marked conditional.
    """

    a: Callable
    a_prime: Callable
    abar: Callable
    k1: float
    k2: float
    alpha: float
    M: float
    I_total: float
    conditional: bool = False
    label: str = "custom"

    def __post_init__(self):
        for name in ("k1", "k2", "alpha", "M"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")

    # -- cumulative quadrature of abar --------------------------------------

    def quadrature_table(self, x_hi: float) -> tuple:
        """Nodes, s and abar on [0, max(x_hi, 1)], read back by ``cum_abar``
        with the abar samples as the slopes of its cubic Hermite interpolant.

        s at the nodes is ``_cumulative_simpson`` of abar.  The interval
        count doubles from 4096 until the previous level's interpolant
        matches the new level at every new node within 1e-10 (1 + I_total);
        a level reuses the samples of the level before at its even nodes
        (the even nodes of ``linspace(0, x, 2n + 1)`` are bitwise
        ``linspace(0, x, n + 1)``), so each abar value is computed once.
        The table returned is the new level with one Richardson step (the
        Simpson sums of both levels at every other coarse node give Boole's
        rule there, and the nodes up to the next one take the same shift),
        so the Hermite read-back's own h^4 error is what is left.  A level
        of ``QUADRATURE_MAX_INTERVALS`` that still misses the tolerance
        raises SearchError."""
        x_hi = max(x_hi, 1.0)
        tol = 1e-10 * (1.0 + self.I_total if math.isfinite(self.I_total) else 1.0)
        n = 2048
        ys = np.asarray(self.abar(np.linspace(0.0, x_hi, n + 1)), dtype=float)
        cum = _cumulative_simpson(ys, x_hi / n)
        while True:
            h, n = x_hi / n, 2 * n
            xs = np.linspace(0.0, x_hi, n + 1)
            fine = np.empty(n + 1)
            fine[::2] = ys
            fine[1::2] = self.abar(xs[1::2])
            fine_cum = _cumulative_simpson(fine, x_hi / n)
            # The coarse interpolant is its own s at the even nodes and the
            # Hermite cubic's mid-interval value at the odd ones.
            mid = 0.5 * (cum[:-1] + cum[1:]) + 0.125 * h * (ys[:-1] - ys[1:])
            err = max(float(np.abs(fine_cum[::2] - cum).max()),
                      float(np.abs(fine_cum[1::2] - mid).max()))
            if err < tol:
                break
            if n >= QUADRATURE_MAX_INTERVALS:
                raise SearchError(
                    f"s(x) of the {self.label} profile on [0, {x_hi:.6g}] misses its "
                    f"tolerance {tol:.3g} at {n} intervals (levels differ by {err:.3g})")
            ys, cum = fine, fine_cum
        fine_cum += np.repeat((fine_cum[::4] - cum[::2]) / 15.0, 4)[:n + 1]
        np.maximum.accumulate(fine_cum, out=fine_cum)
        return xs, fine_cum, fine

    def cum_abar(self, x, table: tuple):
        """Integral of abar from 0 to x (monotone, capped by I_total): the
        Hermite cubic of ``table``, a ``quadrature_table`` that covers x,
        clamped to the s of its interval's ends."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise DomainError("cumulative majorant integral needs x >= 0")
        xs, cum, slope = table
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        s0, s1 = cum[i], cum[i + 1]
        val = (s0 + t * t * (3.0 - 2.0 * t) * (s1 - s0)
               + h * t * (1.0 - t) * ((1.0 - t) * slope[i] - t * slope[i + 1]))
        val = np.clip(val, s0, s1)
        if math.isfinite(self.I_total):
            val = np.minimum(val, self.I_total)
        return float(val) if val.ndim == 0 else val


def _cumulative_simpson(ys, h: float) -> np.ndarray:
    """Integrals from the first node to each node of the samples ``ys`` at
    spacing h over an even number of intervals: Simpson sums at the even
    nodes; an odd node adds to the node before it the four-point rule over
    its half-panel, h/24 (-y[i-1] + 13 y[i] + 13 y[i+1] - y[i+2]), or
    h/24 (9 y0 + 19 y1 - 5 y2 + y3) on the first, which are fourth order
    like Simpson's."""
    cum = np.empty(ys.size)
    cum[0] = 0.0
    np.cumsum(ys[:-2:2] + 4.0 * ys[1::2] + ys[2::2], out=cum[2::2])
    cum[2::2] *= h / 3.0
    half = np.empty(ys.size // 2)
    half[0] = 9.0 * ys[0] + 19.0 * ys[1] - 5.0 * ys[2] + ys[3]
    half[1:] = 13.0 * (ys[2:-2:2] + ys[3:-1:2]) - ys[1:-3:2] - ys[4::2]
    cum[1::2] = cum[:-1:2] + half * (h / 24.0)
    return cum


def power_profile(amp: float, rate: float, decay: float, law: GasLaw, *,
                  k1: float, k2: float, alpha: float, M: float,
                  margin: float = 1.05) -> NozzleProfile:
    """a(x) = amp (1 + rate x)^(-decay) with the scaled analytic majorant."""
    if rate <= 0.0 or decay <= 0.0:
        raise DomainError("rate and decay must be positive")
    l = critical_constants(law).l
    scale = margin * abs(amp) / l

    def a(x):
        return amp * (1.0 + rate * np.asarray(x, dtype=float)) ** (-decay)

    def a_prime(x):
        return -amp * rate * decay * (1.0 + rate * np.asarray(x, dtype=float)) ** (-decay - 1.0)

    def abar(x):
        return scale * (1.0 + rate * np.asarray(x, dtype=float)) ** (-decay)

    I = scale / (rate * (decay - 1.0)) if decay > 1.0 else math.inf
    return NozzleProfile(a, a_prime, abar, k1, k2, alpha, M, I, label="power")


def exp_profile(amp: float, rate: float, law: GasLaw, *, k1: float, k2: float,
                alpha: float, M: float, margin: float = 1.05) -> NozzleProfile:
    """a(x) = amp exp(-rate x)."""
    if rate <= 0.0:
        raise DomainError("rate must be positive")
    l = critical_constants(law).l
    scale = margin * abs(amp) / l

    def a(x):
        return amp * np.exp(-rate * np.asarray(x, dtype=float))

    def a_prime(x):
        return -amp * rate * np.exp(-rate * np.asarray(x, dtype=float))

    def abar(x):
        return scale * np.exp(-rate * np.asarray(x, dtype=float))

    return NozzleProfile(a, a_prime, abar, k1, k2, alpha, M, scale / rate, label="exp")


def zero_profile(*, k1: float = 1.0, k2: float = 1.0, alpha: float = 1.0,
                 M: float = 1.0) -> NozzleProfile:
    """Straight duct: a = abar = 0, zero total integral."""

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return NozzleProfile(zero, zero, zero, k1, k2, alpha, M, 0.0, label="zero")


def tabulated_profile(xs, values, law: GasLaw, *, k1: float, k2: float,
                      alpha: float, M: float, margin: float = 1.05,
                      tail_bound: Optional[float] = None) -> NozzleProfile:
    """Duct coefficient from a table, monotone cubic in between.

    The majorant is a smoothed moving-maximum envelope of |a|/l bumped until
    it dominates at every node; certificates still re-check pointwise.
    Without ``tail_bound`` the total integral only covers the table and the
    profile is marked conditional.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs[0] != 0.0:
        raise DomainError("table must start at x = 0")
    curve = PchipCurve(xs, values)
    l = critical_constants(law).l

    window = max(2, len(xs) // 32)
    absval = np.abs(values)
    env = np.array([absval[max(0, i - window):i + window + 1].max() for i in range(len(xs))])
    knot_idx = np.unique(np.r_[np.arange(0, len(xs), window), len(xs) - 1])
    knot_vals = (margin / l) * env[knot_idx]
    target = (margin / l) * absval
    env_curve = PchipCurve(xs[knot_idx], knot_vals)
    for _ in range(4):
        vals = np.maximum(np.asarray(env_curve(xs)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(target > 0.0, target / np.maximum(vals, 1e-300), 0.0)
        fac = float(ratio.max(initial=0.0))
        if fac <= 1.0:
            break
        knot_vals = knot_vals * (fac * 1.001)
        env_curve = PchipCurve(xs[knot_idx], knot_vals)
    abar_curve = env_curve

    def abar(x):
        return np.maximum(np.asarray(abar_curve(x), dtype=float), 0.0)

    seg_x = np.linspace(0.0, xs[-1], 8192)
    table_I = float(np.trapezoid(abar(seg_x), seg_x))
    conditional = tail_bound is None
    I = table_I + (0.0 if conditional else float(tail_bound))
    return NozzleProfile(curve, curve.derivative, abar, k1, k2, alpha, M, I,
                         conditional=conditional, label="table")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class CertItem:
    name: str
    lhs: float
    rhs: float
    strict: bool
    passed: bool
    where: Optional[float] = None
    note: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self):
        d = {"name": self.name, "lhs": float(self.lhs), "rhs": float(self.rhs),
             "slack": float(self.slack), "strict": bool(self.strict),
             "passed": bool(self.passed)}
        if self.where is not None:
            d["where"] = float(self.where)
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class Certificate:
    name: str
    items: list
    conditional: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def min_slack(self) -> float:
        return min((item.slack for item in self.items), default=math.inf)

    def failing(self):
        return [item.name for item in self.items if not item.passed]

    def render_text(self) -> str:
        lines = [f"certificate: {self.name}"]
        for key, val in self.meta.items():
            lines.append(f"  {key}: {val}")
        for item in self.items:
            mark = "PASS" if item.passed else "FAIL"
            where = f" at {item.where:.6g}" if item.where is not None else ""
            note = f"  ({item.note})" if item.note else ""
            lines.append(
                f"  [{mark}] {item.name}: lhs={item.lhs:.12g} rhs={item.rhs:.12g} "
                f"slack={item.slack:.6g}{where}{note}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        if self.conditional:
            verdict += " (conditional)"
        lines.append(f"  result: {verdict}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "conditional": self.conditional,
            "min_slack": self.min_slack,
            "items": [item.to_dict() for item in self.items],
            "meta": self.meta,
        }


#: The three rules of ``cert_item`` (see the module docstring).
EXACT, GRACE, STRICT = "exact", "grace", "strict"


def cert_item(name: str, lhs: float, rhs: float, rule: str, where=None,
              note: str = "", margin: float = STRICT_MARGIN) -> CertItem:
    """The item lhs <(=) rhs judged by ``rule`` (STRICT demands ``margin``)."""
    slack = rhs - lhs
    if rule == EXACT:
        passed = slack >= 0.0
    elif rule == GRACE:
        scale = max([1.0] + [abs(v) for v in (lhs, rhs) if math.isfinite(v)])
        passed = slack >= -ROUNDOFF * scale
    else:
        passed = slack > 0.0 and slack >= margin * max(abs(lhs), abs(rhs))
    return CertItem(name, lhs, rhs, rule == STRICT, bool(passed), where, note)


def worst_item(name: str, lhs, rhs, rule: str, where, index=None, **kw) -> CertItem:
    """``cert_item`` at the worst sample of the arrays ``lhs`` and ``rhs``
    (broadcast together; ``where`` places each sample): the sample ``index``
    when it is given, else the one of least slack."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float),
                                   np.asarray(rhs, dtype=float))
    i = int(np.argmin(rhs - lhs)) if index is None else index
    return cert_item(name, float(lhs[i]), float(rhs[i]), rule,
                     where=float(where[i]), **kw)


def default_x_grid(x_hi: float = 1e3, n: int = 2048) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-4, x_hi, n)])


def check_h1(profile: NozzleProfile, x_grid=None) -> Certificate:
    """Per-sample decay bounds on a^2 and |a'| against k (1+Mx)^(-2-alpha)."""
    x = np.asarray(default_x_grid() if x_grid is None else x_grid, dtype=float)
    envelope = (1.0 + profile.M * x) ** (-2.0 - profile.alpha)
    items = [worst_item(name, lhs, k * envelope, GRACE, x) for name, lhs, k in (
        ("a(x)^2 <= k1*(1+M*x)^(-2-alpha)", np.asarray(profile.a(x)) ** 2, profile.k1),
        ("|a'(x)| <= k2*(1+M*x)^(-2-alpha)", np.abs(np.asarray(profile.a_prime(x))), profile.k2),
    )]
    return Certificate("decay", items, meta={"samples": int(x.size),
                                             "x_max": float(x.max())})


@dataclass(frozen=True)
class RegionSpec:
    """Envelope constants for one x-dependent invariant rectangle.

    ``kind`` is "m" (subsonic), "r" (rightward supersonic) or "l" (leftward
    supersonic).  The total majorant integral comes from the attached profile
    unless overridden (feasibility search results carry no profile).
    """

    kind: str
    L1: float
    L2: float
    U1: float
    U2: float
    profile: Optional[NozzleProfile] = None
    I_total: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("m", "r", "l"):
            raise DomainError(f"region kind must be m, r or l, got {self.kind!r}")
        for name in ("L1", "L2", "U1", "U2"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")

    def total_abar(self) -> float:
        if self.I_total is not None:
            return self.I_total
        if self.profile is not None:
            return self.profile.I_total
        raise DomainError("region spec carries neither a profile nor a total integral")


def _constant_inequalities(kind: str, law: GasLaw, consts: CriticalConstants,
                           I: float, L1, L2, U1, U2) -> list:
    """The envelope-constant inequalities of one admissibility set as rows
    (name, strict, lhs, rhs) of lhs <(=) rhs, at numbers or arrays L1..U2."""
    g = law.gamma
    E = math.exp(2.0 * I) if math.isfinite(I) else math.inf
    s1, s2 = consts.sigma1, consts.sigma2
    if kind == "m":
        return [
            ("U1*exp(2I) <= L1", False, U1 * E, L1),
            ("L2 <= U2", False, L2, U2),
            ("(3-g)/(g+1) < L2/L1", True, (3.0 - g) / (g + 1.0), L2 / L1),
            ("U2/U1 < (g+1)/(3-g)", True, U2 / U1, (g + 1.0) / (3.0 - g)),
            ("L1/L2 <= sigma1", False, L1 / L2, s1),
            ("U2/U1 <= sigma1", False, U2 / U1, s1),
            ("L1 <= U2", False, L1, U2),
            ("L2 <= U1", False, L2, U1),
        ]
    if kind == "r":
        return [
            ("L1 <= U1", False, L1, U1),
            ("L2 <= U2", False, L2, U2),
            ("U1*exp(2I) < L2", True, U1 * E, L2),
            ("(U2/L1)*exp(2I) <= sigma2", False, (U2 / L1) * E, s2),
        ]
    return [
        ("U1*exp(2I) <= L1", False, U1 * E, L1),
        ("U2*exp(2I) <= L2", False, U2 * E, L2),
        ("L2 < U1", True, L2, U1),
        ("L1/(U2*exp(2I)) <= sigma2", False, L1 / (U2 * E), s2),
    ]


def check_hypothesis(spec: RegionSpec, law: GasLaw, consts: CriticalConstants,
                     x_grid=None, strict_margin: float = STRICT_MARGIN) -> Certificate:
    """Admissibility certificate of ``spec``: the strict majorant condition
    |a| < l*abar on ``x_grid`` (when the spec carries a profile) plus every
    envelope-constant inequality of the band ``spec.kind`` selects."""
    I = spec.total_abar()
    items = []
    conditional = spec.profile is None or spec.profile.conditional
    if spec.profile is not None:
        x = np.asarray(default_x_grid() if x_grid is None else x_grid, dtype=float)
        lhs = np.abs(np.asarray(spec.profile.a(x)))
        rhs = consts.l * np.asarray(spec.profile.abar(x))
        scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
        items.append(worst_item("|a| < l*abar", lhs, rhs, STRICT, x,
                                index=int(np.argmin((rhs - lhs) / scale)),
                                margin=strict_margin))
    for name, strict, lhs, rhs in _constant_inequalities(
            spec.kind, law, consts, I, spec.L1, spec.L2, spec.U1, spec.U2):
        items.append(cert_item(name, float(lhs), float(rhs),
                               STRICT if strict else GRACE, margin=strict_margin))
    return Certificate(f"band-{spec.kind}", items, conditional=conditional,
                       meta={"I": I, "exp(2I)": math.exp(2.0 * I) if math.isfinite(I) else math.inf})


# ---------------------------------------------------------------------------
# membership and speed bounds
# ---------------------------------------------------------------------------

def envelopes(spec: RegionSpec, s):
    """Rectangle faces (z_lo, z_hi, w_lo, w_hi) at cumulative majorant s."""
    s = np.asarray(s, dtype=float)
    grow, shrink = np.exp(s), np.exp(-s)
    if spec.kind == "m":
        return -spec.L1 * shrink, -spec.U1 * grow, spec.L2 * shrink, spec.U2 * grow
    if spec.kind == "r":
        return spec.L1 * shrink, spec.U1 * grow, spec.L2 * shrink, spec.U2 * grow
    return -spec.L1 * shrink, -spec.U1 * grow, -spec.L2 * shrink, -spec.U2 * grow


def membership_margins(z, w, s, spec: RegionSpec):
    """Signed distances to the four envelope faces and the w >= z face."""
    return face_margins(z, w, envelopes(spec, s))


def face_margins(z, w, faces):
    """``membership_margins`` against faces ``envelopes`` already gave."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    z_lo, z_hi, w_lo, w_hi = faces
    return {
        "z_lo": z - z_lo,
        "z_hi": z_hi - z,
        "w_lo": w - w_lo,
        "w_hi": w_hi - w,
        "gap": w - z,
    }


@dataclass(frozen=True)
class SpeedBounds:
    """Corner-derived uniform bounds over the whole x-family of rectangles.

    d1, d2 bound |lambda1|, |lambda2| away from zero; sign1/sign2 are the
    uniform signs of the two speeds on the region; lambda_abs_max bounds both
    speeds in magnitude; C1, C2 bound |z|, |w| and C3 the gap from below.
    """

    d1: float
    d2: float
    sign1: int
    sign2: int
    lambda_abs_max: float
    C1: float
    C2: float
    C3: float


def region_corners(spec: RegionSpec, s):
    """The four (z, w) rectangle corners at cumulative majorant s."""
    z_lo, z_hi, w_lo, w_hi = envelopes(spec, s)
    return [(z_lo, w_lo), (z_lo, w_hi), (z_hi, w_lo), (z_hi, w_hi)]


def region_speed_bounds(spec: RegionSpec, law: GasLaw) -> SpeedBounds:
    th = law.theta
    I = spec.total_abar()
    if not math.isfinite(I):
        raise DomainError("speed bounds need a finite majorant integral")
    eI = math.exp(I)
    L1, L2, U1, U2 = spec.L1, spec.L2, spec.U1, spec.U2
    if spec.kind == "m":
        d1 = 0.5 * ((1 + th) * U1 - (1 - th) * U2)
        d2 = 0.5 * ((1 + th) * L2 - (1 - th) * L1) / eI
        sign1, sign2 = -1, 1
        C1, C2, C3 = L1, U2 * eI, U1 + L2 / eI
    elif spec.kind == "r":
        d1 = 0.5 * ((1 + th) * L1 + (1 - th) * L2) / eI
        d2 = 0.5 * ((1 + th) * L2 + (1 - th) * L1) / eI
        sign1, sign2 = 1, 1
        C1, C2, C3 = U1 * eI, U2 * eI, L2 / eI - U1 * eI
    else:
        d1 = 0.5 * ((1 + th) * U1 + (1 - th) * U2)
        d2 = 0.5 * ((1 + th) * U2 + (1 - th) * U1)
        sign1, sign2 = -1, -1
        C1, C2, C3 = L1, L2, U1 - L2
    tiny = ROUNDOFF * (L1 + L2 + U1 + U2)
    if d1 <= tiny or d2 <= tiny:
        raise CertificateFailure(
            f"region {spec.kind!r} does not bound the speeds away from zero "
            f"(d1={d1:.6g}, d2={d2:.6g})")
    if C3 <= tiny:
        raise CertificateFailure(f"region {spec.kind!r} touches vacuum (C3={C3:.6g})")
    lam_max = 0.0
    for s in (0.0, I):
        for z_c, w_c in region_corners(spec, s):
            lam1, lam2 = speeds_zw(z_c, w_c, law)
            lam_max = max(lam_max, abs(float(lam1)), abs(float(lam2)))
    return SpeedBounds(d1, d2, sign1, sign2, lam_max, C1, C2, C3)


# ---------------------------------------------------------------------------
# feasibility search
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    feasible: bool
    spec: Optional[RegionSpec]
    certificate: Optional[Certificate]
    best_min_slack: float
    best_point: dict
    searched_box: list
    kind: str
    I: float


def _normalized_min_slack(kind, law, consts, I, L1, L2, U1, U2,
                          strict_margin: float):
    slacks = []
    for _, strict, lhs, rhs in _constant_inequalities(kind, law, consts, I,
                                                      L1, L2, U1, U2):
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        slacks.append((rhs - lhs) / scale - (strict_margin if strict else 0.0))
    return np.minimum.reduce(slacks)


def find_constants(law: GasLaw, I: float, kind: str,
                   profile: Optional[NozzleProfile] = None,
                   grid: int = 21, rounds: int = 4) -> FeasibilityResult:
    """Grid search over the scale-free ratio space, refined around the best
    point toward maximal minimum slack; the winner is re-certified."""
    if I < 0.0:
        raise DomainError("total majorant integral must be nonnegative")
    if kind not in ("m", "r", "l"):
        raise DomainError(f"region kind must be m, r or l, got {kind!r}")
    consts = critical_constants(law)
    g = law.gamma
    E = math.exp(2.0 * I)
    s1, s2 = consts.sigma1, consts.sigma2

    if kind == "m":
        lo1 = max((3.0 - g) / (g + 1.0), 1.0 / s1) * (1.0 + 1e-9)
        box = [(min(lo1, 1.0), 1.0),
               (1.0, max(min(s1, (g + 1.0) / (3.0 - g)) * (1.0 - 1e-9), 1.0)),
               (min(E, s1), s1)]

        def to_constants(u1, u2, u3):
            return u3, u1 * u3, np.ones_like(u3), u2
    elif kind == "r":
        box = [(1.0, 1.5 * s2), (1.0, 1.2 * s2), (0.25, 1.0)]

        def to_constants(u1, u2, u3):
            return u3, u1, np.ones_like(u3), u2
    else:
        box = [(0.05, 1.0), (0.05, 1.0), (min(E, s2 * E), s2 * E)]

        def to_constants(u1, u2, u3):
            return u3, u1, np.ones_like(u3), u2

    best_score = -math.inf
    best_u = [0.5 * (lo + hi) for lo, hi in box]
    current = [list(b) for b in box]
    for _ in range(rounds):
        axes = [np.linspace(lo, hi, grid) for lo, hi in current]
        mesh = np.meshgrid(*axes, indexing="ij")
        L1, L2, U1, U2 = to_constants(*mesh)
        score = _normalized_min_slack(kind, law, consts, I, L1, L2, U1, U2,
                                      STRICT_MARGIN)
        idx = np.unravel_index(int(np.argmax(score)), score.shape)
        best_score = float(score[idx])
        best_u = [float(ax[i]) for ax, i in zip(axes, idx)]
        nxt = []
        for (lo, hi), (olo, ohi), u in zip(current, box, best_u):
            h = 1.5 * (hi - lo) / (grid - 1)
            nxt.append([max(olo, u - h), min(ohi, u + h)])
        current = nxt

    L1, L2, U1, U2 = to_constants(*[np.asarray(u) for u in best_u])
    point = {"L1": float(L1), "L2": float(L2), "U1": float(U1), "U2": float(U2)}
    if best_score <= 0.0:
        return FeasibilityResult(False, None, None, best_score, point, box, kind, I)
    spec = RegionSpec(kind, point["L1"], point["L2"], point["U1"], point["U2"],
                      profile=profile, I_total=None if profile is not None else I)
    cert = check_hypothesis(spec, law, consts)
    return FeasibilityResult(cert.passed, spec, cert, best_score, point, box, kind, I)

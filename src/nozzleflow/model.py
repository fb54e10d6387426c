"""Gas law and the Riemann-invariant form of isentropic duct flow.

Pressure, the density recovered from the diagonal (z, w) variables, the
characteristic speeds, and the geometric source term of the diagonalized
system.  All operations are pure functions; the ``*_zw`` helpers accept
scalars or numpy arrays alike and are what the solver, the monitors and the
tracer run on whole grids.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

#: States with w - z below this gap are treated as vacuum.
VACUUM_GAP = 1e-12

_LOG_GAMMA = 5.0 / 3.0

#: Least gamma whose root -sigma1 of f(r) = l lies in the bracket
#: (-2 + 1e-9, -1 - 1e-9) of ``region.critical_constants``: sigma1 - 1 is
#: about (gamma - 1)/2, and below this gamma it is less than the bracket's
#: 1e-9.  Here the bisection's 1e-13 finds sigma1 - 1 to about 1e-4 of itself.
GAMMA_MIN = 1.0000000020000637


def _check_gamma(g: float) -> None:
    if not GAMMA_MIN <= g <= _LOG_GAMMA:
        raise DomainError(f"adiabatic exponent {g!r} is too close to 1 to resolve sigma1 "
                          f"(least {GAMMA_MIN!r})" if 1.0 < g < GAMMA_MIN else
                          f"adiabatic exponent must lie in (1, 5/3], got {g}")


@dataclass(frozen=True)
class GasLaw:
    """Adiabatic exponent with the two derived exponents used everywhere.

    ``theta = (gamma-1)/2`` and ``beta = (gamma-3)/(2(gamma-1))``.  The
    gradient functionals change form at ``beta = -1`` (gamma = 5/3), so that
    branch must be selected exactly; ``from_gamma`` accepts the rational
    string "5/3" for this purpose.
    """

    gamma: float
    theta: float
    beta: float
    is_log_branch: bool

    @classmethod
    def from_gamma(cls, gamma) -> "GasLaw":
        given = gamma
        if isinstance(gamma, str):
            try:
                gamma = Fraction(gamma)
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"cannot parse adiabatic exponent {gamma!r}") from exc
        try:
            g = float(gamma)
        except OverflowError:  # past the float range, as "1e400" is
            raise DomainError(f"adiabatic exponent must lie in (1, 5/3], got {given}") from None
        _check_gamma(g)
        # 5/3 as a Fraction rounds to the same float.
        is_log = g == _LOG_GAMMA
        if not is_log and abs(g - _LOG_GAMMA) < 1e-6:
            warnings.warn(
                "gamma is within 1e-6 of 5/3 but not equal: the general-branch "
                "coefficients are ill-conditioned this close to the log branch; "
                "pass '5/3' to select the log branch exactly",
                stacklevel=2,
            )
        theta = (g - 1.0) / 2.0
        beta = -1.0 if is_log else (g - 3.0) / (2.0 * (g - 1.0))
        return cls(g, theta, beta, is_log)

    def __post_init__(self):
        _check_gamma(self.gamma)


def pressure(rho, law: GasLaw):
    """Barotropic pressure rho**gamma / gamma.  Vectorizes over rho."""
    if np.any(np.asarray(rho) < 0.0):
        raise DomainError("density must be nonnegative")
    return rho ** law.gamma / law.gamma


def rho_zw(z, w, law: GasLaw):
    """Density recovered from the invariants (0 where the gap closes)."""
    gap = np.maximum(np.asarray(w) - np.asarray(z), 0.0)
    return (0.5 * law.theta * gap) ** (1.0 / law.theta)


def speeds_zw(z, w, law: GasLaw, out=None):
    """Characteristic speeds (lambda1, lambda2), into the rows of ``out`` if given."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    v = 0.5 * (w + z)
    c = 0.5 * law.theta * (w - z)
    if out is None:
        return v - c, v + c
    return np.subtract(v, c, out=out[0]), np.add(v, c, out=out[1])


def source_coef(a, law: GasLaw):
    """The factor ((gamma-1)/8) a(x) of the source (``source_pair_zw``)."""
    return 0.125 * (law.gamma - 1.0) * np.asarray(a, dtype=float)


def source_pair_zw(gap, total, coef):
    """Source of the diagonal system: (dz/dt, dw/dt) = (s, -s) with
    s = ((gamma-1)/8) a (w^2 - z^2), formed as coef * gap * total from
    gap = w - z, total = w + z and coef = ``source_coef(a, law)``, which an
    evolve stage has at hand.  Antisymmetric by construction."""
    s = np.multiply(coef, gap)
    s *= total
    return s, -s

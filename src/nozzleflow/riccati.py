"""Gradient functionals along characteristics and their Riccati structure.

The functionals Phi (built on z_x) and Psi (built on w_x) satisfy scalar
Riccati equations along their characteristic families; the coefficients, the
decaying subsolution, and the a-priori upper bound here are what the runtime
verifier checks against the evolved fields.  Both exponent branches are
implemented: the general one and the log branch at gamma = 5/3.  Every
``*_zw`` function takes scalars or numpy arrays alike, and ``coeffs_zw``
returns the tuple (A, B, C, A_hat, B_hat, C_hat).
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DomainError, PoleError, VacuumStateError
from .model import VACUUM_GAP, GasLaw, speeds_zw
from .region import EXACT, GRACE, Certificate, cert_item, worst_item

#: Characteristic speeds below this magnitude count as sonic in divisors.
SONIC_TOL = 1e-12


def _gap(z, w):
    gap = np.asarray(w, dtype=float) - np.asarray(z, dtype=float)
    if np.any(gap < VACUUM_GAP):
        raise VacuumStateError("functional evaluation requires w - z >= vacuum gap")
    return gap


def phi_psi_zw(z, w, z_x, w_x, a, law: GasLaw):
    """(Phi, Psi) from the state, its spatial derivatives and a(x)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    gap = _gap(z, w)
    if law.is_log_branch:
        L = np.log(gap)
        phi = z_x / gap - a * z / (2.0 * gap) + 0.5 * a * L
        psi = w_x / gap - a * w / (2.0 * gap) - 0.5 * a * L
    else:
        b = law.beta
        gb = gap ** b
        gb1 = gap ** (b + 1.0)
        phi = gb * z_x + a * z / (2.0 * b) * gb + a / (2.0 * (b + 1.0)) * gb1
        psi = gb * w_x + a * w / (2.0 * b) * gb - a / (2.0 * (b + 1.0)) * gb1
    return phi, psi


def phi_psi_boundary_zw(z, w, z_t, w_t, a, law: GasLaw):
    """Boundary form: spatial derivatives recovered from time derivatives
    through the evolution equations, then the same functionals."""
    lam1, lam2 = speeds_zw(z, w, law)
    if np.any(np.abs(lam1) < SONIC_TOL) or np.any(np.abs(lam2) < SONIC_TOL):
        raise PoleError("boundary functionals are singular at a sonic state")
    src = 0.125 * (law.gamma - 1.0) * a * (np.asarray(w) ** 2 - np.asarray(z) ** 2)
    z_x_eff = -(np.asarray(z_t) - src) / lam1
    w_x_eff = -(np.asarray(w_t) + src) / lam2
    return phi_psi_zw(z, w, z_x_eff, w_x_eff, a, law)


def coeffs_zw(z, w, a, a_x, law: GasLaw):
    """Vectorized (A, B, C, A_hat, B_hat, C_hat)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    gap = _gap(z, w)
    if law.is_log_branch:
        L = np.log(gap)
        A = -(2.0 / 3.0) * gap
        B = a / 6.0 * (w - 4.0 * z + 4.0 * gap * L)
        B_hat = a / 6.0 * (z - 4.0 * w - 4.0 * gap * L)
        C1 = (-(a * a) / 24.0 * (3.0 * w**2 + 3.0 * z**2
                                 + 2.0 * (w**2 - 5.0 * w * z + 4.0 * z**2) * L
                                 + 4.0 * gap**2 * L**2)
              + a_x / 12.0 * (w**2 - 2.0 * w * z - 5.0 * z**2
                              + 2.0 * (w**2 + w * z - 2.0 * z**2) * L))
        C1_hat = (-(a * a) / 24.0 * (3.0 * w**2 + 3.0 * z**2
                                     + 2.0 * (z**2 - 5.0 * w * z + 4.0 * w**2) * L
                                     + 4.0 * gap**2 * L**2)
                  + a_x / 12.0 * (z**2 - 2.0 * w * z - 5.0 * w**2
                                  + 2.0 * (z**2 + w * z - 2.0 * w**2) * L))
        C = C1 / gap
        C_hat = C1_hat / gap
        return A, B, C, A, B_hat, C_hat
    b = law.beta
    A = -(b - 1.0) / (2.0 * b - 1.0) * gap ** (-b)
    pref_b = a / (2.0 * b * (b + 1.0) * (2.0 * b - 1.0))
    c1 = b * (b * b + 3.0 * b - 2.0)
    c2 = b**3 + 2.0 * b * b + 3.0 * b - 2.0
    B = pref_b * (c1 * w + c2 * z)
    B_hat = pref_b * (c1 * z + c2 * w)
    pref_sq = -(a * a) / (8.0 * b * b * (b + 1.0) ** 2 * (2.0 * b - 1.0))
    pref_x = -a_x / (4.0 * b * (b + 1.0) * (2.0 * b - 1.0))
    d1 = b * (1.0 - b) ** 2
    e1 = b * (1.0 - b)
    e2 = -2.0 * b * b
    e3 = 2.0 - 3.0 * b - b * b
    C1 = (pref_sq * (d1 * w**2 + 2.0 * c1 * w * z + c2 * z**2)
          + pref_x * (e1 * w**2 + e2 * w * z + e3 * z**2))
    C1_hat = (pref_sq * (d1 * z**2 + 2.0 * c1 * w * z + c2 * w**2)
              + pref_x * (e1 * z**2 + e2 * w * z + e3 * w**2))
    gb = gap ** b
    return A, B, gb * C1, A, B_hat, gb * C1_hat


def subsolution_value(x, delta1: float, M: float, alpha: float):
    """The decaying lower barrier -delta1 (1 + M x)^(-1-alpha)."""
    if delta1 <= 0.0 or M <= 0.0 or alpha <= 0.0:
        raise DomainError("delta1, M and alpha must all be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("barrier is defined for x >= 0")
    val = -delta1 * (1.0 + M * x) ** (-1.0 - alpha)
    return float(val) if val.ndim == 0 else val


def cumulative_trapezoid(y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    if y.size > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def apriori_upper_bound(t, A, B, C, phi0: float):
    """Running bound phi0 + int (C - B^2/(4A)); requires A < 0 throughout."""
    A = np.asarray(A, dtype=float)
    if np.any(A >= 0.0):
        raise ContractViolationError("quadratic coefficient must stay negative")
    integrand = np.asarray(C, dtype=float) - np.asarray(B, dtype=float) ** 2 / (4.0 * A)
    return phi0 + cumulative_trapezoid(integrand, t)


# ---------------------------------------------------------------------------
# data-condition and compatibility certificates
# ---------------------------------------------------------------------------

#: Lower-bound sign of the decaying envelope on (Phi, Psi) per problem:
#: the sign matches the direction of the characteristic family carrying each
#: functional (leftward -> negative barrier, rightward -> positive barrier).
_LOWER_SIGNS = {"P1": (-1, +1), "P2": (+1, +1), "P3": (-1, -1)}


#: Largest residual the corner compatibility identities may leave.
COMPAT_TOL = 1e-8


def _bound_items(label, vals, lower, upper, where, where_label):
    """``lower <= vals`` at its least slack; ``vals <= upper`` at the largest value."""
    note = f"worst {where_label}"
    return [worst_item(f"{label} >= lower", lower, vals, GRACE, where, note=note),
            worst_item(f"{label} <= delta2", vals, upper, GRACE, where,
                       index=int(np.argmax(vals)), note=note)]


def _gap_item(label, z, w, where, where_label):
    """``label >= VACUUM_GAP`` at its least slack: the functionals, and so
    the items that follow it, need data away from vacuum."""
    gap = np.asarray(w, dtype=float) - np.asarray(z, dtype=float)
    return worst_item(f"{label} >= vacuum gap", VACUUM_GAP, gap, EXACT, where,
                      note=f"worst {where_label}")


def check_data_conditions(problem: str, x, z0, w0, a_vals, delta1: float,
                          delta2: float, M: float, alpha: float, law: GasLaw,
                          boundary=None, boundary_rates=None):
    """Two-sided slack report for the initial (and, for P2, boundary) data.
    Data that reach the vacuum gap fail its item, and the functional items
    that need them are left out.

    ``boundary`` is (t, zB, wB, a0) and is required for P2.  Derivatives are
    taken by centered differences of the supplied samples; ``boundary_rates``
    (zB_t, wB_t at t) replaces those of a boundary series of one instant.
    """
    if problem not in _LOWER_SIGNS:
        raise DomainError(f"problem must be P1, P2 or P3, got {problem!r}")
    if delta1 <= 0.0:
        raise DomainError("delta1 must be positive")
    if delta2 < delta1:
        raise DomainError(f"delta2 must dominate delta1, got {delta2} < {delta1}")
    x = np.asarray(x, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    items = [_gap_item("w0(x) - z0(x)", z0, w0, x, "x")]
    if items[0].passed:
        z_x = np.gradient(z0, x, edge_order=2)
        w_x = np.gradient(w0, x, edge_order=2)
        phi, psi = phi_psi_zw(z0, w0, z_x, w_x, a_vals, law)
        env = -subsolution_value(x, delta1, M, alpha)
        s_phi, s_psi = _LOWER_SIGNS[problem]
        items += _bound_items("Phi(x,0)", phi, s_phi * env, delta2, x, "x")
        items += _bound_items("Psi(x,0)", psi, s_psi * env, delta2, x, "x")
    if problem == "P2":
        if boundary is None:
            raise DomainError("P2 data conditions need the boundary series")
        t, zB, wB, a0 = boundary
        t = np.asarray(t, dtype=float)
        items.append(_gap_item("wB(t) - zB(t)", zB, wB, t, "t"))
        if items[-1].passed:
            if boundary_rates is None:
                boundary_rates = (np.gradient(np.asarray(zB, dtype=float), t, edge_order=2),
                                  np.gradient(np.asarray(wB, dtype=float), t, edge_order=2))
            phi_b, psi_b = phi_psi_boundary_zw(zB, wB, *boundary_rates, a0, law)
            items += _bound_items("PhiB(0,t)", phi_b, delta1, delta2, t, "t")
            items += _bound_items("PsiB(0,t)", psi_b, delta1, delta2, t, "t")
    return Certificate("data-conditions", items,
                       meta={"problem": problem, "delta1": delta1, "delta2": delta2})


def _one_sided_derivative(fn, h: float = 3e-6):
    f0, f1, f2 = float(fn(0.0)), float(fn(h)), float(fn(2.0 * h))
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def check_compatibility(problem: str, z0_fn, w0_fn, zB_fn, wB_fn, a0: float,
                        law: GasLaw, h: float = 3e-6):
    """Residuals of the corner compatibility identities at (x, t) = (0, 0),
    each at most ``COMPAT_TOL``."""
    if problem not in _LOWER_SIGNS:
        raise DomainError(f"problem must be P1, P2 or P3, got {problem!r}")
    items = []

    def residual_item(name, residual):
        return cert_item(name, abs(float(residual)), COMPAT_TOL, EXACT)

    if problem == "P1":
        z00, w00 = float(z0_fn(0.0)), float(w0_fn(0.0))
        dz0 = _one_sided_derivative(z0_fn, h)
        dw0 = _one_sided_derivative(w0_fn, h)
        items.append(residual_item("w0(0)+z0(0) = 0", w00 + z00))
        items.append(residual_item("w0'(0)-z0'(0) = 0", dw0 - dz0))
    elif problem == "P2":
        if zB_fn is None or wB_fn is None:
            raise DomainError("P2 compatibility needs boundary data")
        z00, w00 = float(z0_fn(0.0)), float(w0_fn(0.0))
        zb0, wb0 = float(zB_fn(0.0)), float(wB_fn(0.0))
        items.append(residual_item("z0(0) = zB(0)", z00 - zb0))
        items.append(residual_item("w0(0) = wB(0)", w00 - wb0))
        dz0 = _one_sided_derivative(z0_fn, h)
        dw0 = _one_sided_derivative(w0_fn, h)
        dzb = _one_sided_derivative(zB_fn, h)
        dwb = _one_sided_derivative(wB_fn, h)
        lam1, lam2 = speeds_zw(z00, w00, law)
        src = 0.125 * (law.gamma - 1.0) * a0 * (w00 * w00 - z00 * z00)
        items.append(residual_item("zB'(0)+lambda1*z0'(0) = source",
                                   dzb + float(lam1) * dz0 - src))
        items.append(residual_item("wB'(0)+lambda2*w0'(0) = -source",
                                   dwb + float(lam2) * dw0 + src))
    else:
        items.append(cert_item("no boundary: nothing to match", 0.0, COMPAT_TOL,
                               EXACT, note="vacuously true"))
    return Certificate("compatibility", items, meta={"problem": problem, "tol": COMPAT_TOL})

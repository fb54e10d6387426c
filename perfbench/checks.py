"""Correctness checks on what the benchmark's operations produce.

Each check takes plain data (file paths, parsed reports, residual tables) and
raises CheckError when a property the method must have does not hold.  The
checks use their own gas-law formulas and compare runs against each other,
never against stored reference copies.
"""
import hashlib
import math
from fractions import Fraction

import numpy as np

#: Relative agreement required where two computations do the same arithmetic
#: on the same stored data (verify against simulate, CSV against z and w).
REL_TOL = 1e-12

_CSV_COLUMNS = ("t,x,rho,v,z,w,z_x,w_x,Phi,Psi,margin_z_lo,margin_z_hi,"
                "margin_w_lo,margin_w_hi,gap,lambda1,lambda2").split(",")


class CheckError(AssertionError):
    """An output of the program failed a correctness check."""


def _close(a, b, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bad = ~(np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b)))  # NaN is bad
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckError(f"{what}: {a.flat[i]!r} != {b.flat[i]!r} (entry {i})")


def check_fields_csv(path, gamma: str, problem: str) -> int:
    """Recompute rho, v, lambda1 and lambda2 of every row of ``fields.csv``
    from its z and w, and check that both speeds have the sign the problem
    type requires (P2 both positive, P3 both negative).  Returns the number
    of rows."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != _CSV_COLUMNS:
        raise CheckError(f"{path}: unexpected header {header}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] == 0:
        raise CheckError(f"{path}: no rows")
    col = {name: table[:, i] for i, name in enumerate(_CSV_COLUMNS)}
    g = float(Fraction(gamma))
    z, w = col["z"], col["w"]
    # z, w = v -+ (2/(gamma-1)) c with sound speed c = rho**((gamma-1)/2),
    # from the pressure law p = rho**gamma / gamma.
    rho_theta = (g - 1.0) / 4.0 * (w - z)
    rho = rho_theta ** (2.0 / (g - 1.0))
    v = (w + z) / 2.0
    sound = np.sqrt(rho ** (g - 1.0))
    _close(col["rho"], rho, f"{path}: rho")
    _close(col["v"], v, f"{path}: v")
    _close(col["lambda1"], v - sound, f"{path}: lambda1")
    _close(col["lambda2"], v + sound, f"{path}: lambda2")
    sign = {"P2": 1.0, "P3": -1.0}.get(problem)
    if sign is not None:
        for name in ("lambda1", "lambda2"):
            wrong = np.nonzero(sign * col[name] <= 0.0)[0]
            if wrong.size:
                raise CheckError(f"{path}: {problem} needs {name} of sign "
                                 f"{sign:+.0f}, row {int(wrong[0]) + 1} has "
                                 f"{col[name][wrong[0]]!r}")
    return table.shape[0]


def check_trace_exits(characteristics: dict, problem: str) -> None:
    """P3 paths all leave through the wall (``left``); P2 paths never do."""
    exits = [p["exit"] for p in characteristics["paths"]]
    if not exits:
        raise CheckError("the post-pass evaluated no paths")
    if problem == "P3" and set(exits) != {"left"}:
        raise CheckError(f"P3 paths must all exit left, got {sorted(set(exits))}")
    if problem == "P2" and "left" in exits:
        raise CheckError(f"{exits.count('left')} P2 paths exit left")


def check_verify_matches(simulated: dict, verified: dict) -> None:
    """``verify`` on the stored trajectory reproduces the simulate-time
    post-pass: the same paths with the same exit reasons and sample counts,
    and residual maxima (transport per path and family, conservative form)
    within REL_TOL.  Both arguments hold ``characteristics`` and
    ``conservative_residual`` as the reports write them."""
    sim, ver = simulated["characteristics"], verified["characteristics"]
    if len(sim["paths"]) != len(ver["paths"]):
        raise CheckError(f"verify evaluated {len(ver['paths'])} paths, "
                         f"simulate {len(sim['paths'])}")
    for i, (a, b) in enumerate(zip(sim["paths"], ver["paths"])):
        for key in ("family", "x0", "t0", "exit", "samples"):
            if a[key] != b[key]:
                raise CheckError(f"path {i}: {key} {b[key]!r} on verify, "
                                 f"{a[key]!r} on simulate")
        if "residual_max" in a or "residual_max" in b:
            _close(a.get("residual_max", math.nan), b.get("residual_max", math.nan),
                   f"path {i} transport residual")
    for fam, a in sim["families"].items():
        _close(a["residual_max"], ver["families"][fam]["residual_max"],
               f"family {fam} transport residual")
    _close(simulated["conservative_residual"]["max_linf"],
           verified["conservative_residual"]["max_linf"], "conservative residual")


def fields_fingerprint(npz) -> str:
    """Digest of the z and w snapshots stored in an open ``.npz``."""
    digest = hashlib.sha256()
    for name in ("times", "z", "w"):
        digest.update(np.ascontiguousarray(npz[name]).tobytes())
    return digest.hexdigest()


def check_same(first, current, what: str) -> None:
    """Repeated runs in one process give bitwise-identical results."""
    if current != first:
        raise CheckError(f"{what} differs from the first round")


def check_ladder(rows) -> None:
    """Each refinement step lowers both families' transport residuals and the
    conservative residual at an observed order of at least one.  ``rows`` are
    (n, family-1 residual, family-2 residual, conservative residual) by
    increasing n."""
    names = ("family-1 transport", "family-2 transport", "conservative")
    for (n0, *coarse), (n1, *fine) in zip(rows, rows[1:]):
        for name, r0, r1 in zip(names, coarse, fine):
            order = (math.log(r0 / r1) / math.log(n1 / n0)
                     if r0 > 0.0 and r1 > 0.0 else math.nan)
            if not order >= 1.0:
                raise CheckError(f"{name} residual {r0:.4e} -> {r1:.4e} from "
                                 f"n = {n0} to {n1}: observed order {order:.3f} < 1")

#!/usr/bin/env python3
"""Grid-refinement study: transport-identity and conservative-form residuals
at a ladder of resolutions for each desk scenario.

Each rung is parsed from the config text with its own ``n =`` line, so its
scenario carries the text of its own run and a saved rung reloads as itself.

Usage: python scripts/refinement_study.py [BASE_N ...]
"""
import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nozzleflow.characteristics import launch_fan, riccati_residual
from nozzleflow.config import parse_config_text
from nozzleflow.harness import conservative_residual
from nozzleflow.solver import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fan_max(traj):
    """Largest transport residual over each family's launch fan; both fans
    are traced in one batch."""
    paths = [p for p in launch_fan(traj, (1, 2)) if p.n >= 3]
    return [max(riccati_residual(p).max_norm for p in paths if p.family == family)
            for family in (1, 2)]


def rung(cfg: Path, n: int):
    """The scenario of the config file ``cfg`` with its ``n =`` line set to
    ``n``."""
    text, count = re.subn(r"(?m)^n\s*=.*$", f"n = {n}", cfg.read_text())
    if count != 1:
        raise SystemExit(f"{cfg}: expected one 'n =' line, found {count}")
    return parse_config_text(text, source=str(cfg), base_dir=cfg.parent).to_scenario()


def main():
    ladder = [int(v) for v in sys.argv[1:]] or [500, 1000, 2000]
    for cfg in sorted(CONFIGS.glob("p?_desk.cfg")):
        print(f"=== {cfg.stem} (T = {rung(cfg, ladder[0]).T})")
        rows = []
        for n in ladder:
            traj, _ = run(rung(cfg, n))
            rows.append((n, *fan_max(traj), conservative_residual(traj).max_linf))
        print(f"    {'n':>6} {'transport f1':>14} {'transport f2':>14} "
              f"{'conservative':>14}")
        for n, r1, r2, rc in rows:
            print(f"    {n:>6} {r1:>14.4e} {r2:>14.4e} {rc:>14.4e}")
        for (n0, *v0), (n1, *v1) in zip(rows, rows[1:]):
            orders = [math.log2(a / b) if b > 0 else float("nan")
                      for a, b in zip(v0, v1)]
            print(f"    order {n0}->{n1}: "
                  + "  ".join(f"{o:.2f}" for o in orders))


if __name__ == "__main__":
    main()

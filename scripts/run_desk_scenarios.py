#!/usr/bin/env python3
"""Run the three shipped desk scenarios end to end and print a summary.

Usage: python scripts/run_desk_scenarios.py [OUT_DIR]
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nozzleflow.harness import run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    out_root = Path(sys.argv[1] if len(sys.argv) > 1 else "desk_out")
    overall = 0
    for cfg in sorted(CONFIGS.glob("p?_desk.cfg")):
        dest = out_root / cfg.stem
        started = time.perf_counter()
        code = run_scenario(cfg, dest)
        elapsed = time.perf_counter() - started
        report = json.loads((dest / "report.json").read_text())
        mon = report.get("monitors", {})
        ch = report.get("characteristics", {})
        scn = report["scenario"]
        print(f"=== {cfg.stem}: exit {code} in {elapsed:.1f}s, {scn['steps']} steps "
              f"of dt = {scn['dt']:.4g}, {scn['cell_steps']} cell-steps")
        if mon:
            worst = min(mon["min_margin_per_face"].values())
            print(f"    containment margin >= {worst:.4g} "
                  f"(tolerance {mon['margin_tol']:.2e}), "
                  f"gap >= {mon['min_gap']:.4g} (needs {mon['C3']:.4g} - tol)")
        for fam, st in ch.get("families", {}).items():
            exits = ", ".join(f"{k} {v}" for k, v in sorted(st["exits"].items()))
            print(f"    family {fam}: checked={st['checked']}/{st['paths']} paths ({exits}), "
                  f"{st['samples']} samples, "
                  f"transport residual <= {st['residual_max']:.3e}, "
                  f"bounds ok: {st['bounds_ok']}")
        overall = max(overall, code)
    return overall


if __name__ == "__main__":
    sys.exit(main())

import subprocess
import sys
from pathlib import Path

from conftest import desk_config_text
from nozzleflow.characteristics import launch_fan, riccati_residual
from nozzleflow.config import parse_config_text
from nozzleflow.harness import conservative_residual
from nozzleflow.solver import run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "refinement_study.py"
LADDER = (100, 200)


def _row(name, n):
    """The table row of the rung at ``n`` of the desk config ``name``, from
    a scenario parsed from the config text with that n."""
    scn = parse_config_text(desk_config_text(name, {"n = 2000": f"n = {n}"})).to_scenario()
    traj, _ = run(scn)
    paths = [p for p in launch_fan(traj, (1, 2)) if p.n >= 3]
    r1, r2 = (max(riccati_residual(p).max_norm for p in paths if p.family == family)
              for family in (1, 2))
    rc = conservative_residual(traj).max_linf
    return f"    {n:>6} {r1:>14.4e} {r2:>14.4e} {rc:>14.4e}"


def test_rows_are_those_of_text_built_rungs():
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, LADDER)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    sections = done.stdout.split("=== ")[1:]
    assert [s.split()[0] for s in sections] == ["p1_desk", "p2_desk", "p3_desk"]
    for section in sections:
        name, lines = section.split()[0], section.splitlines()
        assert lines[2:2 + len(LADDER)] == [_row(name, n) for n in LADDER], name

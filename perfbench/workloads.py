"""The benchmark's workloads: their inputs, the operations of one round, and
the checks every round's outputs must pass.

A round is one ``nozzleflow simulate`` of the workload's config, one
``nozzleflow verify`` of the trajectory it wrote, and one resolution ladder
(solve without monitors, launch-fan transport residuals, conservative
residual per rung, nothing written).  Every round attempts the same
operations, so the share of failed operations does not depend on how many
rounds a run fits in.

Operations are timed through the runner's gauge (see gauge.py), which
samples the machine's speed before each one.

nozzleflow is called through module attributes (``solver.run``, not a name
bound at import) so that the traced run's wrappers see every call.
"""
import dataclasses
import json
import re
import shutil
import sys
import time
import traceback

import numpy as np

from nozzleflow import characteristics, cli, config, harness, solver

import checks
from checkout import CONFIGS
from gauge import Gauge


@dataclasses.dataclass(frozen=True)
class Workload:
    """Desk config, grid size of its simulate/verify pair, ladder rungs."""

    config: str
    simulate_n: int
    rungs: tuple

    @property
    def ops_per_round(self) -> int:
        return 2 + len(self.rungs)


# Grid sizes are below the desk configs' n = 2000 so that one run holds
# several rounds.  The ladder rungs of ladder-p3 are in the asymptotic range
# (at n <= 500 the p3 residuals do not yet fall with n); the roundtrip
# workloads' ladder is the single rung at their simulate size.
WORKLOADS = {
    "roundtrip-p2": Workload("p2_desk", 150, (150,)),
    "roundtrip-p3": Workload("p3_desk", 1000, (1000,)),
    "ladder-p3": Workload("p3_desk", 250, (1000, 1400, 2000)),
}


def _setting(text: str, key: str) -> str:
    match = re.search(rf"(?m)^{key}\s*=\s*(\S+)", text)
    if match is None:
        raise ValueError(f"config has no {key!r} setting")
    return match.group(1)


def _fan_max(traj, family: int) -> float:
    """Largest transport residual over one family's launch fan, as
    scripts/refinement_study.py computes it."""
    return max(characteristics.riccati_residual(p).max_norm
               for p in characteristics.launch_fan(traj, family) if p.n >= 3)


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Runner:
    """Runs rounds of one workload inside a work directory and checks them.

    ``problems`` collects the messages of failed checks; ``attempted`` and
    ``failed`` count operations; ``gauge`` holds the speed samples.
    """

    def __init__(self, workload: Workload, work, seed: int):
        self.workload = workload
        self.work = work
        self.seed = seed
        text = (CONFIGS / f"{workload.config}.cfg").read_text()
        text, count = re.subn(r"(?m)^n\s*=.*$", f"n = {workload.simulate_n}", text)
        if count != 1:
            raise ValueError(f"{workload.config}: expected one 'n =' line")
        self.problem = _setting(text, "kind")
        self.gamma = _setting(text, "gamma")
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / f"{workload.config}_n{workload.simulate_n}.cfg"
        self.config_path.write_text(text)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.artifact_bytes = []
        self.gauge = Gauge()
        self._first = {}

    def round(self) -> dict:
        """Run one round and check it.  Returns, keyed by end-to-end metric
        name, the wall seconds of each operation kind that succeeded."""
        out = self.work / f"round{self.rounds}"
        self.rounds += 1
        self.attempted += self.workload.ops_per_round
        seconds = {}
        for part in (lambda: self._roundtrip(out), self._ladder):
            try:
                seconds.update(part())
            except checks.CheckError as exc:
                self.problems.append(str(exc))
                print(f"check failed: {exc}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def _cli(self, *argv):
        """One in-process nozzleflow command: its wall seconds, or None when
        it failed."""
        try:
            code, seconds = self.gauge.timed(
                cli.main, ["--quiet", "--seed", str(self.seed), *argv])
        except Exception:  # one failed operation must not end the run
            _report_failure(" ".join(argv))
            return None
        if code != 0:
            print(f"operation failed: nozzleflow {' '.join(argv)} exited {code}",
                  file=sys.stderr)
            return None
        return seconds

    def _roundtrip(self, out) -> dict:
        sim, ver = out / "simulate", out / "verify"
        sim_s = self._cli("--out", str(sim), "simulate", str(self.config_path))
        ver_s = (self._cli("--out", str(ver), "verify", str(sim / "trajectory.npz"))
                 if sim_s is not None else None)
        self.failed += (sim_s is None) + (ver_s is None)
        if sim_s is None or ver_s is None:
            return {}
        self.artifact_bytes.append(sum(p.stat().st_size for p in sim.iterdir()))
        report = json.loads((sim / "report.json").read_text())
        verified = json.loads((ver / "verify_report.json").read_text())
        checks.check_fields_csv(sim / "fields.csv", self.gamma, self.problem)
        checks.check_trace_exits(report["characteristics"], self.problem)
        checks.check_verify_matches(report, verified)
        with np.load(sim / "trajectory.npz") as npz:
            fingerprint = checks.fields_fingerprint(npz)
        checks.check_same(self._first.setdefault("fields", fingerprint),
                          fingerprint, "stored fields")
        return {"simulate_s": sim_s, "verify_s": ver_s}

    def _ladder_rows(self) -> list:
        base = config.load_config(CONFIGS / f"{self.workload.config}.cfg").to_scenario()
        rows = []
        for n in self.workload.rungs:
            try:
                # Built the way scripts/refinement_study.py builds its rungs.
                scn = dataclasses.replace(base, n=n, _cache={})
                traj, _ = solver.run(scn)
                rows.append((n, _fan_max(traj, 1), _fan_max(traj, 2),
                             harness.conservative_residual(traj).max_linf))
                del traj
            except Exception:  # one failed rung must not end the run
                _report_failure(f"ladder rung n = {n}")
                self.failed += 1
        return rows

    def _ladder(self) -> dict:
        rows, seconds = self.gauge.timed(self._ladder_rows)
        if len(rows) < len(self.workload.rungs):
            return {}
        checks.check_ladder(rows)
        checks.check_same(self._first.setdefault("ladder", rows), rows,
                          "ladder residuals")
        return {"refine_s": seconds}


def measure(runner: Runner, seconds: float, after_round=None) -> list:
    """Timed rounds while the next one is expected to end within
    ``seconds`` (at least one).  Returns what each ``runner.round`` gave."""
    rounds = []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        rounds.append(runner.round())
        last = time.perf_counter() - begun
        if after_round is not None:
            after_round()
    return rounds

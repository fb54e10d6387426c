"""The traced run: one workload with every nozzleflow layer wrapped.

Usage: python3 perfbench/traced.py WORKLOAD SEED SECONDS OUT_JSON

run.py starts this as its own process, so the wrappers never touch the
untraced run.  Writes to OUT_JSON each timed round's operation wall seconds and
per-layer metrics (wall seconds), the run's speed factor, the span table of
all timed rounds, and the operation and check tallies.
"""
import json
import os
import shutil
import sys
from pathlib import Path

import checkout

checkout.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int, seconds: float, out_json: Path) -> None:
    tracer = tracing.Tracer()
    tracer.install()
    work = checkout.OUT / f"work-traced-{name}-{os.getpid()}"
    try:
        runner = workloads.Runner(workloads.WORKLOADS[name], work, seed)
        runner.round()
        tracer.take()
        layers, spans = [], {}

        def after_round():
            round_spans, counts = tracer.take()
            layers.append(tracing.layer_metrics(round_spans, counts))
            for key, (calls, incl, own) in round_spans.items():
                total = spans.setdefault(key, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += incl
                total[2] += own

        rounds = workloads.measure(runner, seconds, after_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {
        "workload": name, "seed": seed,
        "ops_s": [sum(r.values()) for r in rounds],
        "speed_factor": runner.gauge.factor,
        "layers": layers,
        "spans": {k: dict(zip(("calls", "inclusive_s", "self_s"), v))
                  for k, v in sorted(spans.items())},
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems,
    }
    out_json.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4]))

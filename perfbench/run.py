#!/usr/bin/env python3
"""nozzleflow benchmark: simulate, verify and the refinement ladder.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, measured untraced in this process;
with ``--trace 1`` the per-layer metrics, measured in a separate traced
process, with the traced run's overhead against an untraced run of the same
length.  Each timing is the median over the timed rounds of the run, after
one untimed warm-up round, scaled to the reference machine speed (see
gauge.py).  The last line of standard output is the result
as JSON.  The pipeline is deterministic: the seed is handed to nozzleflow's
``--seed`` and recorded, and it changes no input.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent

#: Fresh processes timed for setup_s before the first round of an untraced
#: run; one more follows each timed round.
SETUP_PROBES = 3

#: Per-layer metrics that count work: every timed round must give the same.
COUNT_UNITS = ("count", "B")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _setup_seconds(runner) -> float:
    """Process start to a built scenario, in a fresh interpreter."""
    runner.gauge.sample()
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(runner.config_path)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - started


def _median(values, what):
    values = list(values)
    if not values:
        raise RuntimeError(f"no successful operation gave {what}")
    return statistics.median(values)


def end_to_end(runner, workloads, seconds) -> dict:
    # Set-ups are spread over the run, like the operations, so that the
    # gauge's scale fits them too.
    setup = [_setup_seconds(runner) for _ in range(SETUP_PROBES)]
    runner.round()
    rounds = workloads.measure(runner, seconds,
                               lambda: setup.append(_setup_seconds(runner)))
    walls = {"setup_s": _median(setup, "setup_s")}
    for key in ("simulate_s", "verify_s", "refine_s"):
        walls[key] = _median((r[key] for r in rounds if key in r), key)
    factor = runner.gauge.factor
    print(f"{len(rounds)} timed rounds, {len(setup)} set-ups, speed factor "
          f"{factor!r}; median wall s: {walls}", file=sys.stderr)
    metrics = {key: wall * factor for key, wall in walls.items()}
    metrics["artifact_mb"] = statistics.median(runner.artifact_bytes) / 2 ** 20
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(runner, workloads, args, units) -> dict:
    """Half the run untraced here, half traced in a child process."""
    half = args.seconds / 2
    runner.round()
    plain = [sum(r.values()) for r in workloads.measure(runner, half)]
    out_json = checkout.OUT / f"trace-{args.workload}-seed{args.seed}.json"
    subprocess.run([sys.executable, str(HERE / "traced.py"), args.workload,
                    str(args.seed), repr(half), str(out_json)],
                   check=True, timeout=170)
    traced = json.loads(out_json.read_text())
    runner.attempted += traced["attempted"]
    runner.failed += traced["failed"]
    runner.problems += traced["problems"]
    layers = traced["layers"]
    factor = traced["speed_factor"]
    metrics = {}
    for key in layers[0]:
        values = [r[key] for r in layers]
        if units[key] in COUNT_UNITS:
            if len(set(values)) > 1:
                runner.problems.append(f"{key} differs between rounds: "
                                       f"{sorted(set(values))}")
            metrics[key] = statistics.median_low(values)
        else:
            scale = {"s": factor, "1/s": 1.0 / factor}.get(units[key], 1.0)
            metrics[key] = statistics.median(values) * scale
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["ops_s"]) * factor
        / (statistics.median(plain) * runner.gauge.factor))
    print(f"{len(plain)} untraced and {len(layers)} traced rounds; "
          f"spans in {out_json.relative_to(checkout.ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        checkout.use_checkout_source()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    work = checkout.OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        runner = workloads.Runner(workloads.WORKLOADS[args.workload], work, args.seed)
        if args.trace:
            metrics = per_layer(runner, workloads, args, units)
        else:
            metrics = end_to_end(runner, workloads, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json "
                           f"names {sorted(units)}")
    print(f"workload {args.workload}, seed {args.seed}")
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    for problem in runner.problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

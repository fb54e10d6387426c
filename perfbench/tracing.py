"""Per-layer tracing of nozzleflow from the benchmark's side.

``Tracer.install`` replaces every public function of the nozzleflow modules,
and every public method of the classes they define, by a wrapper that
records a span: calls, inclusive seconds, and self seconds (inclusive minus
the time of the wrapped calls it made).  A function imported into several
modules (``harness.run`` is ``solver.run``) gets one wrapper, installed under
every name, so its calls are counted once.  A few wrappers also count the
work the call did (cell-steps, traced samples and exit reasons, bytes
written).  Nothing inside ``src/`` changes.

Install it only in the traced process: the wrappers cost time, and the
untraced run that gives the end-to-end metrics must not carry them.
"""
import collections
import functools
import inspect
import os
import time

from nozzleflow import (characteristics, cli, config, expressions, harness,
                        model, region, riccati, solver)

MODULES = (characteristics, cli, config, expressions, harness, model, region,
           riccati, solver)


def _cells_of_step(counts, args, result):
    counts["cell_steps"] += result.z.size


def _snapshots_of_run(counts, args, result):
    traj = result[0]
    counts["cells"] += traj.grid.n
    counts["snapshot_bytes"] += len(traj.times) * traj.grid.n * 16


def _exit_of_trace(counts, args, result):
    counts["samples"] += result.n
    counts["exit_" + result.exit_reason] += 1


def _bytes_written(key):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[1])
    return count


#: Work counters, by wrapped name: (counters, positional args, result).
COUNTERS = {
    "solver.step": _cells_of_step,
    "solver.run": _snapshots_of_run,
    "characteristics.trace": _exit_of_trace,
    "solver.Trajectory.save": _bytes_written("npz_bytes"),
    "harness.write_fields_csv": _bytes_written("csv_bytes"),
}


class Tracer:
    """Span statistics and work counters since the last ``take``."""

    def __init__(self):
        self.spans = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = collections.Counter()
        self._open = []  # child seconds of each open span, innermost last
        self._depth = collections.Counter()

    def install(self) -> None:
        wrappers = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self._wrap(f"{short}.{name}.{meth}", fn))
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stats = self.spans[name]
        opened, depth = self._open, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            depth[name] += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                child = opened.pop()
                depth[name] -= 1
                if opened:
                    opened[-1] += elapsed
                stats[0] += 1
                stats[2] += elapsed - child
                if not depth[name]:  # a recursive call is inside its caller's span
                    stats[1] += elapsed
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def take(self):
        """Return (spans, counts) gathered since the last call and start
        afresh.  Spans map a name to [calls, inclusive s, self s]."""
        spans = {k: list(v) for k, v in self.spans.items() if v[0]}
        counts = dict(self.counts)
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: dict, counts: dict) -> dict:
    """The benchmark's per-layer metrics of one round."""
    def busy(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(spans.get(n, (0,))[0] for n in names)

    step_s = busy("solver.step")
    traces = calls("characteristics.trace")
    return {
        "config.load_s": busy("config.load_config"),
        "harness.certify_s": busy("harness.certify"),
        "solver.run_s": busy("solver.run"),
        "solver.step_s": step_s,
        "solver.steps": calls("solver.step"),
        "solver.cells": counts.get("cells", 0),
        "solver.cell_steps": counts.get("cell_steps", 0),
        "solver.cell_steps_per_s": counts.get("cell_steps", 0) / step_s if step_s else 0.0,
        "solver.snapshot_mb": counts.get("snapshot_bytes", 0) / 2 ** 20,
        "solver.save_s": busy("solver.Trajectory.save"),
        "solver.npz_bytes": counts.get("npz_bytes", 0),
        "harness.load_trajectory_s": busy("harness.load_trajectory"),
        "harness.monitors_s": busy("harness.Monitors.observe", "harness.Monitors.finalize"),
        "harness.characteristic_pass_s": busy("harness.characteristic_pass"),
        "harness.derivative_bound_s": busy("harness.derivative_bound_estimate"),
        "characteristics.trace_s": busy("characteristics.trace"),
        "characteristics.checks_s": busy("characteristics.riccati_residual",
                                         "characteristics.bound_check"),
        "characteristics.traces": traces,
        "characteristics.samples": counts.get("samples", 0),
        "characteristics.exit_end": counts.get("exit_end", 0),
        "characteristics.exit_left": counts.get("exit_left", 0),
        "characteristics.exit_cone": counts.get("exit_cone", 0),
        "characteristics.used_trace_ratio":
            calls("characteristics.riccati_residual") / traces if traces else 0.0,
        "solver.interp_calls": calls("solver.Trajectory.lam_at", "solver.Trajectory.sample"),
        "harness.conservative_residual_s": busy("harness.conservative_residual"),
        "harness.csv_s": busy("harness.write_fields_csv"),
        "harness.csv_bytes": counts.get("csv_bytes", 0),
    }

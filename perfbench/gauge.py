"""Machine-speed gauge: a fixed reference kernel timed between operations.

On a shared host the speed of a core changes as neighbouring tenants come
and go: it flips between a fast and a slow state (about 1.5x apart) many
times a second, and the share of slow time drifts over tens of seconds.  No
median inside one run removes that drift: a run that falls in a slow minute
reads slow on every operation.  The gauge times a short fixed kernel, which
calls nothing in nozzleflow, before and after every timed operation.  Its
mean time over the run estimates the run's average slowness (a median would
jump between the two states).  Reported times are wall times multiplied by
REFERENCE_S over that mean: seconds at the speed the host had when
REFERENCE_S was measured.  A change to nozzleflow cannot move the kernel, so
it cannot move the scale either.
"""
import statistics
import time
import zlib

import numpy as np

#: Mean seconds of one kernel on the host the bounds were set on (2-core VM
#: at 2.1 GHz, Python 3.11, numpy 2.4).
REFERENCE_S = 0.025

#: Share of the kernel samples dropped at each end before the mean, so that
#: a sample cut by preemption does not count.
TRIM = 0.1

_TIMES = np.linspace(0.0, 5.0, 1500)
_CELLS = np.linspace(0.1, 1.0, 2000)
_BYTES = np.sin(np.arange(10_000) * 0.37).round(3).tobytes()


def _kernel() -> float:
    """The kinds of work nozzleflow's operations do: numpy calls on scalars
    in an interpreted loop (the tracer), array arithmetic on a grid (the
    solver), a fresh array larger than the L2 cache (the snapshot stacks and
    residual fields) and zlib compression (the trajectory file)."""
    acc = 0.0
    for i in range(800):
        t = i * 0.0064
        k = int(np.clip(np.searchsorted(_TIMES, t, side="right") - 1, 0, _TIMES.size - 1))
        acc += float(np.clip((t - _TIMES[k]) * 3.0, 0.0, 1.0))
    a = _CELLS
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 0.9 * a
        b = np.concatenate([a[:2], a, a[-2:]])
        a = np.where(b[2:-2] > 0.5, a, b[1:-3])
    big = np.full(1_000_000, 0.5)
    big *= big
    return acc + float(a[0]) + float(big.sum()) + len(zlib.compress(_BYTES, 6))


class Gauge:
    """Kernel times of one run, and the scale they give."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def timed(self, fn, *args):
        """Call fn(*args) between two kernel samples; return (result, wall s)."""
        self.sample()
        started = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - started
        self.sample()
        return result, wall

    @property
    def factor(self) -> float:
        """Multiplier from this run's wall seconds to reference seconds."""
        samples = sorted(self.samples)
        cut = int(len(samples) * TRIM)
        return REFERENCE_S / statistics.fmean(samples[cut:len(samples) - cut])

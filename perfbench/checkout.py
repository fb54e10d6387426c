"""Locate the checkout the benchmark runs in and import nozzleflow from it.

The benchmark measures the source tree beside it, never an installed copy,
so it refuses to run where ``src/nozzleflow`` or the desk configs are
missing.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / "perfbench" / "out"

# One thread per process: numpy's BLAS pools would otherwise compete for the
# two cores with the process being measured.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory is not a nozzleflow checkout."""


def use_checkout_source():
    """Put the checkout's ``src`` first on ``sys.path`` and import nozzleflow
    from it; raise CheckoutError when it is not there."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    needed = [SRC / "nozzleflow" / "__init__.py",
              CONFIGS / "p2_desk.cfg", CONFIGS / "p3_desk.cfg"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError("not a nozzleflow checkout, missing: " + ", ".join(missing))
    sys.path.insert(0, str(SRC))
    import nozzleflow

    if Path(nozzleflow.__file__).resolve().parent != SRC / "nozzleflow":
        raise CheckoutError(f"nozzleflow imported from {nozzleflow.__file__}, "
                            f"not from {SRC}")

"""One fresh set-up, timed by the parent: interpreter start, numpy and
nozzleflow import, config load and scenario build.

Usage: python3 perfbench/setup_probe.py CONFIG
Prints the CLOCK_MONOTONIC reading taken once the scenario is built; the
parent subtracts the reading it took just before starting this process.
"""
import sys
import time

import checkout

checkout.use_checkout_source()

import numpy  # noqa: E402,F401
import nozzleflow.cli  # noqa: E402,F401
from nozzleflow.config import load_config  # noqa: E402

load_config(sys.argv[1]).to_scenario()
print(repr(time.monotonic()))

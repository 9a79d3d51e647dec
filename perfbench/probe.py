"""One set-up sample in a fresh interpreter: import treeagg, then warm up.

Usage: python3 perfbench/probe.py CHECKOUT_ROOT WARMUP_DIR
Prints the CPU seconds it took, then the median CPU seconds of three
host-speed probes (calib.py) run after it. WARMUP_DIR must already hold
the warm-up treebank written by run.py, so generating it is not timed.
"""

import time

START = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
import treeagg  # noqa: E402,F401

from workloads import warm_up  # noqa: E402

warm_up(Path(sys.argv[2]))
ELAPSED = time.process_time() - START

import statistics  # noqa: E402

import calib  # noqa: E402

calib.probe()
print(ELAPSED, statistics.median(calib.probe() for _ in range(3)))

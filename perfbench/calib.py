"""A fixed reference computation that tracks how fast the host runs now.

On a host shared with other tenants the same code runs up to 1.6 times
faster or slower for seconds to minutes at a time, in CPU time as well
as in wall time, as the load of the other tenants on the same cores
changes. The benchmark times ``probe()`` right before and
after every job and scales the job's time by ``REFERENCE_S`` over the
mean of those two probes: the job's time at reference host speed. A
change to treeagg moves the scaled time exactly as much as the raw one;
a change of host speed moves the job and the probes alike and cancels.

The probe mixes the two kinds of work treeagg does: pure-Python text
handling (as in CoNLL-U parsing) and small numpy matrix-vector loops (as
in cim's fits). It never calls treeagg, so no change to treeagg moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median of probe() on the machine of README.md's baseline.
REFERENCE_S = 0.012

_ROWS, _LINES, _STEPS = 1500, 6000, 150
_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((_ROWS, 10))
_T = (_rng.random(_ROWS) < 0.5).astype(np.float64)
_TEXT = "\n".join(
    "\t".join((str(d), f"w{v}", f"w{v}", "NOUN", "_", "_", str(h), "dep", "_", "_"))
    for d, v, h in zip(
        range(1, _LINES + 1), _rng.integers(0, 5000, _LINES), _rng.integers(0, 30, _LINES)
    )
)


def _work() -> float:
    heads = [int(row.split("\t")[6]) for row in _TEXT.splitlines()]
    counts: dict[int, int] = {}
    for h in heads:
        counts[h] = counts.get(h, 0) + 1
    w = np.zeros(_X.shape[1])
    for _ in range(_STEPS):
        w -= 0.01 * (_X.T @ (1.0 / (1.0 + np.exp(-(_X @ w))) - _T)) / _ROWS
    return float(w.sum()) + len(counts)


def probe() -> float:
    """CPU seconds of one run of the reference computation."""
    start = time.process_time()
    _work()
    return time.process_time() - start


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to reference speed."""
    return 2 * REFERENCE_S / (before + after)

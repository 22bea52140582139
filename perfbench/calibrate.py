"""Host-speed calibration.

The host this benchmark was defined on runs the same work up to 1.6 times
faster for minutes at a time, across interpreter-bound and numpy-bound
work alike. Timing a fixed kernel next to the workload and scaling the
workload's time by ``REFERENCE_S / kernel time`` turns host seconds into
calibrated seconds: seconds on a host as fast as the reference host was
when the benchmark was defined. The kernel mixes the two kinds of
work diversim does: a Python loop over dictionaries and lists, and numpy
operations (boolean masks, fancy indexing, ``unique``, ``reduceat``) on
arrays the size of a paper-scale graph. It does not touch diversim, so no
change to the program can change it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: median kernel time on the reference host (a 2-vCPU Xeon virtual
#: machine with Python 3.11 and numpy 2.4) when the benchmark was defined
REFERENCE_S = 0.028

_RNG = np.random.default_rng(20211214)
_VALUES = _RNG.integers(0, 5000, size=20000)
_INDEX = _RNG.integers(0, 20000, size=40000)
_STARTS = np.arange(0, 20000, 7)


def kernel() -> int:
    """Fixed work; returns a checksum so nothing is optimised away."""
    counts: dict[int, int] = {}
    for i in range(6000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
    total = len(counts)
    for _ in range(12):
        gathered = _VALUES[_INDEX]
        high = np.unique(gathered[gathered > 2500])
        any_hit = np.logical_or.reduceat(_VALUES > 4000, _STARTS)
        total += int(high.size) + int(any_hit.sum())
    return total


def seconds(reps: int = 3) -> float:
    """Median host seconds of one kernel call over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)

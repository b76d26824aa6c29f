"""Calibration against the host's drifting speed.

Other tenants share the host's cores, so the same trial runs up to 1.8x
slower from one moment to the next, in spells that last from milliseconds to
minutes.  A fixed reference kernel, independent of the package, is timed in
short bursts between trials (and between calls where a pool runs them), and
every measured time is divided by the slowdown of the bursts next to it:
their kernel time over REF_NOMINAL_S, the kernel's time on the host where
the benchmark was defined.  Burst time is kept out of every measured time.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque

import numpy as np

REF_NOMINAL_S = 0.0013
GAP_S = 0.04  # bursts are at least this far apart...
SHARE = 0.02  # ...and last about this share of the time since the last one


def kernel() -> float:
    """Seconds for fixed work shaped like the workloads' own: a capped BFS
    whose edges open by a hash (dict, set and deque traffic, like
    ``explore_component``), then a hash-and-sort pass over a numpy array
    (like sampling and labeling)."""
    start = time.perf_counter()
    seen, queue, state = {0}, deque([0]), {}
    while queue and len(seen) < 400:
        u = queue.popleft()
        for i in range(16):
            v = u ^ (1 << i)
            key = (min(u, v) << 4) | i
            bit = state.get(key)
            if bit is None:
                bit = state[key] = ((key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) >> 61 < 3
            if bit and v not in seen:
                seen.add(v)
                queue.append(v)
    x = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(31)
    x.sort()
    return time.perf_counter() - start


def slowdown_now(burst_s: float = 0.02) -> float:
    """Slowdown of one burst of about ``burst_s`` seconds, taken now."""
    runs = [kernel()]
    while sum(runs) < burst_s:
        runs.append(kernel())
    return statistics.fmean(runs) / REF_NOMINAL_S


class Reference:
    """Bursts of the kernel at run time: (time, slowdown) pairs."""

    def __init__(self):
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self.paused = 0.0  # seconds spent in bursts
        self.burst()

    def burst(self) -> None:
        start = time.perf_counter()
        gap = start - self.times[-1] if self.times else GAP_S
        self.slowdowns.append(slowdown_now(SHARE * gap))
        self.times.append(time.perf_counter())
        self.paused += self.times[-1] - start

    def maybe(self) -> float:
        """Burst if GAP_S has passed since the last one; returns the time
        to resume measuring from."""
        if time.perf_counter() - self.times[-1] >= GAP_S:
            self.burst()
        return time.perf_counter()

    def around(self, start: float, end: float) -> float:
        """Mean slowdown of the bursts from the last one before ``start``
        to the first one after ``end``."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end) + 1
        return statistics.fmean(self.slowdowns[lo:hi])

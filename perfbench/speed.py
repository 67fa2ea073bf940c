"""The machine's current speed, from a fixed reference workload.

On a shared machine the speed of pure-Python code changes by half or more
from one second to the next, as neighbours load the host.  The benchmark
therefore times a fixed pure-Python reference workload (about a
millisecond) before every op, and reports each op's time scaled to the
speed at which the reference takes NOMINAL_S:

    reported = measured * NOMINAL_S / (median reference time around the op)

where the median is over the NEAREST reference times taken closest to the
op.  NOMINAL_S is a fixed unit, not a calibration: reported times are in
units where the reference takes 1 ms.  On a shared 2-vCPU VM under CPython
3.11 the per-run median of the reference ranged from 0.76 to 1.19 ms, so
there reported times were within about a quarter of measured ones.  The raw
times are kept in each run's record.

The process's own CPU time was tried instead and tracks the load worse: on
that VM it still slows by up to 40% under load, and its spreads over five
seeds were about twice those of the scaled times.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.001
NEAREST = 9


def reference_work() -> int:
    """Breadth-first search over small tuple states, with the dict, set,
    tuple and sort traffic typical of the program under test."""
    start = (0, 0, 0)
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in sorted(frontier):
            for i in range(3):
                t = s[:i] + ((s[i] + 1) % 7,) + s[i + 1 :]
                if t not in seen:
                    seen[t] = frozenset(enumerate(s))
                    nxt.append(t)
        frontier = nxt
    return len(seen)


class Speedometer:
    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each reference run
        self.durations: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection of the program's garbage is not the reference's time
        try:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median of the NEAREST reference times taken
        closest to [start, end]."""
        times = self.times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < min(NEAREST, len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.durations[lo:hi])

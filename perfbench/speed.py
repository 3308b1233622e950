"""Machine-speed reference for timings taken on a shared host.

On the two-core Intel Xeon VM where this benchmark was defined, the same
pure-Python loop runs anywhere between 0.65x and 1.1x of its best speed,
and a slow spell can last from a second to a whole run; raw timings of
identical runs then spread by 20% or more.  While a Speedometer is
running, a SIGALRM handler times a short fixed loop every PERIOD seconds
(about 2% of the run).  A timing is then reported in reference seconds:
wall seconds scaled by how much slower the loop ran around that timing
than its nominal speed, the fastest seen in runs on that VM.
Changes to the library do not touch the loop, so they move the scaled
figures exactly as they move the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.1
# half-width of the window of samples that scales a timing, seconds
WINDOW = 0.5
# seconds the probe loop takes inside a run at the fastest speed seen on
# the defining VM; 1.0 slowdown means that speed
NOMINAL = 0.0016


_TABLE = {i: i * 7 for i in range(4096)}
_LIST = list(range(4096))


def _probe_loop() -> int:
    """Dict and list reads, small tuples and int arithmetic: the mix the
    library's scalar paths run, which tracked their speed best of the
    loops tried (a pure integer loop tracked it about half as well)."""
    s = 0
    table, lst = _TABLE, _LIST
    for i in range(2500):
        j = (i * 2654435761) & 4095
        s += table[j] + lst[(j * 31) & 4095]
        pair = (s, j)
        s = (s ^ pair[1]) & 0xFFFFFFFF
    return s


class Speedometer:
    """Samples the probe loop on a timer; scales intervals by its speed."""

    def __init__(self):
        self._at: list[float] = []
        self._took: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe_loop()
        t1 = time.perf_counter()
        self._at.append(t0)
        self._took.append(t1 - t0)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM,
                      signal.SIG_DFL if self._saved is None else self._saved)
        self._tick(None, None)
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time around [t0, t1] over NOMINAL."""
        lo = bisect.bisect_left(self._at, t0 - WINDOW)
        hi = bisect.bisect_right(self._at, t1 + WINDOW)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self._at), hi + 1)
        return statistics.median(self._took[lo:hi]) / NOMINAL

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds for the wall interval [t0, t1]."""
        return (t1 - t0) / self.slowdown(t0, t1)

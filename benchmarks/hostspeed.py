"""Host-speed correction for the benchmark's timings.

On a small shared host the speed of a core swings by up to 70% within seconds
and drifts over minutes, as other tenants come and go; CPU time swings with it,
so it is no cure. Inside `HostSpeed`, SIGALRM fires every `INTERVAL` seconds and
its handler times a fixed pure-Python loop, the probe, on the benchmark's own
thread. The probe takes `REF_S` seconds when the core runs at full speed.

A timed interval's corrected seconds are its wall seconds, less the time its
probes took, times the mean of `REF_S / probe` over the probes inside it (or
the nearest `MIN_PROBES` when fewer fell inside). Probes sample the interval
evenly in wall time, so that mean is the share of full speed the work got, and
the product is the time the same work takes on a core at full speed.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02
PROBE_LOOPS = 1000
REF_S = 0.45e-3  # the probe's time at full speed on a 2-vCPU Intel Xeon VM
MIN_PROBES = 8


def probe() -> int:
    """Fill a small dict with tuples and lists: allocation, hashing and
    interpreter work like the program's own, so it slows when the program does."""
    d = {}
    for i in range(PROBE_LOOPS):
        d[f"k{i}"] = (i, i * 0.5, [i])
    return len(d)


class HostSpeed:
    """Context manager that samples the core's speed while it is open."""

    def __init__(self):
        self.starts: list[float] = []  # handler entry times, ascending
        self.probes: list[float] = []  # seconds each probe took
        self._old = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.probes.append(time.perf_counter() - start)

    def __enter__(self) -> HostSpeed:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def corrected(self, start: float, end: float) -> float:
        """Seconds the work timed from `start` to `end` takes at full speed.

        Call it after the context has closed, so that the probes after `end`
        exist. Without any probe the wall seconds are returned.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.probes[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_PROBES:
                hi += 1
        if hi == lo:
            return end - start
        speed = sum(REF_S / p for p in self.probes[lo:hi]) / (hi - lo)
        return (end - start - busy) * speed

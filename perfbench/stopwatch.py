"""Timing that corrects for the speed of a shared machine.

On a machine shared with other tenants, the same Python code runs up to a
third slower for stretches of seconds, so raw wall times of one run spread
by 10-20%.  A fixed burst of pure-Python integer work slows down by about
the same factor when it runs next to the measured code; code bound by
memory traffic is tracked less well.  ``Stopwatch`` runs one burst before
and one after the timed region and, unless the region waits for a child
process, one every ``INTERVAL_S`` inside it from a SIGALRM handler.
``ref_ms`` is the region's wall time minus the bursts, scaled by
``REF_BURST_NS / mean burst time``: milliseconds on a machine where a burst
takes ``REF_BURST_NS``.

The burst allocates no container, so it can never trigger a garbage
collection that the program under test caused.
"""

from __future__ import annotations

import signal
import statistics
import time

_now = time.perf_counter_ns
INTERVAL_S = 0.05
BURST_ITERS = 4000
REF_BURST_NS = 2_000_000  # about the median burst on a shared 2-vCPU 2.0 GHz Xeon VM


def burst() -> int:
    acc = 0
    x = 1
    for i in range(BURST_ITERS):
        x = (x * 2654435761 + i) & 0xFFFFFFFFFFFF
        acc ^= x & -x
        acc += (x >> 7).bit_count()
    return acc


def _timed_burst() -> int:
    t0 = _now()
    burst()
    return _now() - t0


class Stopwatch:
    """Context manager timing one region; see the module docstring."""

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.bursts: list[int] = []
        self.inside_ns = 0
        self.wall_ns = 0

    def _tick(self, signum, frame):
        ns = _timed_burst()
        self.bursts.append(ns)
        self.inside_ns += ns

    def __enter__(self):
        self.bursts.append(_timed_burst())
        if self.ticks:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = _now()
        return self

    def __exit__(self, *exc):
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = _now()
        if self.ticks:
            signal.signal(signal.SIGALRM, self._old)
        self.wall_ns = end - self._t0 - self.inside_ns
        self.bursts.append(_timed_burst())
        return False

    @property
    def ref_ms(self) -> float:
        return self.wall_ns * REF_BURST_NS / statistics.fmean(self.bursts) / 1e6

"""Request timing calibrated against a fixed reference kernel.

On a shared host the speed of one core moves by up to half, in bursts
of a tenth of a second to phases of minutes, as neighbours come and go;
the same request can read 40% slower from one minute to the next.  The
timer therefore probes the core's speed before and after every request
and, through SIGALRM, every PERIOD_S during it: a probe runs a short
pure-Python reference kernel twice and times the second, warm run.  Each
stretch of work between two probes is divided by the mean of their two
timings, which turns wall seconds into reference units; multiplying by
REFERENCE_S gives calibrated seconds, the time the request would take on
a core where the warm kernel takes exactly REFERENCE_S.  Probe time is
excluded from both the wall and the calibrated figure.

The kernel is interpreter-bound exact arithmetic, like selmer3 itself,
and uses nothing from selmer3, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.02

# Duration of one reference kernel on an uncontended core of the machine
# the benchmark was sized on (Intel Xeon, 2 cores, Python 3.11.7); it only
# sets the scale of calibrated times.
REFERENCE_S = 0.0003


def reference_kernel() -> Fraction:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return acc


class CalibratedTimer:
    """Times callables; `time(fn, *args)` returns
    (result, wall seconds, calibrated seconds)."""

    def __init__(self) -> None:
        self._probes: list[tuple[float, float, float]] = []  # (start, total, timed)
        # installed for the life of the process: a late alarm must never
        # meet the default action, which ends the process
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_kernel()
        warm = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self._probes.append((start, end - start, end - warm))

    def time(self, fn, *args):
        self._probes = []
        self._probe()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        inside = [p for p in self._probes[1:] if p[0] < end]
        self._probe()
        wall = end - start - sum(total for _, total, _ in inside)
        units = 0.0
        mark, before = start, self._probes[0][2]
        for at, total, timed in inside + [(end, 0.0, self._probes[-1][2])]:
            units += (at - mark) * 2 / (before + timed)
            mark, before = at + total, timed
        return result, wall, units * REFERENCE_S


class WallTimer:
    """The same interface without probes, for the traced run, where a
    probe would land in the self time of whatever layer it interrupts."""

    @staticmethod
    def time(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall

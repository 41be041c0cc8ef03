"""Machine-speed sampling, so that times from a drifting host compare.

On a shared host the speed of the same single-threaded Python work
drifts by tens of percent over tens of seconds: on the 2-CPU machine this
benchmark was tuned on, 15-second windows of one repeated call took from
0.20 to 0.31 s per call.  No run length averages that out.  So while a
run measures, a fixed pure-Python integer probe of under a millisecond
runs from a timer signal every ``INTERVAL_S`` seconds (about 1% of the
time), and every measured interval is divided by the machine-speed
factor of the probes inside it (at least the two nearest): their mean
duration over ``REFERENCE_PROBE_S``.  On that machine, over 90 seconds
of a noisy phase, this cut the spread (interquartile range over median)
of repeated 0.3-second calls from 40% to 8%.  Reported times are
therefore seconds at the reference speed, which is about this machine's
typical speed.  The probe shares no code with circshell, so a change to
the program moves the reported times in full.

Time spent inside probes is taken off every interval: the ``Clock``
reads wall time net of probes.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
PROBE_LOOPS = 1600
REFERENCE_PROBE_S = 0.00055


def _probe_work(loops: int) -> int:
    """Integer multiplies, masks and bit scans.  They create no object the
    garbage collector tracks, so no collection can start inside a probe
    and have its pause taken off the program's time."""
    acc = 0
    for i in range(loops):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + ((m >> 7) & 255)
    return acc


class Clock:
    """Wall clock net of probe time, with the probes' timeline."""

    def __init__(self) -> None:
        self.probe_s = 0.0
        self.stamps: list[float] = []  # probe start, on this clock
        self._prefix = [0.0]  # running sum of probe durations
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self.probe_s

    def probe(self) -> None:
        if self._busy:  # a timer signal landed inside a probe
            return
        self._busy = True
        stamp = self.now()
        start = time.perf_counter()
        _probe_work(PROBE_LOOPS)
        took = time.perf_counter() - start
        self.probe_s += took
        self.stamps.append(stamp)
        self._prefix.append(self._prefix[-1] + took)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every ``INTERVAL_S`` seconds from a timer signal."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Machine slowness over [start, end] against the reference: the
        mean probe duration there, widened to at least two probes."""
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_right(self.stamps, end)
        while j - i < 2 and (i > 0 or j < len(self.stamps)):
            i, j = max(0, i - 1), min(len(self.stamps), j + 1)
        if j == i:
            raise RuntimeError("no speed probe was taken")
        return (self._prefix[j] - self._prefix[i]) / (j - i) / REFERENCE_PROBE_S

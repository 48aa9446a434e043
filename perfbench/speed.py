"""Machine-speed probe: a fixed reference computation timed while requests run.

On a shared machine the same code can run up to 1.7 times slower for
seconds at a time, so raw wall time between identical runs spreads by 20 to
35 %.  The probe times a small fixed computation (sparse polynomial product
with Fraction coefficients, the same kind of work as the program's) every
0.1 s of CPU time, from a SIGPROF handler, and once between requests when
the process was idle.  A request's time divided by the mean reference time
around it, times the reference's nominal time, is its time in seconds at the
reference speed, from which the machine's drift cancels.  The probe's own
time is subtracted from the request it ran in.

Requests that run in a child process are probed with a reference child
instead (``python3 perfbench/speed.py``: interpreter start-up, the imports
the CLI also makes, and the same computation), started between requests.

    python3 perfbench/speed.py     # one reference child run
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.1  # CPU time between probes
CHILD_INTERVAL_S = 0.25  # wall time between reference children
WINDOW_S = 0.3  # probes this long before a request still describe its speed
# Nominal times of the two references: they fix the reference speed, about
# the uncontended speed of the 2-core machine the benchmark was tuned on.
REFERENCE_S = 0.004
CHILD_REFERENCE_S = 0.08


def reference() -> int:
    """About 4 ms of interpreter work at the reference speed."""
    terms = [(i, j, Fraction(i + 1, j + 2)) for i in range(5) for j in range(6)]
    product: dict[tuple[int, int], Fraction] = {}
    for ia, ja, ca in terms:
        for ib, jb, cb in terms:
            key = (ia + ib, ja + jb)
            product[key] = product.get(key, 0) + ca * cb
    return len(product)


def reference_child() -> None:
    subprocess.run([sys.executable, __file__], check=True)


def child_probe() -> "SpeedProbe":
    """A probe for requests that run in child processes: a reference child every 0.25 s."""
    return SpeedProbe(reference_child, CHILD_INTERVAL_S, timer=False, reference_s=CHILD_REFERENCE_S)


class SpeedProbe:
    """Samples (start, duration) of a reference computation.

    With ``timer``, a SIGPROF timer samples every ``interval_s`` of CPU time
    while ``running``; ``tick`` samples when the last sample is older than
    ``interval_s``.
    """

    def __init__(self, sampler=reference, interval_s: float = INTERVAL_S, timer: bool = True,
                 reference_s: float = REFERENCE_S):
        self.sampler = sampler
        self.interval_s = interval_s
        self.timer = timer
        self.reference_s = reference_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample; keep samples in order
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.sampler()
            duration = time.perf_counter() - start
        finally:
            self._sampling = False
        self.starts.append(start)
        self.durations.append(duration)

    def tick(self) -> None:
        """Sample now unless a sample was taken within the last interval."""
        if not self.starts or time.perf_counter() - self.starts[-1] > self.interval_s:
            self.sample()

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def running(self):
        if not self.timer:
            yield self
            return
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def spent(self, start: float, end: float) -> float:
        """Time the probe itself took between ``start`` and ``end``."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def unit(self, start: float, end: float) -> float:
        """Mean reference time around [start, end], without its slowest tenth.

        The probes are spread evenly over the CPU time, so their mean follows
        the request's own slow-down; the trim drops probes that a collection
        or an interrupt happened to hit.  With no probe near, the nearest one.
        """
        lo, hi = bisect_left(self.starts, start - WINDOW_S), bisect_left(self.starts, end)
        if hi > lo:
            window = sorted(self.durations[lo:hi])
            return statistics.mean(window[:len(window) - len(window) // 10])
        if not self.durations:
            raise ValueError("no speed samples")
        return self.durations[min(hi, len(self.durations) - 1)]

    def normalize(self, start: float, elapsed: float) -> tuple[float, float]:
        """(own time, own time in seconds at the reference speed) of an interval.

        Own time is ``elapsed`` without the probe's samples inside it.
        """
        own = elapsed - self.spent(start, start + elapsed)
        return own, own / self.unit(start, start + elapsed) * self.reference_s


if __name__ == "__main__":
    import argparse  # noqa: F401  the CLI's start-up imports, timed with the rest
    import json  # noqa: F401

    for _ in range(5):
        reference()

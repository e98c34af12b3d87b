"""The host's speed, sampled with a fixed reference computation.

A shared host runs the same code at different speeds from one minute to the
next: on a 2-vCPU VM the probe below took from 0.65 to 1.2 ms within an hour,
and the workloads' commands slowed with it.  Wall times taken in a slow and a
fast phase differ by far more than any bound a benchmark could set.  The
benchmark divides that factor out: while a workload runs, a timer signal
interrupts it every ``INTERVAL_S`` seconds to time :func:`probe`, and each
command's time is rescaled by the probe times sampled around it.  The result
is in reference seconds: the seconds the command would take on a host where
the probe takes ``REFERENCE_PROBE_S``.

The probe is a plain interpreter loop.  It uses no ``enspulse`` code, so no
change to the program can move it.  On that VM the commands' times tracked
it more closely than element-wise numpy or small matrix products: across
phases, log command time against log probe time had slopes of 0.55 to 0.95
(interpreter-bound commands near 1), against 0.3 to 0.55 for a probe of
element-wise numpy on 4096 points, whose own swings are wider.  The rescaling over-corrects commands that swing
less than the probe, so reference times keep some dependence on the phase.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 12000
# about the middle of the probe's range on that VM (Python 3.11); any
# constant would do, this one keeps reference seconds near wall seconds there
REFERENCE_PROBE_S = 0.9e-3
INTERVAL_S = 0.025
# host speed for a command is the median probe over the command widened by
# this margin on each side, so that a short command still sees many samples
MARGIN_S = 0.2


def probe() -> float:
    """Seconds for one run of the reference computation."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def probe_median(count: int) -> float:
    return statistics.median(probe() for _ in range(count))


class Sampler:
    """Times :func:`probe` on a timer signal while it is entered.

    ``samples`` holds (start, probe seconds) pairs and ``spent`` the total
    time the handler took, so callers can take it out of their own timings.
    The handler runs in the main thread between bytecodes, so a sample never
    splits a caller's own clock reading.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end], widened by MARGIN_S."""
        window = [p for t, p in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if not window:  # the handler was held off by one long call: take the nearest sample
            window = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return REFERENCE_PROBE_S / statistics.median(window)

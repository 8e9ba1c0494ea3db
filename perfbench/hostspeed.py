"""Host-speed probe: how fast this host runs a fixed piece of Python right now.

The benchmark runs on a shared virtual machine whose CPU speed changes by
up to a factor of two within seconds, as other tenants load the physical
core: a fixed piece of work takes 0.14 s in one phase and 0.29 s in the
next.  A wall time read in a slow phase says nothing about the program.

``HostSpeed`` samples the speed while a measurement runs: a timer signal
every 50 ms runs ``probe()``, a fixed mix of exact-rational and complex
arithmetic in pure Python, and records how long it took.  ``scaled``
converts a wall-time interval into reference seconds: the interval times
the host's mean speed during it, relative to ``REF_PROBE_S``, the probe's
time in a fast phase of the host the figures were taken on.  Work that runs
at the probe's pace therefore reads the same in a slow phase as in a fast
one, and the same as wall time in a fast phase.  The probe's own cost
(under 1 % of the wall time) stays in the interval.  The probe runs in the
measured process, as a signal handler, with garbage collection switched off
while it runs, so that collecting the library's objects does not read as a
slow host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_PROBE_S = 120e-6
_NEAREST = 5


def probe():
    acc_q = Fraction(0)
    acc_c = 0j
    step = Fraction(3, 7)
    for n in range(1, 25):
        acc_q += step * Fraction(n, 3)
        acc_c = acc_c * (0.5 + 0.25j) + complex(n, -n)
    return acc_q, acc_c


class HostSpeed:
    """Context manager that samples the probe on SIGALRM while it is open."""

    def __init__(self):
        self.samples = []    # (end of the sample, probe duration)
        self._previous = None

    def _sample(self, signum, frame):
        # the probe shares the measured process: keep the library's heap out
        # of its time by allowing no garbage collection while it runs
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((end, end - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # one sample after the interval, so that even a measurement shorter
        # than the sampling period has a sample to be scaled by
        self._sample(None, None)
        return False

    def speed(self, start, end):
        """Mean speed over [start, end] relative to the reference probe time.

        An interval shorter than the sampling period uses the samples
        nearest to it.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:_NEAREST]
            inside = [d for _, d in nearest]
        return statistics.fmean(REF_PROBE_S / d for d in inside)

    def scaled(self, start, end):
        """The interval [start, end] in reference seconds."""
        return (end - start) * self.speed(start, end)

"""Host-speed meter: the benchmark's times scaled to one reference host speed.

The benchmark runs on a few cores of a shared host, and the speed of those
cores swings by up to 2x within seconds and drifts over minutes with the
other work on the host.  One 1 s op repeated for a minute or two in one
process spread 24-56% (quartile spread over the median), so raw times
cannot hold a 25% bound from run to run.

The meter samples the host's current speed while the program runs: every
PERIOD_S of process CPU time a SIGPROF handler times a fixed pure-Python
probe, made of the two kinds of work orbitforge does (a small-integer
modular scan and Fraction arithmetic).  A timed interval's scaled time is
its raw time, less the probes run inside it, times REFERENCE_S over the
probe's mean duration during the interval (10%-trimmed).  An interval too
short to hold MIN_SAMPLES probes uses the last WINDOW probes instead.  The
same op repeated for a minute or two spread 4-16% in scaled time.

A change to orbitforge changes an op's raw time but not the probe, so it
moves the scaled time by the same factor.  The handler disables the garbage
collector while the probe runs, so the size of the program's heap does not
leak into the probe.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02  # process CPU time between two probes
REFERENCE_S = 2.5e-4  # the probe's duration at the reference speed
MIN_SAMPLES = 8
WINDOW = 16

_F1, _F2 = Fraction(2, 3), Fraction(-1, 5)


def probe():
    """A fixed piece of pure-Python work, 0.25-0.45 ms on a 2-vCPU x86-64 VM."""
    hits = 0
    for c in range(1500):
        if (c * c + 5 * c - 2) % 1000003 == 0:
            hits += 1
    x = Fraction(1, 7)
    for _ in range(15):
        x = x * _F1 + _F2
    return hits, x


def _trimmed_mean(values) -> float:
    v = sorted(values)
    cut = len(v) // 10
    v = v[cut:len(v) - cut]
    return sum(v) / len(v)


class Meter:
    """Samples the host's speed between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []  # probe durations, in seconds
        self._old_handler = None

    def _on_prof(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            dt = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(dt)

    def start(self):
        self._old_handler = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        while len(self.samples) < WINDOW:  # fill the window for short intervals
            probe()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def mark(self) -> int:
        """Call at the start and at the end of a timed interval, for scaled()."""
        return len(self.samples)

    def scaled(self, seconds: float, first: int, last: int) -> float:
        """The interval's raw seconds, probes removed, at the reference speed."""
        inside = self.samples[first:last]
        basis = inside if len(inside) >= MIN_SAMPLES else self.samples[max(0, last - WINDOW):last]
        net = max(seconds - sum(inside), 0.0)
        return net * REFERENCE_S / _trimmed_mean(basis)

"""Core speed gauge: scales measured seconds to reference speed.

The cores of a small shared machine change speed by up to 40 % for seconds
at a time, whatever runs on them, which wall time alone cannot tell from a
change in charfol. While work runs, a SIGALRM timer runs a fixed pure-Python
kernel every PERIOD_S seconds, and once more at the start and at the end.
The work's seconds, net of the kernel runs, are multiplied by REFERENCE_S
over the mean kernel time. The kernel does not touch charfol, so a change to
charfol moves scaled seconds as much as it moves wall seconds at a steady
core speed.

REFERENCE_S is the kernel's mean time measured this way on the 2-core
x86-64 Linux machine (Python 3.11) the benchmark was defined on, so scaled
seconds read close to wall seconds there.
"""

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.005
PERIOD_S = 0.1


def reference_kernel():
    """Seconds of one run of the reference kernel: dict and tuple work."""
    t0 = perf_counter()
    table = {}
    acc = 0
    for i in range(10000):
        table[(i % 97, i % 89)] = (i * i) % 7
        acc += table.get((i % 89, i % 97), 0)
    return perf_counter() - t0


class Gauge:
    """Context manager owning the SIGALRM handler; start() and stop()
    bracket one piece of work."""

    def __init__(self):
        self.kernel_s = []  # every kernel time, for the run's details
        self._window = []
        self._spent = 0.0
        self._t0 = None
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._window.append(reference_kernel())
        self._spent += perf_counter() - t0

    def start(self):
        self._window = [reference_kernel()]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()

    def stop(self):
        """(gross wall seconds, net wall seconds, factor to reference speed);
        net excludes the kernel runs, and net * factor is the scaled time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        gross = perf_counter() - self._t0
        self._window.append(reference_kernel())
        self.kernel_s += self._window
        return gross, gross - self._spent, REFERENCE_S / statistics.fmean(self._window)

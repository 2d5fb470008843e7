"""The yardstick every benchmark timing is scaled by.

On a shared virtual machine, other tenants slow a process down by
tens of percent, and the slowdown changes within milliseconds.  Every
timing is therefore multiplied by the mean speed of a fixed
computation, probe(), sampled while it ran: the result reads as seconds
on a machine where probe() takes PROBE_SECONDS (the 2-core Xeon virtual
machine of the README's baseline, when quiet).  The computation mixes
Python float arithmetic, calls, complex scalar Newton steps and
4-element complex numpy ops, the mix of pluripot's scalar code; on that
machine it slows down by the same factor as pluripot's code when other
tenants are busy.  It lives in the benchmark, so no change to pluripot
moves it.

A request is sampled before and after it by reference(), and during it
by a Sampler, which runs probe() from a SIGALRM handler every
SAMPLE_INTERVAL seconds.  A handful of samples next to a long request
says little about the speed during it; samples from inside it do.
Samples come at even steps of wall time, so it is their mean speed,
not their mean duration, that is the work done per second.
Only warm probes count: the first probe after other code runs slower
by an amount that depends on that code, so each sample is the second
of two back-to-back probes.

Set-up time is scaled the same way by a reference launch: this file run
as a script, which imports pluripot's third-party dependencies and
prints "ready".  That is the same kind of work as pluripot's set-up
(unmarshalling, loading extension modules, page faults):

    python3 perfbench/yardstick.py
"""

import math
import signal
from time import perf_counter

import numpy as np

PROBE_SECONDS = 0.000096
LAUNCH_SECONDS = 0.6   # the reference launch, on the same machine
SAMPLE_INTERVAL = 0.01
REFERENCE_PROBES = 8


def _newton(x):
    z = complex(x, 0.1)
    for _ in range(20):
        z = z - (z * z * z - 2.0) / (3.0 * z * z)
    return abs(z)


def probe():
    """Seconds of the fixed computation."""
    t0 = perf_counter()
    acc = 0.0
    v = np.arange(4, dtype=complex)
    for i in range(15):
        acc += math.sqrt(i + 1.0) * 1.0001
        v = v * (1.0 + 1e-7j) + 0.5
        acc += float(np.abs(v).sum()) * 1e-9
    for i in range(6):
        acc += _newton(1.0 + 0.01 * i)
    return perf_counter() - t0


def reference():
    """REFERENCE_PROBES back-to-back probe() seconds after a warm-up probe."""
    probe()
    return [probe() for _ in range(REFERENCE_PROBES)]


class Sampler:
    """Context manager that takes a warm probe() sample every
    SAMPLE_INTERVAL seconds of wall time while it is entered; `samples`
    holds (start, probe seconds, handler seconds) of each, from the
    last entry."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        probe()
        seconds = probe()
        self.samples.append((t0, seconds, perf_counter() - t0))

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, start, seconds):
        """(probe seconds of each sample, seconds spent in the handler)
        of the samples taken in [start, start + seconds)."""
        inside = [(s, h) for t, s, h in self.samples if start <= t < start + seconds]
        return [s for s, _ in inside], sum(h for _, h in inside)


def scaled(seconds, probes):
    """seconds at nominal speed, from the probe() seconds sampled while
    they passed."""
    return seconds * sum(PROBE_SECONDS / p for p in probes) / len(probes)


if __name__ == "__main__":
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    print("ready", flush=True)

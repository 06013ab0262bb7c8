"""Wall time corrected for the speed the shared host gives this process.

On a shared 2-core virtual machine (Xeon, KVM) the speed this process
gets drifts by up to 1.8x over tens of seconds to minutes, longer than
one benchmark run, so no median over a run's rounds removes it. While a
call is timed, a timer signal every INTERVAL_S runs a fixed probe
(interpreter loop plus a small matrix product, the mix the program
runs) on the same thread and records how long it took. The call's wall
time is then scaled by REFERENCE_PROBE_S over the mean probe time seen
during the call: seconds on a host where the probe takes
REFERENCE_PROBE_S, about its typical time on that machine. The probe
costs about 0.3% of the wall time it samples; the raw wall time is kept
alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# A call shorter than this many intervals is normalized by the probes of
# the last MIN_PROBES intervals, which reach back before it started.
MIN_PROBES = 25
REFERENCE_PROBE_S = 25e-6
_PROBE_LOOP = 300
_PROBE_MATRIX = np.random.Generator(np.random.PCG64(0)).random((32, 32))


def _probe_work() -> None:
    total = 0
    for i in range(_PROBE_LOOP):
        total += i * i
    _PROBE_MATRIX @ _PROBE_MATRIX


def probe() -> float:
    """Seconds taken by one fixed piece of interpreter and numpy work.

    The work runs once untimed first, so the timed pass finds its code
    and data in cache whatever the program did before: the time then
    reflects the core's speed, not the program's cache footprint.
    """
    _probe_work()
    started = time.perf_counter()
    _probe_work()
    return time.perf_counter() - started


class HostClock:
    """Times calls in host-normalized seconds; use as a context manager."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, call):
        """(normalized seconds, raw wall seconds, result) of `call()`."""
        first = len(self.samples)
        self.samples.append(probe())
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        self.samples.append(probe())
        window = self.samples[min(first, len(self.samples) - MIN_PROBES):]
        speed = statistics.fmean(window)
        return wall * REFERENCE_PROBE_S / speed, wall, result

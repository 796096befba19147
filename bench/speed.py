"""Speed of the CPU a pass runs on, sampled while the pass runs.

On a shared virtual machine the speed of a vCPU changes by up to 40%
from one second to the next, as other tenants come and go.  Timed alone,
the same pass of the same code took anywhere from 4 to 6.4 s (ring-sim)
or 5.4 to 10.3 s (phase-table) within ten minutes, and ten 40-second
runs spread by more than the benchmark's bounds.

So a pass measures the machine as well as the program.  A ``Sampler``
interrupts the pass every ``INTERVAL_S`` with an interval timer and, in
the signal handler, times a fixed pure-Python reference loop on the same
thread.  The mean loop time over a stretch of the pass says how fast the
CPU ran the pass in that stretch; a time measured in that stretch is
reported in *reference seconds*: seconds times ``REF_LOOP_S`` over the
mean loop time, i.e. the time the stretch would have taken on a CPU that
runs the reference loop in ``REF_LOOP_S``.

The loop is the benchmark's own code and no change to ``electra`` can
alter it, so a faster program still shows as fewer reference seconds.
The handler costs about 2% of a pass, in every pass alike; its time stays
in the measured times.
"""
from __future__ import annotations

import signal
import time
from statistics import fmean

#: time between two samples
INTERVAL_S = 0.02
#: iterations of the reference loop, and of the short untimed loop that
#: warms the caches for it after the interrupted code ran
LOOP = 5000
WARM = 500
#: about the median time of one reference loop on the 2-vCPU x86_64 VM
#: the first baseline was measured on (Python 3.11.7); reference seconds
#: are seconds on a CPU that runs the loop in this time
REF_LOOP_S = 400e-6


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class Sampler:
    """Times the reference loop every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        #: (perf_counter at the loop's start, loop seconds) per sample
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _loop(WARM)
        start = time.perf_counter()
        _loop(LOOP)
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def loop_seconds(self, windows: list[tuple[float, float]]) -> float:
        """Mean loop time of the samples taken inside the (start, end)
        windows."""
        inside = [s for t, s in self.samples if any(a <= t <= b for a, b in windows)]
        if not inside:
            raise RuntimeError("the speed sampler took no sample inside the timed windows")
        return fmean(inside)

    def factor(self, windows: list[tuple[float, float]]) -> float:
        """Reference seconds per measured second inside the windows."""
        return REF_LOOP_S / self.loop_seconds(windows)

"""Machine speed, sampled while the benchmark runs, to scale CPU seconds.

On a shared virtual machine the speed of a CPU drifts with the load of its
neighbours: a fixed 0.7 s loop of Fraction arithmetic measured between 0.53 s
and 0.74 s within one minute on the 2-core VM these figures come from, and a
whole section-qh pass between 30 s and 42 s of CPU.  The benchmark therefore
times a fixed round of work, independent of qhgrass, at regular moments during
each pass, and reports CPU seconds scaled to REFERENCE_S per round:

    scaled = measured CPU seconds * REFERENCE_S / mean round time

Raw and scaled figures stay in the result file side by side.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# CPU seconds one round takes on the reference VM at its typical speed, so
# that scaled seconds read close to raw seconds there.
REFERENCE_S = 0.0035
INTERVAL_S = 0.2


def calibration_round() -> int:
    """Fixed work of the kind qhgrass does most: Fraction and int arithmetic."""
    x = Fraction(1, 3)
    acc = 0
    for i in range(1, 480):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
        acc += (i * i * 1_000_003) % 7
    return acc + x.denominator % 5


def time_round() -> float:
    start = time.process_time()
    calibration_round()
    return time.process_time() - start


class Sampler:
    """While active, times one calibration round every INTERVAL_S of wall
    time from a SIGALRM handler.  `spent` is the CPU the rounds took, for the
    caller to subtract from what it measured around them.  A wall-clock timer
    is used because a process CPU-time timer makes process_time() tick-grained."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        seconds = time_round()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """REFERENCE_S over the mean round time; one round is timed on the
        spot when the pass was too short to be sampled."""
        samples = self.samples or [time_round()]
        return REFERENCE_S / statistics.fmean(samples)

"""Machine-speed probe that scales measured wall times to a reference speed.

On a machine shared with other tenants one core's speed changes by up to
1.7x within a second and its mix of fast and slow spells drifts over
minutes, so raw pass times of the same code spread by 15-45% from one run
to the next.  The probe measures that speed while the code runs: a timer
signal interrupts the process every INTERVAL_S and the handler times a short
fixed loop of the kind the enumeration kernel runs (big-integer XOR,
popcount, list update).  The samples are uniform in time, so the mean of
REF_S / sample over a stretch of wall time is the machine's average speed
during it relative to the reference speed, and the stretch's wall time
times that mean is the time it would have taken at the reference speed.
The probe's own time (about 1.5% of the wall time) stays in every
measurement.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
# Duration of one probe loop that defines the reference speed; chosen so
# that scaled times are close to the raw times of a typical (contended)
# 2-vCPU Xeon VM.
REF_S = 0.00025

_ROWS = [((0x9E3779B97F4A7C15 * (i + 3)) ** 20) & ((1 << 1000) - 1) for i in range(16)]


class SpeedProbe:
    """Samples machine speed on a timer while active (a context manager);
    `factor()` is the mean relative speed since the last `reset()`."""

    def __init__(self) -> None:
        self._counts = [0] * 1001
        self._previous = None
        self.reset()

    def reset(self) -> None:
        self.speed_sum = 0.0
        self.samples = 0

    def sample(self) -> None:
        counts, rows, word = self._counts, _ROWS, 0
        start = perf_counter()
        for i in range(1, 700):
            word ^= rows[(i & -i).bit_length() & 15]
            counts[word.bit_count()] += 1
        self.speed_sum += REF_S / (perf_counter() - start)
        self.samples += 1

    def factor(self) -> float:
        return self.speed_sum / self.samples

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

"""Host speed probe: a fixed pure-Python loop timed in the same process as an op.

On a shared host the same deterministic op can run 1.7x slower for tens of
seconds at a time.  The probe runs before the op, after it, and every
``INTERVAL_S`` during it (from a timer signal), so the probe's speed
(1 / duration), averaged over the samples, is the mean speed the op ran at.
Multiplying the op's time by ``REFERENCE_S * mean(1 / duration)`` gives its
time at the speed where one probe takes ``REFERENCE_S``.  The mean of the
speeds weights each sampling interval alike; a median of durations would
follow only the longest speed phase.
"""

import signal
import statistics
import time

REFERENCE_S = 0.002
INTERVAL_S = 0.1
SAMPLES_AROUND = 5


def _probe() -> float:
    """Time one fixed loop of tuple, dict and integer work, as the library does."""
    t0 = time.perf_counter()
    acc: dict = {}
    w = (3, 1, 4, 1, 5, 9)
    for i in range(1000):
        w = tuple((x * 7 + i) % 31 - 15 for x in w)
        acc[w] = acc.get(w, 0) + sum(w)
    return time.perf_counter() - t0


class Probe:
    """Context manager that samples the probe around (and, if asked, during) a block."""

    def __init__(self, during: bool):
        self.during = during
        self.samples: list[float] = []
        self.during_s = 0.0  # probe time taken out of the block's own time

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(_probe())
        self.during_s += time.perf_counter() - t0

    def __enter__(self):
        self.samples += [_probe() for _ in range(SAMPLES_AROUND)]
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [_probe() for _ in range(SAMPLES_AROUND)]

    def factor(self) -> float:
        return REFERENCE_S * statistics.fmean(1 / d for d in self.samples)

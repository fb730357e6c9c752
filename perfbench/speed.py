"""Machine-speed calibration of benchmark times.

The benchmark runs on shared hosts whose speed drifts: the same cold
``laplace`` job took 1.8 s in one minute and 3.6 s two minutes later on a
2-vCPU Xeon VM, with CPU time equal to wall time (no steal time; the
host's other tenants slow the CPU itself), and the speed also moves by
±30 % from one second to the next.  A median over processes does not
remove a drift that lasts longer than a run.

So each worker times a fixed calibration loop every ``INTERVAL_S`` while
its job runs, from a timer signal, and scales each call's time by
``REFERENCE_S`` divided by the mean loop time during the call (or, for a
short call, of the ``MIN_SAMPLES`` loops nearest to it).  A scaled
time is the time the call would take on a machine where the loop takes
``REFERENCE_S``.  The loop is plain Python integer arithmetic: it never
touches ``cmdeg`` or mpmath's global precision, so it cannot change a
result, and a change to ``cmdeg`` moves the scaled times by as much as it
moves the wall times.  The time spent in the loop is taken out of every
measured interval.
"""

from __future__ import annotations

import signal
import time

# Time of one calibration loop on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# in an unloaded minute.
REFERENCE_S = 0.0012

LOOP_STEPS = 3000
INTERVAL_S = 0.025  # one loop per interval while the job runs
EDGE_S = 0.2  # loops run back to back before the first and after the last call
MIN_SAMPLES = 8  # a call is scaled by at least this many loops

_MODULUS = (1 << 127) - 1


def calibration_loop(steps: int = LOOP_STEPS) -> float:
    """Seconds taken by a fixed piece of Python integer arithmetic."""
    start = time.perf_counter()
    x = 12345678901234567890123
    for i in range(1, steps):
        x = (x * 6364136223846793005 + i) % _MODULUS
        x ^= x >> 64
    return time.perf_counter() - start


def scaled(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``loop_s``,
    expressed at reference speed."""
    return seconds * REFERENCE_S / loop_s


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


class Track:
    """Calibration samples taken around and during one job.

    ``clock()`` is ``time.perf_counter()`` less the time spent in the
    loop, so intervals timed with it exclude the calibration.  Each sample
    is (clock() when it was taken, loop seconds).
    """

    def __init__(self):
        self.stolen = 0.0
        self.samples: list[tuple[float, float]] = []
        calibration_loop(LOOP_STEPS // 10)  # first-use costs

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _run_loops(self, seconds: float) -> list[float]:
        loops = []
        while sum(loops) < seconds:
            at = self.clock()
            loops.append(calibration_loop())
            self.stolen += loops[-1]
            self.samples.append((at, loops[-1]))
        return loops

    def _tick(self, signum, frame) -> None:
        at = self.clock()
        start = time.perf_counter()
        loop_s = calibration_loop()
        self.samples.append((at, loop_s))
        self.stolen += time.perf_counter() - start

    def start(self) -> float:
        """Loops for ``EDGE_S``, then a loop every ``INTERVAL_S`` until
        ``stop()``.  Returns the mean loop time of the first ``EDGE_S``."""
        first = _mean(self._run_loops(EDGE_S))
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return first

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._run_loops(EDGE_S)

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time of the samples taken during [start, end] of
        ``clock()``, or of the ``MIN_SAMPLES`` samples nearest to it when
        fewer were taken during it."""
        during = [s for at, s in self.samples if start <= at <= end]
        if len(during) >= MIN_SAMPLES:
            return _mean(during)
        mid = (start + end) / 2
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
        return _mean([s for _, s in nearest[:MIN_SAMPLES]])

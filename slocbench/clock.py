"""Wall time rescaled to a reference machine speed.

Shared 2-vCPU virtual machines change speed by tens of percent within
seconds, and process CPU time swings with it, so neither clock repeats.  A
short calibration loop of fixed work is run every ``INTERVAL_S`` seconds from
a ``SIGALRM`` handler, in the measured thread itself.  Each stretch of work
between two calibrations is scaled by the loop's ``REFERENCE_CAL_S`` over the
mean of the two calibration times around it, which gives the time the work
would take on a machine running the calibration loop in that reference time.
Calibration time itself is excluded from every measured interval.

Contention slows interpreted code and large-array streaming by different
factors, so there are two loops, and a workload uses the one its own time is
made of: ``interpreter`` (Python arithmetic and small numpy calls, the cost
of per-step loops) or ``memory`` (a log-sum-exp over 5 MB arrays, the cost of
n=800 Sinkhorn iterations).  The memory loop allocates and frees fresh 5 MB
temporaries as Sinkhorn does, so under the default allocator it pays the same
page faults, and their cost is calibrated rather than removed.
"""
from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.1
#: Calibration durations that define the reference speed of each loop.
#: They are fixed constants so that two commits measured on the same machine
#: compare; they were set near the loops' medians on a 2-vCPU Xeon virtual
#: machine.
REFERENCE_CAL_S = {"interpreter": 3.0e-3, "memory": 7.0e-3}
#: Support size of the Sinkhorn iteration the memory loop imitates.
MEMORY_N = 800

_SMALL = np.linspace(0.0, 1.0, 64)


def interpreter_work() -> float:
    """Interpreted integer arithmetic, then small-array numpy calls."""
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 7
    total = float(acc)
    for _ in range(500):
        total += float(np.sum(_SMALL * 1.0001 + 0.5))
    return total


class MemoryWork:
    """One row-wise log-sum-exp over an 800 x 800 array, the operation and
    array size of an n=800 Sinkhorn half-iteration, in the benchmark's own
    numpy code so that a change to ``sloc`` never changes the calibration.
    Each call allocates and frees three fresh 800 x 800 temporaries."""

    def __init__(self):
        grid = np.linspace(-4.0, 4.0, MEMORY_N)
        self.log_r = -0.5 * (grid[:, None] - grid[None, :]) ** 2
        self.log_g = np.linspace(-1.0, 1.0, MEMORY_N)

    def __call__(self) -> float:
        x = self.log_r + self.log_g[None, :]
        top = x.max(axis=1, keepdims=True)
        return float((top[:, 0] + np.log(np.exp(x - top).sum(axis=1)))[0])


@dataclass(frozen=True)
class Calibration:
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class ReferenceClock:
    """Periodic in-thread calibration while active (use as a context manager).

    ``reference_between(a, b)`` converts any ``perf_counter`` interval inside
    the active period into reference seconds; ``work_time()`` is a
    ``perf_counter`` that stands still while a calibration runs.
    """

    def __init__(self, kind: str = "interpreter"):
        if kind not in ("interpreter", "memory"):
            raise ValueError(f"unknown calibration {kind!r}")
        self.work = interpreter_work if kind == "interpreter" else MemoryWork()
        self.reference_s = REFERENCE_CAL_S[kind]
        self.calibrations: list[Calibration] = []
        self.paused = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "ReferenceClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.calibrate()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        self.calibrate()

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.work()
            t1 = time.perf_counter()
            self.calibrations.append(Calibration(t0, t1))
            self.paused += t1 - t0
        finally:
            self._busy = False

    def work_time(self) -> float:
        return time.perf_counter() - self.paused

    def reference_between(self, a: float, b: float) -> tuple[float, float]:
        """``(raw_s, reference_s)`` of the work done in ``[a, b]``.

        Work before the first or after the last calibration is scaled by
        that calibration alone.
        """
        cals = self.calibrations
        if not cals:
            raise RuntimeError("no calibration recorded")
        raw = ref = 0.0
        bounds = [(-float("inf"), cals[0].start, cals[0].seconds)]
        for prev, nxt in zip(cals, cals[1:]):
            bounds.append((prev.end, nxt.start, 0.5 * (prev.seconds + nxt.seconds)))
        bounds.append((cals[-1].end, float("inf"), cals[-1].seconds))
        for lo, hi, cal in bounds:
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0.0:
                raw += overlap
                ref += overlap * self.reference_s / cal
        return raw, ref

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between two fresh calibrations.

        Returns ``(result, raw_s, reference_s)``.
        """
        self.calibrate()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.calibrate()
        raw, ref = self.reference_between(start, end)
        return result, raw, ref

    def calibration_summary(self) -> dict:
        secs = np.array([c.seconds for c in self.calibrations])
        if secs.size == 0:
            return {"count": 0}
        return {
            "count": int(secs.size),
            "median_s": float(np.median(secs)),
            "p5_s": float(np.percentile(secs, 5)),
            "p95_s": float(np.percentile(secs, 95)),
            "total_s": float(secs.sum()),
        }

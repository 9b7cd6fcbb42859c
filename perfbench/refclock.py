"""A reference clock: wall time rescaled to a fixed machine speed.

The benchmark runs on a VM that shares its cores with other tenants.  A
CPU-bound loop's speed there swings by up to 1.6x, in phases from seconds
to minutes long, so host seconds of one run and the next are not the same
amount of work.  The reference clock measures the machine's speed while
it measures an interval: a timer signal every ``PERIOD_S`` of wall time
runs one of three short calibration kernels, in turn, and times it.  The kernels are plain
Python of three kinds the program's hot paths are made of: integer
arithmetic, small frozen-dataclass objects with methods and properties,
and dict and list churn.  No one kind tracks every workload (the
rasterization of ``state_lut`` follows the objects, the controller engine
the arithmetic), and their geometric mean tracked each workload about as
well as the best single kernel did.  An interval's *reference time* is its
wall time, less what the kernels themselves took, times the speed they
read, where speed 1.0 is every kernel running in its ``ref_s``.  A run in
a slow phase then reads about the same reference time as one in a fast
phase, while a change to the program's own cost moves it in full.

Only the standard library is used, so the clock can time the imports too.
The handler runs in the main thread between bytecodes; during a long call
into C code the timer's signal waits until the call returns, and the
kernels touch no state of the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

#: wall time between two calibration samples
PERIOD_S = 0.02


def _arith() -> int:
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return acc


@dataclass(frozen=True)
class _Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    def intersection(self, other: "_Rect") -> Optional["_Rect"]:
        x0, x1 = max(self.x0, other.x0), min(self.x1, other.x1)
        if x1 <= x0:
            return None
        return _Rect(x0, max(self.y0, other.y0), x1, min(self.y1, other.y1))


def _objects() -> float:
    base = _Rect(0.0, 0.0, 10.0, 10.0)
    acc = 0.0
    for i in range(100):
        cut = _Rect(i * 0.03, 0.5, i * 0.03 + 2.0, 3.0).intersection(base)
        if cut is not None:
            acc += cut.width
    return acc


def _containers() -> float:
    table = {}
    for i in range(700):
        table[i] = [i, i * 0.5]
    return sum(v[1] for v in table.values())


#: (kernel, its duration at reference speed): about what each took in
#: calm phases of the 2-vCPU development VM (CPython 3.11, x86-64)
KERNELS: Tuple[Tuple[Callable[[], Any], float], ...] = (
    (_arith, 400e-6),
    (_objects, 400e-6),
    (_containers, 300e-6),
)


@dataclass
class Interval:
    """One measured interval."""

    #: host wall time, calibration included
    wall_s: float
    #: host wall time less the calibration kernels' own time
    net_s: float
    #: machine speed over the interval (1.0 = reference speed)
    speed: float

    @property
    def ref_s(self) -> float:
        """The interval's time at reference speed."""
        return self.net_s * self.speed


class RefClock:
    """Measures one interval at a time on the reference clock."""

    def __init__(self) -> None:
        self._speeds: List[List[float]] = []
        self._next = 0
        self._spent = 0.0
        self._t0 = 0.0
        self._previous: Any = None

    def _sample(self, *_: Any) -> None:
        k = self._next
        self._next = (k + 1) % len(KERNELS)
        kernel, ref_s = KERNELS[k]
        # The kernels' objects are all freed when they return; with the
        # collector paused they trigger no collection either, so the
        # program's collections (and the memory they free) keep their
        # timing.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self._speeds[k].append(ref_s / (t1 - t0))
        self._spent += time.perf_counter() - t0

    def start(self) -> None:
        # Every kernel samples once just before the interval (and again
        # after it), so an interval shorter than the period has a speed.
        self._speeds = [[] for _ in KERNELS]
        self._next = 0
        for _ in KERNELS:
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._spent = 0.0
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Interval:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._t0
        spent = self._spent
        signal.signal(signal.SIGALRM,
                      signal.SIG_DFL if self._previous is None else self._previous)
        for _ in KERNELS:
            self._sample()
        return Interval(
            wall_s=wall,
            net_s=wall - spent,
            speed=statistics.geometric_mean(statistics.fmean(s) for s in self._speeds),
        )

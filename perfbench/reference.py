"""Fixed reference routines, timed during and after every op to cancel host speed.

The benchmark's host shifts between speed states up to about 1.7x apart,
each lasting about a second to a minute; the shift shows in CPU time as
well as wall time, so neither clock alone gives a steady figure. A
reference routine does a fixed amount of work and never touches
``riskseries``, so a change to the program cannot move it. Its CPU time,
sampled on the same CPU while an op runs, says how fast the host is
running at that moment; an op's cost is its time divided by that.

No routine follows every kind of work as the host changes state: the
slow states slow some operations more than others. So each workload is
divided by the routine shaped like its op, and both were chosen by which
followed the op times most closely (others tried: plain float loops,
walks over a working set of several MB):

- ``numeric_unit``, for the in-process workloads, works in the pattern of
  most of riskseries' hot loops: function and method calls on frozen
  dataclasses, ``math.log``, ``math.erfc``, ``math.fsum`` over a generator;
- ``startup_unit``, for ``cli-cold``, whose op is mostly interpreter start
  and imports: dict stores, small-object allocation, string sorting,
  float math, a small numpy call.

Timing a routine only before and after an op does not do for long ops:
the host's state changes within a 4 s op, and two samples at its ends
miss it. So a ``Sampler`` also runs it from a SIGALRM handler every
``PERIOD_S`` while the op runs, and takes the handler's wall time back
out of the op's time.
"""
from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter_ns, thread_time_ns

import numpy as np

PERIOD_S = 0.05    # one sample per 50 ms of op time, under 1% of it
WARM_UP = 40       # routine calls before the first op, not kept

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Level:
    centre: float
    spread: float


@dataclass(frozen=True)
class _Step:
    weight: float
    slope: float
    lower: _Level
    upper: _Level

    def value(self, x: float) -> float:
        p_lower = _share(x, self.lower)
        p_upper = _share(x, self.upper)
        return (1.0 - p_lower) * self.weight - (p_upper - p_lower) * self.slope


def _share(x: float, level: _Level) -> float:
    if x <= 0.0:
        return 0.0
    return _cdf(math.log(x / level.centre) / level.spread)


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


_STEPS = tuple(
    _Step(0.01 * i, 0.002 * i, _Level(1.0 + 0.01 * i, 0.5), _Level(1.01 + 0.01 * i, 0.51))
    for i in range(60)
)


def numeric_unit() -> float:
    return sum(math.fsum(step.value(x) for step in _STEPS) for x in (0.3, 1.1, 2.2))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


_VECTOR = np.arange(64.0)


def startup_unit() -> float:
    total = 0.0
    table = {}
    for i in range(500):
        total += math.sqrt(i) * 0.5 + (i % 7)
        table[i & 63] = total
    points = [_Point(float(i), i * 0.5) for i in range(300)]
    for point in points:
        total += math.exp(-point.b * 1e-3) * point.a
    words = tuple(sorted(str(i) for i in range(200)))
    return total + float(_VECTOR @ _VECTOR) + len(words) + len(table)


class Sampler:
    """Samples ``unit`` while an op runs (``start`` ... ``stop``) and once after it."""

    def __init__(self, unit):
        self.unit = unit
        for _ in range(WARM_UP):
            unit()
        self.cpu_ns: list[int] = []   # routine CPU time of each sample of the current op
        self.wall_ns = 0              # wall time the handler took inside the current op
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        wall, cpu = perf_counter_ns(), thread_time_ns()
        self.unit()
        self.cpu_ns.append(thread_time_ns() - cpu)
        self.wall_ns += perf_counter_ns() - wall

    def start(self):
        """Arm the timer; call right after reading the op's start time."""
        self.cpu_ns = []
        self.wall_ns = 0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> int:
        """Disarm the timer; call right before reading the op's end time.

        Returns the wall time the handler took inside the op.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.wall_ns

    def reference_ns(self) -> float:
        """Mean routine CPU time over the op's samples and one more taken now."""
        self._sample()
        return statistics.fmean(self.cpu_ns)

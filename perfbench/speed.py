"""Host-speed normalisation of measured times.

The shared machines this benchmark runs on change speed by up to 2x from
one second to the next, as neighbours come and go, which no amount of
repetition averages away within one run.  So every timed operation is
bracketed by two runs of a frozen reference workload: a small LRU cache
simulation in plain Python, close in instruction mix to the simulators.
The operation's host time, divided by the mean time of its two brackets
and multiplied by ``NOMINAL_S``, is its time on a host that runs the
reference workload in ``NOMINAL_S`` seconds.  That normalised time is what
the benchmark reports; the raw host time goes to the layer report.

Do not edit the reference workload or ``NOMINAL_S``: they define the unit
every reported time is expressed in, so a change makes figures
incomparable with earlier runs.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: Reference workload duration on the nominal host (a quiet 2-CPU VM).
NOMINAL_S = 0.015


def reference_work(n: int = 24) -> float:
    """Seconds taken by an LRU simulation of an n^3 matrix-multiply
    address stream on an 8-set, 8-way cache."""
    start = time.perf_counter()
    sets = [[] for _ in range(8)]
    hits = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for block in ((i * n + k) >> 2, (4096 + k * n + j) >> 2,
                              (8192 + i * n + j) >> 2):
                    ways = sets[block & 7]
                    if block in ways:
                        ways.remove(block)
                        hits += 1
                    elif len(ways) == 8:
                        del ways[0]
                    ways.append(block)
    return time.perf_counter() - start


class SegmentClock:
    """Times one call in segments, each bracketed by reference work.

    ``start()`` opens the first segment and every ``split()`` closes the
    current one and opens the next; a long call (a sweep) can split from
    a progress callback, so each segment is normalised by the host speed
    measured right around it.  The brackets themselves are not timed.
    """

    def __init__(self):
        self.host_s = 0.0
        self.normalised_s = 0.0
        self._reference = 0.0
        self._start = 0.0

    def start(self) -> None:
        self._reference = reference_work()
        self._start = time.perf_counter()

    def split(self) -> None:
        seconds = time.perf_counter() - self._start
        reference = reference_work()
        self.host_s += seconds
        self.normalised_s += (seconds * 2 * NOMINAL_S
                              / (self._reference + reference))
        self._reference = reference
        self._start = time.perf_counter()


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """``(fn(), host seconds, normalised seconds)``."""
    clock = SegmentClock()
    clock.start()
    result = fn()
    clock.split()
    return result, clock.host_s, clock.normalised_s

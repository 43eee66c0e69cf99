"""repro.obs — structured tracing, counters, and phase profiling.

The module-level functions (:func:`span`, :func:`count`,
:func:`add_time`, :func:`stopwatch`) are the instrumentation API the
rest of the codebase calls.  They delegate to a **process-global
tracer** that defaults to *disabled*: in that state every call is one
module-global read plus a branch, so instrumented code pays essentially
nothing unless somebody turned profiling on.

Enable profiling for a region with :func:`collect`:

>>> from repro import obs
>>> with obs.collect() as tracer:
...     with obs.span("demo"):
...         obs.count("demo.events", 2)
>>> tracer.stats[("demo",)].count
1
>>> tracer.counters["demo.events"]
2
>>> obs.is_enabled()
False

or globally with :func:`enable` / :func:`disable`.  The active
:class:`~repro.obs.tracer.Tracer` exposes aggregated per-path span
statistics, named counters, Chrome trace-event export and
flamegraph-collapsed stacks; see :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional

from repro import lazy_exports

from .tracer import SpanPath, SpanStats, Tracer

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricError",
                          "MetricFamily", "MetricRegistry"),
    "repro.obs.export": ("append_series", "to_prometheus",
                         "validate_prometheus", "validate_series"),
})

__all__ = [
    "Tracer", "SpanStats", "SpanPath", "Stopwatch",
    "span", "count", "add_time", "stopwatch",
    "enable", "disable", "collect", "current", "is_enabled",
    "Counter", "Gauge", "Histogram", "MetricError", "MetricFamily",
    "MetricRegistry", "to_prometheus", "validate_prometheus",
    "append_series", "validate_series",
]

#: The process-global tracer.  ``None`` means profiling is disabled and
#: every instrumentation call short-circuits on this one global read.
_TRACER: Optional[Tracer] = None


class _NullSpan:
    """Shared do-nothing span used whenever profiling is disabled."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# -- instrumentation API (safe to call unconditionally) ----------------------

def span(name: str):
    """Open a named span on the active tracer (no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def count(name: str, n: int = 1) -> None:
    """Bump a named counter on the active tracer (no-op when disabled)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.count(name, n)


def add_time(name: str, seconds: float, n: int = 1) -> None:
    """Attribute pre-measured time to a child of the current span."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add_time(name, seconds, n)


class Stopwatch:
    """Wall-clock timer that doubles as a span when profiling is on.

    The replacement for ad-hoc ``time.perf_counter()`` pairs around
    timed regions: ``elapsed`` is always available after the ``with``
    block, and when a tracer is active the same measurement is recorded
    as a span — so a result's ``wall_time`` field and its trace can
    never disagree.

    >>> with Stopwatch("engine.tree") as watch:
    ...     _ = sum(range(100))
    >>> watch.elapsed >= 0.0
    True
    """

    __slots__ = ("name", "elapsed", "_span", "_start")

    def __init__(self, name: str):
        self.name = name
        self.elapsed = 0.0
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        tracer = _TRACER
        if tracer is not None:
            self._span = tracer.span(self.name)
            self._span.__enter__()
        else:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self._span is not None:
            self._span.__exit__(*exc)
            self.elapsed = self._span.duration
            self._span = None
        else:
            self.elapsed = time.perf_counter() - self._start
        return False


def stopwatch(name: str) -> Stopwatch:
    """Convenience constructor for :class:`Stopwatch`."""
    return Stopwatch(name)


# -- tracer lifecycle --------------------------------------------------------

def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    _TRACER = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Remove the process-global tracer; returns the one removed."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    return tracer


def current() -> Optional[Tracer]:
    """The active tracer, or ``None`` when profiling is disabled."""
    return _TRACER


def is_enabled() -> bool:
    """True when a tracer is collecting in this process."""
    return _TRACER is not None


@contextmanager
def collect(tracer: Optional[Tracer] = None):
    """Enable profiling for a ``with`` block; restores the previous
    tracer (usually none) on exit and yields the collecting tracer.

    >>> from repro import obs
    >>> with obs.collect() as tracer:
    ...     with obs.span("demo"):
    ...         obs.count("demo.events")
    >>> tracer.counters["demo.events"]
    1
    >>> obs.is_enabled()
    False
    """
    global _TRACER
    previous = _TRACER
    if tracer is None:
        tracer = Tracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous

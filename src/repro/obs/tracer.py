"""Hierarchical span tracer with counters (the heart of repro.obs).

A :class:`Tracer` records two kinds of facts about a run:

* **spans** — named, nested wall-time intervals opened with
  :meth:`Tracer.span` (a context manager).  Every distinct *path* of
  nested span names (``("engine.warping", "warp.analysis", "isl.ilp")``)
  accumulates exact aggregate statistics: total time, *self* time
  (total minus time spent in child spans), and an invocation count.
  Individual span events are additionally retained (up to
  ``max_events``) so a run can be exported as a Chrome trace.
* **counters** — named monotonically increasing integers bumped with
  :meth:`Tracer.count` (``ilp.pivots``, ``isl.set_ops``,
  ``isl.memo_hits``, ...).

Hot code that cannot afford a context manager per operation uses
:meth:`Tracer.add_time`, which attributes an externally measured
duration to a child of the current span — aggregate-only, no event
retention, one dict update.

Aggregates are exact regardless of the event cap; only the Chrome trace
is truncated (``dropped_events`` says by how much).  Tracers are
single-threaded by design — the simulators are sequential within a
process, and cross-process work (shard or sweep workers) merges back
via :meth:`snapshot` / :meth:`merge_snapshot`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: A span path: the tuple of span names from the root to the span.
SpanPath = Tuple[str, ...]


class SpanStats:
    """Exact aggregate statistics of one span path."""

    __slots__ = ("total_s", "self_s", "count")

    def __init__(self):
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0

    def to_dict(self, precision: int = 9) -> dict:
        return {
            "total_s": round(self.total_s, precision),
            "self_s": round(self.self_s, precision),
            "count": self.count,
        }

    def __repr__(self) -> str:
        return (f"SpanStats(total_s={self.total_s:.6f}, "
                f"self_s={self.self_s:.6f}, count={self.count})")


class _SpanHandle:
    """Context manager for one span occurrence.

    Exposes ``duration`` after exit so callers (e.g.
    :class:`repro.obs.Stopwatch`) can reuse the span's own measurement
    and wall-time fields can never disagree with the trace.
    """

    __slots__ = ("_tracer", "name", "start", "duration", "_child_s")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self.start = 0.0
        self.duration = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self)
        self.start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        end = self._tracer.clock()
        self.duration = end - self.start
        self._tracer._pop(self, end)
        return False


class Tracer:
    """Collects spans and counters for one profiled region.

    >>> tracer = Tracer()
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner"):
    ...         tracer.count("work.items", 3)
    >>> tracer.counters["work.items"]
    3
    >>> stats = tracer.stats[("outer", "inner")]
    >>> stats.count
    1
    >>> outer = tracer.stats[("outer",)]
    >>> outer.total_s >= stats.total_s
    True
    """

    __slots__ = ("clock", "counters", "stats", "events", "max_events",
                 "dropped_events", "_stack", "_path", "epoch")

    def __init__(self, clock=time.perf_counter, max_events: int = 50_000):
        self.clock = clock
        self.counters: Dict[str, int] = {}
        self.stats: Dict[SpanPath, SpanStats] = {}
        #: Retained events for the Chrome trace: (path, start_s, dur_s).
        self.events: List[Tuple[SpanPath, float, float]] = []
        self.max_events = max_events
        self.dropped_events = 0
        self._stack: List[_SpanHandle] = []
        self._path: SpanPath = ()
        self.epoch = clock()

    # -- recording -----------------------------------------------------------

    def span(self, name: str) -> _SpanHandle:
        """Open a named span (use as a context manager)."""
        return _SpanHandle(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the named counter by ``n``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float, n: int = 1) -> None:
        """Attribute ``seconds`` to child ``name`` of the current span.

        The aggregate-only fast path for operations too hot for a
        context manager: callers measure with two clock reads and hand
        the duration in.  The time is charged to the child path (and
        subtracted from the enclosing span's self time) exactly as a
        real span would be, but no event is retained.
        """
        path = self._path + (name,)
        stats = self.stats.get(path)
        if stats is None:
            stats = self.stats[path] = SpanStats()
        stats.total_s += seconds
        stats.self_s += seconds
        stats.count += n
        if self._stack:
            self._stack[-1]._child_s += seconds

    # -- span stack ----------------------------------------------------------

    def _push(self, handle: _SpanHandle) -> None:
        self._stack.append(handle)
        self._path = self._path + (handle.name,)

    def _pop(self, handle: _SpanHandle, end: float) -> None:
        path = self._path
        self._stack.pop()
        self._path = path[:-1]
        duration = handle.duration
        stats = self.stats.get(path)
        if stats is None:
            stats = self.stats[path] = SpanStats()
        stats.total_s += duration
        stats.self_s += duration - handle._child_s
        stats.count += 1
        if self._stack:
            self._stack[-1]._child_s += duration
        if len(self.events) < self.max_events:
            self.events.append((path, handle.start - self.epoch, duration))
        else:
            self.dropped_events += 1

    # -- aggregate views -----------------------------------------------------

    def phase_totals(self, sep: str = "/") -> Dict[str, dict]:
        """Aggregates per span path, keyed by ``sep``-joined path.

        Paths come out in depth-first tree order (parents before their
        children), which is also the order the profile table prints.
        """
        totals = {}
        for path in sorted(self.stats):
            totals[sep.join(path)] = self.stats[path].to_dict()
        return totals

    def top_level_time(self) -> float:
        """Sum of total time over root-level spans."""
        return sum(stats.total_s for path, stats in self.stats.items()
                   if len(path) == 1)

    def child_coverage(self, path: SpanPath) -> Optional[float]:
        """Fraction of a span's time attributed to its direct children.

        Returns ``None`` when the path has not been recorded (or took
        no measurable time).
        """
        parent = self.stats.get(tuple(path))
        if parent is None or parent.total_s <= 0.0:
            return None
        depth = len(path)
        child_s = sum(
            stats.total_s for p, stats in self.stats.items()
            if len(p) == depth + 1 and p[:depth] == tuple(path)
        )
        return child_s / parent.total_s

    # -- cross-process merge -------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable aggregate snapshot (counters + per-path stats)."""
        return {
            "counters": dict(self.counters),
            "spans": [
                [list(path), stats.total_s, stats.self_s, stats.count]
                for path, stats in sorted(self.stats.items())
            ],
        }

    def merge_snapshot(self, snapshot: dict,
                       under: SpanPath = ()) -> None:
        """Fold a worker snapshot into this tracer.

        Counters add up; span stats are grafted below ``under`` (and
        below the currently open span path).  Merged time is *not*
        subtracted from any open span's self time — worker wall time
        overlaps the parent's (the workers ran concurrently), so the
        two attributions are complementary, not double counted.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        base = self._path + tuple(under)
        for raw_path, total_s, self_s, count in snapshot.get("spans", ()):
            path = base + tuple(raw_path)
            stats = self.stats.get(path)
            if stats is None:
                stats = self.stats[path] = SpanStats()
            stats.total_s += total_s
            stats.self_s += self_s
            stats.count += count

    def merge_phase_totals(self, totals: Dict[str, dict],
                           sep: str = "/") -> None:
        """Fold a :meth:`phase_totals` dict back into this tracer.

        The inverse of :meth:`phase_totals` up to raw events (which a
        totals dict does not carry).  Used to aggregate the per-point
        ``phases`` sections persisted in sweep store records — also
        across points loaded from a previous run.
        """
        for joined, data in totals.items():
            path = tuple(joined.split(sep))
            stats = self.stats.get(path)
            if stats is None:
                stats = self.stats[path] = SpanStats()
            stats.total_s += data.get("total_s", 0.0)
            stats.self_s += data.get("self_s", 0.0)
            stats.count += data.get("count", 0)

    # -- exports -------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (the ``chrome://tracing`` format).

        Returns an object with a ``traceEvents`` list of complete
        (``"ph": "X"``) events — timestamps and durations in
        microseconds, as the format requires — plus the counters under
        ``otherData``.  Load it in ``chrome://tracing`` or Perfetto.
        """
        events = [
            {
                "name": path[-1],
                "cat": "/".join(path[:-1]) or "root",
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"path": "/".join(path)},
            }
            for path, start, duration in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "counters": dict(sorted(self.counters.items())),
                "dropped_events": self.dropped_events,
            },
        }

    def to_collapsed(self) -> str:
        """Flamegraph-collapsed stacks (``a;b;c <self-microseconds>``).

        Derived from the exact aggregates (not the capped event list),
        so the output is complete even when events were dropped.  Feed
        it straight to ``flamegraph.pl`` or speedscope.
        """
        lines = []
        for path in sorted(self.stats):
            weight = int(round(self.stats[path].self_s * 1e6))
            if weight > 0:
                lines.append(";".join(path) + f" {weight}")
        return "\n".join(lines)

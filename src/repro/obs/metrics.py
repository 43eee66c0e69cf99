"""Typed metrics on top of the span tracer: counters, gauges, histograms.

The PR 5 tracer answers *where time went* inside one profiled region;
this module answers *what the system is doing* — continuously, across
processes, in a form exporters understand.  Four metric kinds, modelled
on the Prometheus data model but dependency-free:

* :class:`Counter` — monotonically increasing; negative increments are
  rejected (:class:`MetricError`), which is what makes counter series
  diffable across scrapes.
* :class:`Gauge` — a value that can go up and down (RSS, queue depth,
  workers alive).
* :class:`Histogram` — observations bucketed into *fixed* upper bounds
  (``le`` semantics: a value lands in every bucket whose bound is >= it,
  cumulatively), plus an exact sum and count.
* **Labeled families** — every metric is registered as a
  :class:`MetricFamily` with a tuple of label names;
  :meth:`MetricFamily.labels` materialises one child per label-value
  combination (``points_total{status="ok"}``).

A :class:`MetricRegistry` owns the families of one process.  Like the
tracer, registries are single-threaded by design and merge across
processes via :meth:`MetricRegistry.snapshot` /
:meth:`MetricRegistry.merge_snapshot`: counters and histograms add,
gauges take the incoming (newer) value.  :meth:`MetricRegistry.ingest_tracer`
folds a tracer's named counters in as proper counter families, so
everything the PR 5 instrumentation already counts (``ilp.solves``,
``isl.memo_hits``, ...) is exportable without touching the engines.

>>> registry = MetricRegistry()
>>> points = registry.counter("repro_points_total",
...                           "Completed sweep points.", ("status",))
>>> points.labels(status="ok").inc(3)
>>> points.labels(status="error").inc()
>>> points.labels(status="ok").value
3
>>> wall = registry.histogram("repro_point_wall_seconds",
...                           "Per-point wall time.", buckets=(0.1, 1.0))
>>> wall.labels().observe(0.05); wall.labels().observe(0.5)
>>> wall.labels().counts
[1, 2, 2]
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .tracer import Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricError", "MetricFamily",
    "MetricRegistry", "DEFAULT_BUCKETS", "sanitize_metric_name",
]

#: Default histogram bucket upper bounds (seconds) for per-point wall
#: times: sub-10ms cache hits up to multi-minute stragglers.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """A metric contract violation (bad name, negative counter inc, ...)."""


def sanitize_metric_name(name: str, prefix: str = "") -> str:
    """Coerce an arbitrary dotted name into a legal metric name.

    Used when ingesting tracer counters (``ilp.solves`` →
    ``repro_ilp_solves``): every illegal character becomes ``_``.

    >>> sanitize_metric_name("ilp.solves", prefix="repro_")
    'repro_ilp_solves'
    """
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return prefix + cleaned


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1) -> None:
        """Increment by ``n >= 0``; a negative ``n`` raises."""
        if n < 0:
            raise MetricError(
                f"counter increment must be >= 0, got {n!r} "
                f"(use a gauge for values that go down)")
        self.value += n

    def sample_value(self):
        return self.value

    def _merge(self, value) -> None:
        if value < 0:
            raise MetricError(f"counter snapshot value {value!r} < 0")
        self.value += value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n

    def sample_value(self):
        return self.value

    def _merge(self, value) -> None:
        # Snapshots are newer than whatever the receiving registry
        # holds; for instantaneous values the incoming reading wins.
        self.value = value


class Histogram:
    """Observations in fixed cumulative buckets plus sum and count.

    ``buckets`` are finite, strictly increasing upper bounds; an
    implicit ``+Inf`` bucket always terminates the list.  Bucket
    semantics follow Prometheus ``le``: an observation equal to a bound
    lands *in* that bucket (inclusive upper bound), and ``counts`` is
    cumulative — ``counts[i]`` is the number of observations ``<=
    bounds[i]``, with ``counts[-1]`` (the ``+Inf`` bucket) equal to the
    total count.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise MetricError("histogram bounds must be finite "
                              "(+Inf is implicit)")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise MetricError(
                f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds: List[float] = bounds
        #: Cumulative per-bucket counts; one extra slot for +Inf.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                for i in range(index, len(self.counts)):
                    self.counts[i] += 1
                return
        self.counts[-1] += 1

    def sample_value(self) -> dict:
        return {"buckets": list(self.counts),
                "sum": self.sum, "count": self.count}

    def _merge(self, value: dict) -> None:
        buckets = value.get("buckets", [])
        if len(buckets) != len(self.counts):
            raise MetricError(
                f"histogram merge: {len(buckets)} buckets != "
                f"{len(self.counts)} (bounds must match)")
        for index, n in enumerate(buckets):
            self.counts[index] += n
        self.sum += value.get("sum", 0.0)
        self.count += value.get("count", 0)


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge,
                 "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-combination children.

    An unlabeled metric is a family with no label names and a single
    child at the empty label tuple, reached via ``family.labels()``.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "children")

    def __init__(self, name: str, kind: str, help_text: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None):
        if not _METRIC_NAME.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise MetricError(f"duplicate label names in {labelnames!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.buckets = (tuple(buckets if buckets is not None
                              else DEFAULT_BUCKETS)
                        if kind == "histogram" else None)
        self.children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues):
        """The child metric for one label-value combination (created on
        first use).  Label names must match the family exactly."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self.children.get(key)
        if child is None:
            child = self._new_child()
            self.children[key] = child
        return child

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _METRIC_TYPES[self.kind]()

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child metric) pairs in sorted label order."""
        for key in sorted(self.children):
            yield key, self.children[key]


class MetricRegistry:
    """The metric families of one process.

    Registration is idempotent for an identical signature (same kind,
    label names, and buckets) and an error otherwise — two call sites
    silently disagreeing about a metric's shape is how exports go bad.

    >>> registry = MetricRegistry()
    >>> points = registry.counter("repro_points_total",
    ...                           "Points by status.", ("status",))
    >>> points.labels(status="ok").inc(3)
    >>> registry.get("repro_points_total").labels(status="ok").value
    3
    >>> merged = MetricRegistry()
    >>> merged.merge_snapshot(registry.snapshot())
    >>> merged.merge_snapshot(registry.snapshot())   # counters add
    >>> merged.get("repro_points_total").labels(status="ok").value
    6
    """

    __slots__ = ("families",)

    def __init__(self):
        self.families: Dict[str, MetricFamily] = {}

    # -- registration --------------------------------------------------------

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "histogram", help_text, labelnames,
                              buckets=buckets)

    def _register(self, name: str, kind: str, help_text: str,
                  labelnames: Sequence[str],
                  buckets: Optional[Sequence[float]] = None
                  ) -> MetricFamily:
        existing = self.families.get(name)
        if existing is not None:
            if (existing.kind != kind
                    or existing.labelnames != tuple(labelnames)
                    or (kind == "histogram" and buckets is not None
                        and existing.buckets != tuple(buckets))):
                raise MetricError(
                    f"metric {name!r} re-registered with a different "
                    f"signature ({existing.kind}{existing.labelnames} "
                    f"vs {kind}{tuple(labelnames)})")
            return existing
        family = MetricFamily(name, kind, help_text, labelnames,
                              buckets=buckets)
        self.families[name] = family
        return family

    # -- ingestion -----------------------------------------------------------

    def ingest_tracer(self, tracer: Tracer,
                      prefix: str = "repro_") -> None:
        """Fold a tracer's named counters in as counter families."""
        self.ingest_counters(tracer.counters, prefix=prefix)

    def ingest_counters(self, counters: Dict[str, int],
                        prefix: str = "repro_",
                        suffix: str = "") -> None:
        """Fold a plain ``{dotted.name: value}`` counter dict in.

        ``suffix`` is appended after sanitisation (pass ``"_total"``
        for Prometheus counter naming convention).
        """
        for name, value in sorted(counters.items()):
            family = self.counter(
                sanitize_metric_name(name, prefix=prefix) + suffix,
                f"Tracer counter {name}.")
            family.labels().inc(value)

    # -- cross-process merge -------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable/JSON-able dump of every family and child."""
        families = {}
        for name in sorted(self.families):
            family = self.families[name]
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": (list(family.buckets)
                            if family.buckets is not None else None),
                "children": [
                    [list(key), child.sample_value()]
                    for key, child in family.samples()
                ],
            }
        return {"families": families}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Families are created on demand; counters and histograms add,
        gauges take the incoming value.  A family present in both with
        a different signature raises :class:`MetricError`.
        """
        for name, data in snapshot.get("families", {}).items():
            family = self._register(
                name, data["kind"], data.get("help", ""),
                tuple(data.get("labelnames", ())),
                buckets=data.get("buckets"))
            for raw_key, value in data.get("children", ()):
                key = tuple(raw_key)
                child = family.children.get(key)
                if child is None:
                    child = family._new_child()
                    family.children[key] = child
                child._merge(value)

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> Optional[MetricFamily]:
        return self.families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.families

    def __len__(self) -> int:
        return len(self.families)

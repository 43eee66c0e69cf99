"""Sweep specifications: cartesian design-space grids over simulations.

A :class:`SweepSpec` describes a grid of simulation points — kernels
crossed with problem sizes, cache geometries, replacement policies,
schedule transformations and engines.  ``expand()`` materialises the grid as :class:`SweepPoint`
records, silently dropping combinations with invalid cache geometry
(e.g. a capacity that is not a multiple of ``assoc * block_size``)
unless ``strict=True``.

Specs are plain data: they load from JSON (``SweepSpec.from_file``),
serialise back (``to_dict``), and compose programmatically — ``a | b``
concatenates two grids, and :func:`expand_specs` unions any number of
specs while deduplicating points by their content key.

Every point has a stable content-addressed :meth:`SweepPoint.key`
(SHA-256 over its canonical JSON form), which the result store uses to
skip already-computed points across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)

ENGINES = ("warping", "tree", "dinero")

INCLUSIONS = ("nine", "inclusive", "exclusive")

SizeSpec = Union[str, Dict[str, int]]


def _canonical_size(size: SizeSpec) -> SizeSpec:
    """Normalise a size spec for hashing (sorted dict or upper-case class)."""
    if isinstance(size, dict):
        return {key: int(size[key]) for key in sorted(size)}
    return str(size).upper()


@dataclass(frozen=True)
class SweepPoint:
    """One (program, cache, engine) simulation point of a sweep.

    ``size`` is either a PolyBench size-class name or a parameter dict;
    dicts are stored as sorted tuples so points stay hashable and their
    content keys canonical.

    >>> from repro import SweepPoint
    >>> point = SweepPoint(kernel="gemm", size="mini", l1_size=1024,
    ...                    l1_assoc=4, l1_policy="lru", block_size=32)
    >>> (point.size, point.depth, point.capacity)
    ('MINI', 1, 1024)
    >>> point.key() == SweepPoint.from_dict(point.to_dict()).key()
    True
    """

    kernel: str
    size: Union[str, Tuple[Tuple[str, int], ...]]
    l1_size: int
    l1_assoc: int
    l1_policy: str
    block_size: int = 64
    l2_size: int = 0
    l2_assoc: int = 16
    l2_policy: str = "qlru"
    l3_size: int = 0
    l3_assoc: int = 16
    l3_policy: str = "qlru"
    inclusion: str = "nine"
    write_allocate: bool = True
    engine: str = "warping"
    #: schedule-transformation pipeline spec ("" = original schedule);
    #: stored in canonical form so equal pipelines hash equally
    transform: str = ""

    def __post_init__(self):
        if isinstance(self.size, dict):
            object.__setattr__(
                self, "size",
                tuple(sorted((k, int(v)) for k, v in self.size.items())))
        elif isinstance(self.size, str):
            object.__setattr__(self, "size", self.size.upper())
        if self.transform:
            from repro.transform import canonical_spec

            object.__setattr__(self, "transform",
                               canonical_spec(self.transform))
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; use one of {ENGINES}")
        if self.inclusion not in INCLUSIONS:
            raise ValueError(
                f"unknown inclusion policy {self.inclusion!r}; "
                f"use one of {INCLUSIONS}")
        if self.l3_size and not self.l2_size:
            raise ValueError("an L3 needs an L2 "
                             "(l3_size set but l2_size is 0)")

    @property
    def size_spec(self) -> SizeSpec:
        """The size as :func:`repro.polybench.build_kernel` expects it."""
        if isinstance(self.size, tuple):
            return dict(self.size)
        return self.size

    @property
    def capacity(self) -> int:
        """Total cache capacity in bytes (all configured levels)."""
        return self.l1_size + self.l2_size + self.l3_size

    @property
    def depth(self) -> int:
        """Number of configured hierarchy levels."""
        return 1 + bool(self.l2_size) + bool(self.l3_size)

    def cache_config(self) -> Union[CacheConfig, HierarchyConfig]:
        """The :class:`CacheConfig`/:class:`HierarchyConfig` of the point."""
        write_policy = (WritePolicy.WRITE_ALLOCATE if self.write_allocate
                        else WritePolicy.NO_WRITE_ALLOCATE)
        geometry = [(self.l1_size, self.l1_assoc, self.l1_policy)]
        if self.l2_size:
            geometry.append((self.l2_size, self.l2_assoc, self.l2_policy))
        if self.l3_size:
            geometry.append((self.l3_size, self.l3_assoc, self.l3_policy))
        levels = [
            CacheConfig(size, assoc, self.block_size, policy,
                        write_policy=write_policy,
                        name=f"L{number}")
            for number, (size, assoc, policy) in enumerate(geometry, 1)
        ]
        if len(levels) == 1:
            return levels[0]
        return HierarchyConfig(
            levels=tuple(levels),
            inclusion=InclusionPolicy.parse(self.inclusion))

    def to_dict(self) -> dict:
        # Optional axes are emitted only at non-default values so the
        # content keys of pre-existing points (and hence stored sweep
        # results) stay valid.
        payload = {
            "kernel": self.kernel,
            "size": self.size_spec,
            "l1_size": self.l1_size,
            "l1_assoc": self.l1_assoc,
            "l1_policy": self.l1_policy,
            "block_size": self.block_size,
            "engine": self.engine,
            "write_allocate": self.write_allocate,
        }
        if self.l2_size:
            payload["l2_size"] = self.l2_size
            payload["l2_assoc"] = self.l2_assoc
            payload["l2_policy"] = self.l2_policy
        if self.l3_size:
            payload["l3_size"] = self.l3_size
            payload["l3_assoc"] = self.l3_assoc
            payload["l3_policy"] = self.l3_policy
        if self.inclusion != "nine":
            payload["inclusion"] = self.inclusion
        if self.transform:
            payload["transform"] = self.transform
        return payload

    @staticmethod
    def from_dict(data: dict) -> "SweepPoint":
        size = data.get("size", "MINI")
        if isinstance(size, dict):
            size = _canonical_size(size)
        return SweepPoint(
            kernel=data["kernel"],
            size=size,
            l1_size=int(data["l1_size"]),
            l1_assoc=int(data.get("l1_assoc", 8)),
            l1_policy=data.get("l1_policy", "lru"),
            block_size=int(data.get("block_size", 64)),
            l2_size=int(data.get("l2_size", 0)),
            l2_assoc=int(data.get("l2_assoc", 16)),
            l2_policy=data.get("l2_policy", "qlru"),
            l3_size=int(data.get("l3_size", 0)),
            l3_assoc=int(data.get("l3_assoc", 16)),
            l3_policy=data.get("l3_policy", "qlru"),
            inclusion=data.get("inclusion", "nine"),
            write_allocate=bool(data.get("write_allocate", True)),
            engine=data.get("engine", "warping"),
            transform=data.get("transform", ""),
        )

    def key(self) -> str:
        """Content-addressed identity of the point (SHA-256 hex digest).

        Equal points always hash equally regardless of how they were
        constructed (size dict ordering, spec vs. hand-built, JSON
        round-trips), so the result store can skip recomputation.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _as_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


@dataclass
class SweepSpec:
    """A cartesian grid of :class:`SweepPoint`\\ s.

    Every field is a list of alternatives; ``expand()`` crosses them
    all.  ``l2_sizes``/``l3_sizes`` default to ``[0]`` (no second/third
    level); ``inclusions`` defaults to ``["nine"]`` and, like the L3
    axes, is only crossed for genuine hierarchies (``l2_size > 0``).
    ``transforms`` lists schedule-transformation pipelines (see
    :mod:`repro.transform`); the default ``[""]`` keeps the original
    schedule only, and untransformed points keep their pre-transform
    content keys, so existing stores resume cleanly.

    >>> from repro import SweepSpec
    >>> spec = SweepSpec(kernels=["gemm", "atax"], sizes=["MINI"],
    ...                  l1_sizes=[1024, 2048], l1_assocs=[4],
    ...                  l1_policies=["lru", "plru"], block_sizes=[32])
    >>> len(spec.expand())      # 2 kernels x 2 sizes x 2 policies
    8
    """

    kernels: List[str]
    sizes: List[SizeSpec] = field(default_factory=lambda: ["MINI"])
    l1_sizes: List[int] = field(default_factory=lambda: [32 * 1024])
    l1_assocs: List[int] = field(default_factory=lambda: [8])
    l1_policies: List[str] = field(default_factory=lambda: ["plru"])
    block_sizes: List[int] = field(default_factory=lambda: [64])
    l2_sizes: List[int] = field(default_factory=lambda: [0])
    l2_assocs: List[int] = field(default_factory=lambda: [16])
    l2_policies: List[str] = field(default_factory=lambda: ["qlru"])
    l3_sizes: List[int] = field(default_factory=lambda: [0])
    l3_assocs: List[int] = field(default_factory=lambda: [16])
    l3_policies: List[str] = field(default_factory=lambda: ["qlru"])
    inclusions: List[str] = field(default_factory=lambda: ["nine"])
    engines: List[str] = field(default_factory=lambda: ["warping"])
    #: schedule-transformation pipelines; "" is the original schedule,
    #: so the default grid matches pre-transform campaigns exactly
    transforms: List[str] = field(default_factory=lambda: [""])
    write_allocate: bool = True
    name: str = ""

    def __post_init__(self):
        for attr in ("kernels", "sizes", "l1_sizes", "l1_assocs",
                     "l1_policies", "block_sizes", "l2_sizes",
                     "l2_assocs", "l2_policies", "l3_sizes",
                     "l3_assocs", "l3_policies", "inclusions",
                     "engines", "transforms"):
            setattr(self, attr, _as_list(getattr(self, attr)))
        # Validate transform specs up front: a malformed pipeline is a
        # spec error the user should see immediately, not a per-point
        # failure record deep into a campaign.
        from repro.transform import canonical_spec

        self.transforms = [canonical_spec(t) if t else ""
                           for t in self.transforms]
        # The L3 and inclusion axes only exist under an L2; requesting
        # them in a grid that can never have one would otherwise be
        # silently ignored (the campaign the user asked for would not
        # be the one that runs).
        if not any(self.l2_sizes):
            if any(self.l3_sizes):
                raise ValueError(
                    "l3_sizes requested but every l2_size is 0 — "
                    "an L3 needs an L2")
            if any(inc != "nine" for inc in self.inclusions):
                raise ValueError(
                    "inclusions other than 'nine' requested but every "
                    "l2_size is 0 — inclusion policies need a "
                    "hierarchy (l2_size > 0)")

    def _hierarchy_combos(self) -> List[Tuple[int, int, str,
                                              int, int, str, str]]:
        """(l2 size/assoc/policy, l3 size/assoc/policy, inclusion) combos.

        A zero level size prunes the axes it gates: ``l2_size=0`` means
        a single-level cache (no L2/L3/inclusion crossing at all) and
        ``l3_size=0`` a two-level hierarchy (no L3 assoc/policy
        crossing), so disabled levels contribute exactly one
        combination instead of inflating the grid.
        """
        l3_default = (0, int(self.l3_assocs[0]), self.l3_policies[0])
        combos: List[Tuple[int, int, str, int, int, str, str]] = []
        for l2_size in self.l2_sizes:
            if not l2_size:
                combos.append((0, int(self.l2_assocs[0]),
                               self.l2_policies[0], *l3_default, "nine"))
                continue
            for l2_assoc in self.l2_assocs:
                for l2_policy in self.l2_policies:
                    for inclusion in self.inclusions:
                        for l3_size in self.l3_sizes:
                            if not l3_size:
                                combos.append((
                                    int(l2_size), int(l2_assoc),
                                    l2_policy, *l3_default, inclusion))
                                continue
                            combos.extend(
                                (int(l2_size), int(l2_assoc), l2_policy,
                                 int(l3_size), int(l3_assoc), l3_policy,
                                 inclusion)
                                for l3_assoc in self.l3_assocs
                                for l3_policy in self.l3_policies)
        return combos

    def grid_size(self) -> int:
        """Number of raw grid combinations (before validity filtering)."""
        counts = [len(self.kernels), len(self.sizes), len(self.l1_sizes),
                  len(self.l1_assocs), len(self.l1_policies),
                  len(self.block_sizes), len(self._hierarchy_combos()),
                  len(self.engines), len(self.transforms)]
        total = 1
        for count in counts:
            total *= count
        return total

    def expand(self, strict: bool = False,
               stats: Optional[Dict[str, int]] = None) -> List[SweepPoint]:
        """Materialise the grid as a list of valid points.

        Combinations with impossible cache geometry are dropped (or
        raised when ``strict=True``).  Grids with no L2 don't cross the
        L2 assoc/policy axes, so ``l2_size=0`` contributes exactly one
        point per L1 configuration.

        When ``stats`` (a dict) is given, the counters ``raw``,
        ``invalid`` and ``duplicate`` are accumulated into it so
        callers can report dropped combinations instead of sweeping a
        silently smaller grid.
        """
        if stats is None:
            stats = {}
        for counter in ("raw", "invalid", "duplicate"):
            stats.setdefault(counter, 0)
        stats["raw"] += self.grid_size()
        points: List[SweepPoint] = []
        seen = set()
        for (kernel, size, l1_size, l1_assoc, l1_policy, block_size,
             (l2_size, l2_assoc, l2_policy, l3_size, l3_assoc,
              l3_policy, inclusion), engine, transform) in itertools.product(
                self.kernels, self.sizes, self.l1_sizes, self.l1_assocs,
                self.l1_policies, self.block_sizes,
                self._hierarchy_combos(), self.engines, self.transforms):
            point = SweepPoint(
                kernel=kernel, size=_canonical_size(size),
                l1_size=int(l1_size), l1_assoc=int(l1_assoc),
                l1_policy=l1_policy, block_size=int(block_size),
                l2_size=int(l2_size), l2_assoc=int(l2_assoc),
                l2_policy=l2_policy,
                l3_size=int(l3_size), l3_assoc=int(l3_assoc),
                l3_policy=l3_policy, inclusion=inclusion,
                write_allocate=self.write_allocate, engine=engine,
                transform=transform,
            )
            try:
                point.cache_config()
            except ValueError:
                if strict:
                    raise
                stats["invalid"] += 1
                continue
            key = point.key()
            if key in seen:
                stats["duplicate"] += 1
                continue
            seen.add(key)
            points.append(point)
        return points

    def __or__(self, other: "SweepSpec") -> "SweepUnion":
        return SweepUnion([self, other])

    def to_dict(self) -> dict:
        payload = {
            "kernels": list(self.kernels),
            "sizes": list(self.sizes),
            "l1_sizes": list(self.l1_sizes),
            "l1_assocs": list(self.l1_assocs),
            "l1_policies": list(self.l1_policies),
            "block_sizes": list(self.block_sizes),
            "l2_sizes": list(self.l2_sizes),
            "l2_assocs": list(self.l2_assocs),
            "l2_policies": list(self.l2_policies),
            "l3_sizes": list(self.l3_sizes),
            "l3_assocs": list(self.l3_assocs),
            "l3_policies": list(self.l3_policies),
            "inclusions": list(self.inclusions),
            "engines": list(self.engines),
            "transforms": list(self.transforms),
            "write_allocate": self.write_allocate,
        }
        if self.name:
            payload["name"] = self.name
        return payload

    @staticmethod
    def from_dict(data: dict) -> "SweepSpec":
        known = {f for f in SweepSpec.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown sweep spec fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        if "kernels" not in data:
            raise ValueError("sweep spec needs a 'kernels' list")
        return SweepSpec(**data)

    @staticmethod
    def from_json(text: str) -> Union["SweepSpec", "SweepUnion"]:
        """Parse a spec (or a list of specs, forming a union) from JSON."""
        data = json.loads(text)
        if isinstance(data, list):
            return SweepUnion([SweepSpec.from_dict(entry)
                               for entry in data])
        return SweepSpec.from_dict(data)

    @staticmethod
    def from_file(path: str) -> Union["SweepSpec", "SweepUnion"]:
        with open(path) as handle:
            return SweepSpec.from_json(handle.read())


@dataclass
class SweepUnion:
    """A composition of several sweep specs (``spec_a | spec_b``)."""

    specs: List[SweepSpec]

    def __or__(self, other) -> "SweepUnion":
        if isinstance(other, SweepUnion):
            return SweepUnion(self.specs + other.specs)
        return SweepUnion(self.specs + [other])

    def grid_size(self) -> int:
        return sum(spec.grid_size() for spec in self.specs)

    def expand(self, strict: bool = False,
               stats: Optional[Dict[str, int]] = None) -> List[SweepPoint]:
        return expand_specs(self.specs, strict=strict, stats=stats)

    def to_dict(self) -> list:
        return [spec.to_dict() for spec in self.specs]


def expand_specs(specs: Iterable[SweepSpec],
                 strict: bool = False,
                 stats: Optional[Dict[str, int]] = None
                 ) -> List[SweepPoint]:
    """Expand several specs into one deduplicated point list."""
    points: List[SweepPoint] = []
    seen = set()
    for spec in specs:
        for point in spec.expand(strict=strict, stats=stats):
            key = point.key()
            if key in seen:
                if stats is not None:
                    stats["duplicate"] += 1
                continue
            seen.add(key)
            points.append(point)
    return points

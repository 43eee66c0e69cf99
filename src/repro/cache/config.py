"""Cache and hierarchy configuration records."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union


class WritePolicy(enum.Enum):
    """Allocation behaviour on write misses.

    The hit/miss model abstracts from write-back vs write-through (which
    only affects traffic, not hit/miss classification); what matters for
    miss counts is whether a write miss *allocates* the block.

    >>> from repro import WritePolicy
    >>> WritePolicy("no-write-allocate") is WritePolicy.NO_WRITE_ALLOCATE
    True
    """

    WRITE_ALLOCATE = "write-allocate"
    NO_WRITE_ALLOCATE = "no-write-allocate"


class IndexFunction(enum.Enum):
    """How memory blocks map to cache sets.

    ``MODULO`` is the common L1/L2 scheme and the one the paper's
    warping implementation supports.  ``XOR_FOLD`` stands in for the
    pseudo-random hash functions of sliced last-level caches (paper
    Sec. 7): it XOR-folds the block number's bit groups.  Hashed
    indexing does not violate data independence, but it destroys the
    rotation symmetry that warping's match detection relies on, so the
    warping simulator refuses to warp under it (and the ablation bench
    measures exactly that effect).
    """

    MODULO = "modulo"
    XOR_FOLD = "xor-fold"


class InclusionPolicy(enum.Enum):
    """How the contents of adjacent hierarchy levels relate.

    The paper's implementation supports NINE (Sec. 2.3) and notes that
    inclusive and exclusive hierarchies "also satisfy data independence
    and could be captured in a similar manner"; all three are modelled
    (see :mod:`repro.cache.hierarchy`).

    >>> from repro import InclusionPolicy
    >>> InclusionPolicy.parse("inclusive") is InclusionPolicy.INCLUSIVE
    True
    >>> InclusionPolicy.parse(None) is InclusionPolicy.NINE
    True
    """

    NINE = "non-inclusive non-exclusive"
    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"

    @staticmethod
    def parse(value: Union["InclusionPolicy", str, None]
              ) -> "InclusionPolicy":
        """Coerce an enum member, member name, alias or value string."""
        if value is None:
            return InclusionPolicy.NINE
        if isinstance(value, InclusionPolicy):
            return value
        text = str(value).strip().lower()
        for member in InclusionPolicy:
            if text in (member.name.lower(), member.value):
                return member
        raise ValueError(
            f"unknown inclusion policy {value!r}; use one of "
            f"{[m.name.lower() for m in InclusionPolicy]}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of a single cache level.

    Attributes:
        size_bytes: total capacity in bytes.
        assoc: number of ways per set
            (``size_bytes = num_sets * assoc * block_size``).
        block_size: line size in bytes.
        policy: replacement policy name (see ``repro.cache.policies``).
        write_policy: allocation behaviour for write misses.
        index_function: block -> set mapping scheme.
        name: label used in reports ("L1", "L2", ...).

    >>> from repro import CacheConfig
    >>> config = CacheConfig(size_bytes=32 * 1024, assoc=8,
    ...                      block_size=64, policy="plru")
    >>> config.num_sets
    64
    >>> config.index_of(130)
    2
    """

    size_bytes: int
    assoc: int
    block_size: int = 64
    policy: str = "lru"
    write_policy: WritePolicy = WritePolicy.WRITE_ALLOCATE
    index_function: "IndexFunction" = None  # type: ignore[assignment]
    name: str = "L1"

    def __post_init__(self):
        if self.index_function is None:
            object.__setattr__(self, "index_function",
                               IndexFunction.MODULO)
        if self.size_bytes % (self.assoc * self.block_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*block_size = {self.assoc * self.block_size}"
            )
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        if (self.index_function is IndexFunction.XOR_FOLD
                and self.num_sets & (self.num_sets - 1)):
            raise ValueError("XOR-fold indexing needs a power-of-two "
                             "number of sets")

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.assoc * self.block_size)

    def index_of(self, block: int) -> int:
        """Cache set a memory block maps to."""
        if self.index_function is IndexFunction.MODULO:
            return block % self.num_sets
        # XOR-fold: fold the block number into index-width bit groups.
        sets = self.num_sets
        if sets == 1:
            # A single set has index width 0; the folding loop below
            # would never shift ``value`` and spin forever.
            return 0
        width = sets.bit_length() - 1
        value = block if block >= 0 else -block
        index = 0
        while value:
            index ^= value & (sets - 1)
            value >>= width
        return index

    @staticmethod
    def fully_associative(size_bytes: int, block_size: int = 64,
                          policy: str = "lru", name: str = "L1") -> "CacheConfig":
        """A fully-associative cache of the given capacity."""
        assoc = size_bytes // block_size
        return CacheConfig(size_bytes, assoc, block_size, policy, name=name)


@dataclass(frozen=True)
class ShardedCacheConfig(CacheConfig):
    """One shard of a modulo-indexed cache level (set sharding).

    Cache sets never interact, so a simulation can be partitioned by
    cache set: shard ``r`` of ``K`` owns the memory blocks with
    ``block % K == r``, which under modulo placement is a union of
    every ``K``-th cache set.  The shard behaves exactly like the
    corresponding sets of the full cache: it has ``num_sets / K`` sets
    and maps an owned block to set ``(block // K) % (num_sets / K)``,
    which is a bijective renumbering of the full cache's sets
    ``r, r + K, r + 2K, ...`` — the per-set access sequences (and hence
    hit/miss counts) are identical to the full simulation's.

    ``size_bytes``/``assoc``/``block_size`` describe the FULL level;
    :attr:`num_sets` reports the shard's share.  Only ``MODULO``
    indexing is shardable (hashed indexing does not refine into
    residue classes); ``shard_modulus`` must divide the full set count.

    Use :meth:`of` to shard an existing level config, or
    :func:`shard_target_config` for whole cache/hierarchy configs.
    """

    shard_modulus: int = 1
    shard_residue: int = 0

    def __post_init__(self):
        if self.shard_modulus < 1:
            raise ValueError("shard_modulus must be >= 1")
        if not 0 <= self.shard_residue < self.shard_modulus:
            raise ValueError(
                f"shard_residue {self.shard_residue} outside "
                f"[0, {self.shard_modulus})")
        super().__post_init__()
        if self.index_function is not IndexFunction.MODULO:
            raise ValueError("set sharding requires modulo placement")
        full_sets = self.size_bytes // (self.assoc * self.block_size)
        if full_sets % self.shard_modulus != 0:
            raise ValueError(
                f"{self.name}: shard modulus {self.shard_modulus} does "
                f"not divide the set count {full_sets}")

    @property
    def num_sets(self) -> int:
        """Number of cache sets owned by this shard."""
        full = self.size_bytes // (self.assoc * self.block_size)
        return full // self.shard_modulus

    def index_of(self, block: int) -> int:
        """Shard-local set index of an owned block.

        Only blocks with ``block % shard_modulus == shard_residue``
        belong to this shard; the caller filters the access stream.
        """
        return (block // self.shard_modulus) % self.num_sets

    def representative_block(self, index: int) -> int:
        """Some owned memory block mapping to shard set ``index``."""
        return index * self.shard_modulus + self.shard_residue

    @staticmethod
    def of(config: CacheConfig, modulus: int,
           residue: int) -> "ShardedCacheConfig":
        """The ``residue``-th of ``modulus`` shards of a level config."""
        return ShardedCacheConfig(
            config.size_bytes, config.assoc, config.block_size,
            config.policy, config.write_policy, config.index_function,
            config.name, modulus, residue)


def shardable_ways(config: Union[CacheConfig, "HierarchyConfig"],
                   requested: int) -> int:
    """Largest feasible shard count ``K <= requested`` for a config.

    ``K`` must divide every level's set count (the innermost level has
    the fewest sets, and every outer count is a multiple of it, so
    dividing the minimum suffices) and every level must use modulo
    placement.  Returns 1 when sharding is not applicable.
    """
    levels = (config.levels if isinstance(config, HierarchyConfig)
              else (config,))
    if requested < 2:
        return 1
    for level in levels:
        if level.index_function is not IndexFunction.MODULO:
            return 1
        if isinstance(level, ShardedCacheConfig):
            return 1  # already a shard: do not shard twice
    base = min(level.num_sets for level in levels)
    k = min(requested, base)
    while base % k:
        k -= 1
    return k


def shard_target_config(config: Union[CacheConfig, "HierarchyConfig"],
                        modulus: int, residue: int):
    """Shard a cache or hierarchy config (every level consistently)."""
    if isinstance(config, HierarchyConfig):
        return HierarchyConfig(
            levels=tuple(ShardedCacheConfig.of(level, modulus, residue)
                         for level in config.levels),
            inclusion=config.inclusion)
    return ShardedCacheConfig.of(config, modulus, residue)


@dataclass(frozen=True, init=False)
class HierarchyConfig:
    """An N-level cache hierarchy (paper Sec. 2.3, generalised).

    ``levels`` orders the caches from the innermost (L1) outwards; the
    shared rotation-symmetry constraint of appendix A.2 must hold for
    every adjacent pair (the outer level's set count is a multiple of
    the inner one's).  ``inclusion`` selects how adjacent levels relate
    (see :class:`InclusionPolicy`); the paper's implementation is NINE.

    Back-compatible constructors::

        HierarchyConfig(l1_cfg, l2_cfg)              # legacy two-level
        HierarchyConfig(l1=l1_cfg, l2=l2_cfg)        # legacy keywords
        HierarchyConfig(l1_cfg, l2_cfg, l3_cfg)      # N positional levels
        HierarchyConfig(levels=(a, b, c),
                        inclusion=InclusionPolicy.INCLUSIVE)

    >>> from repro import CacheConfig, HierarchyConfig
    >>> config = HierarchyConfig(
    ...     levels=(CacheConfig(32 * 1024, 8, 64, "plru", name="L1"),
    ...             CacheConfig(1024 * 1024, 16, 64, "qlru", name="L2")),
    ...     inclusion="nine")
    >>> (config.depth, config.block_size, config.l2.name)
    (2, 64, 'L2')
    """

    levels: Tuple[CacheConfig, ...]
    inclusion: InclusionPolicy = InclusionPolicy.NINE

    def __init__(self, *args,
                 levels: Optional[Sequence[CacheConfig]] = None,
                 inclusion: Union[InclusionPolicy, str, None] = None,
                 l1: Optional[CacheConfig] = None,
                 l2: Optional[CacheConfig] = None):
        if levels is not None:
            if args or l1 is not None or l2 is not None:
                raise TypeError("pass either 'levels' or individual "
                                "level configs, not both")
            configs = list(levels)
        elif len(args) == 1 and isinstance(args[0], (list, tuple)):
            if l1 is not None or l2 is not None:
                raise TypeError("pass either a level sequence or "
                                "l1/l2 keywords, not both")
            configs = list(args[0])
        else:
            configs = list(args)
            if l1 is not None:
                if configs:
                    raise TypeError("level L1 given both positionally "
                                    "and as a keyword")
                configs.append(l1)
            if l2 is not None:
                if len(configs) != 1:
                    raise TypeError("keyword 'l2' needs exactly one "
                                    "preceding level")
                configs.append(l2)
        object.__setattr__(self, "levels", tuple(configs))
        object.__setattr__(self, "inclusion",
                           InclusionPolicy.parse(inclusion))
        self._validate()

    def _validate(self) -> None:
        if len(self.levels) < 2:
            raise ValueError("a hierarchy needs at least two levels "
                             "(use a bare CacheConfig for one)")
        for level in self.levels:
            if not isinstance(level, CacheConfig):
                raise TypeError(f"hierarchy levels must be CacheConfig, "
                                f"got {type(level).__name__}")
        # Positional labels: configs may all carry the default name.
        block_size = self.levels[0].block_size
        for number, level in enumerate(self.levels[1:], start=2):
            if level.block_size != block_size:
                raise ValueError(
                    f"all hierarchy levels must share a block size "
                    f"(L1 has {block_size}, L{number} has "
                    f"{level.block_size})")
        for number, (inner, outer) in enumerate(
                zip(self.levels, self.levels[1:]), start=1):
            if outer.num_sets % inner.num_sets != 0:
                raise ValueError(
                    f"L{number + 1} set count ({outer.num_sets}) must "
                    f"be a multiple of the L{number} set count "
                    f"({inner.num_sets}) — required for the shared "
                    f"rotation symmetry, cf. appendix A.2")

    @property
    def depth(self) -> int:
        """Number of cache levels."""
        return len(self.levels)

    @property
    def block_size(self) -> int:
        """The (shared) block size of all levels."""
        return self.levels[0].block_size

    @property
    def l1(self) -> CacheConfig:
        return self.levels[0]

    @property
    def l2(self) -> CacheConfig:
        return self.levels[1]

    def level(self, index: int) -> CacheConfig:
        """The config of level ``index`` (0-based: 0 is the L1)."""
        return self.levels[index]

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


def test_system_l1(policy: str = "plru") -> CacheConfig:
    """The paper's test system L1: 32 KiB, 8-way, 64-byte blocks."""
    return CacheConfig(32 * 1024, 8, 64, policy, name="L1")


def test_system_l2(policy: str = "qlru") -> CacheConfig:
    """The paper's test system L2: 1 MiB, 16-way, 64-byte blocks."""
    return CacheConfig(1024 * 1024, 16, 64, policy, name="L2")


def test_system_l3(policy: str = "qlru") -> CacheConfig:
    """A paper-style L3: 8 MiB, 16-way, 64-byte blocks.

    The paper's Cascade Lake test system has a sliced last-level cache;
    this models its capacity class with modulo placement so the shared
    rotation symmetry (and hence warping) extends to depth 3.
    """
    return CacheConfig(8 * 1024 * 1024, 16, 64, policy, name="L3")


def test_system_hierarchy(
        depth: int = 2,
        inclusion: Union[InclusionPolicy, str] = InclusionPolicy.NINE
) -> HierarchyConfig:
    """The paper-style test system at hierarchy depth 2 or 3."""
    if not 2 <= depth <= 3:
        raise ValueError("test system depth must be 2 or 3")
    levels = (test_system_l1(), test_system_l2(), test_system_l3())
    return HierarchyConfig(levels=levels[:depth], inclusion=inclusion)


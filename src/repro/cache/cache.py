"""Cache sets and set-associative caches (paper Sections 2.1-2.2).

The contents stored in cache lines are opaque hashable values.  Concrete
simulation stores integer block numbers; the symbolic simulator
(:mod:`repro.simulation.symbolic`) keeps the same per-set layout
(``lines`` plus ``policy_state``) and stores each line's symbol beside
it — data independence guarantees the policy behaves identically either
way, and the shared layout lets one innermost-loop executor
(:mod:`repro.simulation.executor`) update both kinds of set.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Tuple

from repro.cache.config import CacheConfig, WritePolicy
from repro.cache.policies import ReplacementPolicy, policy_by_name


class CacheSetState:
    """Mutable state of one cache set: line contents + policy state.

    ``lines[l]`` is the block stored in line ``l`` (None = empty).
    """

    __slots__ = ("assoc", "lines", "policy_state")

    def __init__(self, assoc: int, policy: ReplacementPolicy):
        self.assoc = assoc
        self.lines: List[Optional[Hashable]] = [None] * assoc
        self.policy_state = policy.initial_state(assoc)

    def lookup(self, block: Hashable) -> Optional[int]:
        """Line index holding ``block``, or None (ClSet, Eq. 1)."""
        try:
            return self.lines.index(block)
        except ValueError:
            return None

    def access(self, policy: ReplacementPolicy, block: Hashable,
               allocate: bool = True) -> Tuple[bool, Optional[int]]:
        """UpSet+ClSet: access ``block``, return (hit, filled/hit line).

        With ``allocate=False`` (write miss under no-write-allocate) the
        set state is left unchanged on a miss and the line is None.
        """
        line = self.lookup(block)
        if line is not None:
            self.policy_state = policy.on_hit(self.policy_state,
                                              self.assoc, line)
            return True, line
        if not allocate:
            return False, None
        occupied = [content is not None for content in self.lines]
        line, self.policy_state = policy.on_miss(self.policy_state,
                                                 self.assoc, occupied)
        self.lines[line] = block
        return False, line

    def clone(self) -> "CacheSetState":
        copy = CacheSetState.__new__(CacheSetState)
        copy.assoc = self.assoc
        copy.lines = list(self.lines)
        copy.policy_state = self.policy_state
        return copy

    def map_contents(self, fn: Callable[[Hashable], Hashable]) -> None:
        """Apply a renaming to the stored blocks (a bijection pi)."""
        self.lines = [None if b is None else fn(b) for b in self.lines]

    def contents_key(self) -> Tuple:
        """Hashable snapshot (contents + policy state)."""
        return (tuple(self.lines), self.policy_state)

    def __repr__(self) -> str:
        return f"CacheSetState({self.lines}, ps={self.policy_state})"


class Cache:
    """A set-associative cache with modulo placement.

    Implements ``ClCache``/``UpCache`` (Eqs. 3-4).  Counts hits and
    misses; classification does not distinguish reads from writes except
    for allocation under :class:`WritePolicy`.

    >>> from repro import Cache, CacheConfig
    >>> cache = Cache(CacheConfig(size_bytes=256, assoc=2,
    ...                           block_size=32, policy="lru"))
    >>> cache.access(0), cache.access(0), cache.access(4)
    (False, True, False)
    >>> (cache.hits, cache.misses, cache.contains(4))
    (1, 2, True)
    """

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None):
        self.config = config
        self.policy = policy or policy_by_name(config.policy)
        self.sets: List[CacheSetState] = [
            CacheSetState(config.assoc, self.policy)
            for _ in range(config.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    # -- core transitions ------------------------------------------------------

    def access(self, block: int, is_write: bool = False) -> bool:
        """Access a memory block; returns True on hit, updates counters."""
        allocate = (not is_write
                    or self.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = self.config.index_of(block)
        hit, _ = self.sets[index].access(self.policy, block, allocate)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def contains(self, block: int) -> bool:
        """ClCache without updating any state."""
        index = self.config.index_of(block)
        return self.sets[index].lookup(block) is not None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    # -- state management -------------------------------------------------------

    def reset(self) -> None:
        """Flush contents and counters."""
        self.sets = [CacheSetState(self.config.assoc, self.policy)
                     for _ in range(self.config.num_sets)]
        self.hits = 0
        self.misses = 0

    def clone(self) -> "Cache":
        copy = Cache.__new__(Cache)
        copy.config = self.config
        copy.policy = self.policy
        copy.sets = [s.clone() for s in self.sets]
        copy.hits = self.hits
        copy.misses = self.misses
        return copy

    def state_key(self) -> Tuple:
        """Hashable snapshot of the full cache state (for tests)."""
        return tuple(s.contents_key() for s in self.sets)

    def apply_bijection(self, pi: Callable[[int], int]) -> "Cache":
        """Apply a total block bijection pi preserving the set partition.

        Implements Eq. 5: the set bijection pi_Set induced by ``pi`` is
        derived from a representative block of each set, contents move
        accordingly, and policy states travel with their set.  Raises if
        ``pi`` does not preserve the partition on the stored blocks.
        Used by tests of Theorem 1 and by concrete warping.
        """
        num_sets = self.config.num_sets
        copy = self.clone()
        new_sets: List[Optional[CacheSetState]] = [None] * num_sets
        for index, set_state in enumerate(self.sets):
            representative = self._representative_block(index)
            target = self.config.index_of(pi(representative))
            mapped = set_state.clone()
            for line, block in enumerate(set_state.lines):
                if block is None:
                    continue
                image = pi(block)
                if self.config.index_of(image) != target:
                    raise ValueError(
                        "bijection does not preserve the set partition"
                    )
                mapped.lines[line] = image
            if new_sets[target] is not None:
                raise ValueError("bijection maps two sets onto one")
            new_sets[target] = mapped
        copy.sets = new_sets  # type: ignore[assignment]
        return copy

    def _representative_block(self, index: int) -> int:
        """Some memory block mapping to cache set ``index``."""
        from repro.cache.config import IndexFunction

        rep = getattr(self.config, "representative_block", None)
        if rep is not None:
            return rep(index)
        if self.config.index_function is IndexFunction.MODULO:
            return index
        for candidate in range(4 * self.config.num_sets):
            if self.config.index_of(candidate) == index:
                return candidate
        raise ValueError(f"no representative found for set {index}")

    def __repr__(self) -> str:
        cfg = self.config
        return (f"Cache({cfg.name}: {cfg.size_bytes}B, {cfg.num_sets}x"
                f"{cfg.assoc}way, {cfg.block_size}B lines, "
                f"{self.policy.name}, hits={self.hits}, misses={self.misses})")

"""N-level cache hierarchies (Sec. 2.3, A.2).

The paper's implementation supports the **non-inclusive non-exclusive**
(NINE) inclusion policy: the levels evolve independently — an access
updates the innermost cache; only on a miss is the next level accessed
and updated (Eq. 24).  Nothing is ever forced out of (or into) any
level to maintain inclusion, which is exactly why data independence
lifts to the whole hierarchy (Corollary 5).

The paper notes that "inclusive and exclusive cache hierarchies also
satisfy data independence and could be captured in a similar manner";
this module captures them too, for any number of levels:

* **inclusive**: an eviction at level k back-invalidates the block in
  every level closer to the core (each level's contents stay a subset
  of the next level's);
* **exclusive**: the outer levels act as victim caches — blocks enter
  level k+1 only when evicted from level k, and a hit at an outer level
  *moves* the block back to the L1 (at most one level holds a block at
  a time).

All three policies are bijection-compatible (``apply_bijection``), so
they remain warpable.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.config import (
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)

__all__ = ["CacheHierarchy", "InclusionPolicy"]


class CacheHierarchy:
    """An N-level hierarchy under a configurable inclusion policy.

    >>> from repro import CacheConfig, CacheHierarchy, HierarchyConfig
    >>> hierarchy = CacheHierarchy(HierarchyConfig(
    ...     CacheConfig(256, 2, 32, "lru", name="L1"),
    ...     CacheConfig(1024, 4, 32, "lru", name="L2")))
    >>> hierarchy.access(0)     # cold: misses in both levels
    (False, False)
    >>> hierarchy.access(0)     # L1 hit: the L2 is not consulted
    (True, None)
    >>> hierarchy.level_misses
    (1, 1)
    """

    def __init__(self, config: HierarchyConfig,
                 inclusion: Optional[InclusionPolicy] = None):
        self.config = config
        self.inclusion = (InclusionPolicy.parse(inclusion)
                          if inclusion is not None
                          else config.inclusion)
        self.levels: List[Cache] = [Cache(cfg) for cfg in config.levels]
        # The dominant access outcome; precomputed so the hot L1-hit
        # path allocates nothing.
        self._l1_hit_outcome: Tuple[Optional[bool], ...] = \
            (True,) + (None,) * (len(self.levels) - 1)

    # -- level accessors (legacy two-level names kept) --------------------------

    @property
    def l1(self) -> Cache:
        return self.levels[0]

    @property
    def l2(self) -> Cache:
        return self.levels[1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def access(self, block: int, is_write: bool = False
               ) -> Tuple[Optional[bool], ...]:
        """Access a block; returns one hit flag per level.

        Entry ``k`` is True/False when level k was consulted and None
        when it was not (a shallower level hit, or — under exclusion —
        the block was found before reaching it).  For two-level
        hierarchies this is the legacy ``(l1_hit, l2_hit or None)``
        pair.  A write miss under a no-write-allocate level propagates
        to the next level, where that level's write policy applies.
        """
        if self.inclusion is InclusionPolicy.NINE:
            return self._access_nine(block, is_write)
        if self.inclusion is InclusionPolicy.INCLUSIVE:
            return self._access_inclusive(block, is_write)
        return self._access_exclusive(block, is_write)

    @staticmethod
    def _peek_victim(cache: Cache, set_state) -> Optional[int]:
        """The block the next allocation in ``set_state`` would evict."""
        victim_line, _ = cache.policy.table(set_state.assoc).after_miss(
            set_state.policy_state, set_state.lines)
        return set_state.lines[victim_line]

    def _lookup_and_update(self, level_index: int, block: int,
                           is_write: bool, capture_victim: bool = False):
        """One level's access; returns (hit, evicted block or None).

        The victim peek costs a second replacement-policy query per
        allocating miss, so it is only performed when the inclusion
        policy needs the victim (``capture_victim``).
        """
        cache = self.levels[level_index]
        allocate = (not is_write
                    or cache.config.write_policy
                    is WritePolicy.WRITE_ALLOCATE)
        set_state = cache.sets[cache.config.index_of(block)]
        victim = None
        if (capture_victim and allocate
                and set_state.lookup(block) is None):
            victim = self._peek_victim(cache, set_state)
        hit, _ = set_state.access(cache.policy, block, allocate)
        if hit:
            cache.hits += 1
        else:
            cache.misses += 1
        return hit, victim

    def _access_nine(self, block: int, is_write: bool):
        hit, _ = self._lookup_and_update(0, block, is_write)
        if hit:
            return self._l1_hit_outcome
        outcomes: List[Optional[bool]] = [False] + \
            [None] * (self.depth - 1)
        for index in range(1, self.depth):
            hit, _ = self._lookup_and_update(index, block, is_write)
            outcomes[index] = hit
            if hit:
                break
        return tuple(outcomes)

    def _access_inclusive(self, block: int, is_write: bool):
        # A miss descends; an eviction at level k back-invalidates the
        # victim in every level closer to the core.  (The L1's own
        # victim is irrelevant, so it is not captured.)
        hit, _ = self._lookup_and_update(0, block, is_write)
        if hit:
            return self._l1_hit_outcome
        outcomes: List[Optional[bool]] = [False] + \
            [None] * (self.depth - 1)
        for index in range(1, self.depth):
            hit, victim = self._lookup_and_update(
                index, block, is_write, capture_victim=True)
            outcomes[index] = hit
            if not hit and victim is not None:
                for shallower in self.levels[:index]:
                    self._invalidate(shallower, victim)
            if hit:
                break
        return tuple(outcomes)

    def _access_exclusive(self, block: int, is_write: bool):
        hit1, victim = self._lookup_and_update(0, block, is_write,
                                               capture_victim=True)
        if hit1:
            return self._l1_hit_outcome
        outcomes: List[Optional[bool]] = [False] + \
            [None] * (self.depth - 1)
        # Search outwards; a hit *moves* the block out of that level (it
        # now lives in the L1 only), so levels beyond it stay untouched.
        for index in range(1, self.depth):
            cache = self.levels[index]
            set_state = cache.sets[cache.config.index_of(block)]
            line = set_state.lookup(block)
            if line is not None:
                cache.hits += 1
                set_state.lines[line] = None
                outcomes[index] = True
                break
            cache.misses += 1
            outcomes[index] = False
        # The L1 victim spills into the L2; the spill's victim cascades
        # into the L3 and so on (the last level's victim leaves the
        # hierarchy).  Spills never re-read the block, and they are not
        # demand accesses, so they do not touch the hit/miss counters.
        for index in range(1, self.depth):
            if victim is None:
                break
            victim = self._spill(index, victim)
        return tuple(outcomes)

    def _spill(self, level_index: int, block: int) -> Optional[int]:
        """Insert an evicted block into a victim level; returns its victim."""
        cache = self.levels[level_index]
        set_state = cache.sets[cache.config.index_of(block)]
        victim = None
        if set_state.lookup(block) is None:
            victim = self._peek_victim(cache, set_state)
        set_state.access(cache.policy, block, True)
        return victim

    def _invalidate(self, cache: Cache, block: int) -> None:
        set_state = cache.sets[cache.config.index_of(block)]
        line = set_state.lookup(block)
        if line is not None:
            set_state.lines[line] = None

    @property
    def l1_misses(self) -> int:
        return self.levels[0].misses

    @property
    def l2_misses(self) -> int:
        return self.levels[1].misses

    @property
    def level_misses(self) -> Tuple[int, ...]:
        """Per-level miss counts, innermost first."""
        return tuple(cache.misses for cache in self.levels)

    @property
    def accesses(self) -> int:
        return self.levels[0].accesses

    def reset(self) -> None:
        for cache in self.levels:
            cache.reset()

    def clone(self) -> "CacheHierarchy":
        copy = CacheHierarchy.__new__(CacheHierarchy)
        copy.config = self.config
        copy.inclusion = self.inclusion
        copy.levels = [cache.clone() for cache in self.levels]
        copy._l1_hit_outcome = self._l1_hit_outcome
        return copy

    def state_key(self) -> Tuple:
        return tuple(cache.state_key() for cache in self.levels)

    def apply_bijection(self, pi: Callable[[int], int]) -> "CacheHierarchy":
        """Apply a block bijection to every level (Corollary 5)."""
        copy = CacheHierarchy.__new__(CacheHierarchy)
        copy.config = self.config
        copy.inclusion = self.inclusion
        copy.levels = [cache.apply_bijection(pi) for cache in self.levels]
        copy._l1_hit_outcome = self._l1_hit_outcome
        return copy

    def __repr__(self) -> str:
        inner = ", ".join(f"{cache.config.name}={cache!r}"
                          for cache in self.levels)
        return f"CacheHierarchy({inner})"

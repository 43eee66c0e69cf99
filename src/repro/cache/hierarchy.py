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

from typing import Callable, Hashable, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.config import (
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)

__all__ = ["CacheHierarchy", "InclusionPolicy"]


class CacheHierarchy:
    """An N-level hierarchy under a configurable inclusion policy.

    The only implementation of the three inclusion descents, for
    concrete and symbolic levels alike: ``cache_class`` chooses the level
    type, and each access's symbol travels down with its block (an
    exclusive spill carries the victim's symbol along).

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

    #: The type of each level (symbolic hierarchies keep symbols).
    cache_class = Cache

    def __init__(self, config: HierarchyConfig,
                 inclusion: Optional[InclusionPolicy] = None):
        self.config = config
        self.inclusion = (InclusionPolicy.parse(inclusion)
                          if inclusion is not None
                          else config.inclusion)
        self.levels: List[Cache] = [self.cache_class(cfg)
                                    for cfg in config.levels]
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

    def access(self, block: int, is_write: bool = False,
               sym: Hashable = None) -> Tuple[Optional[bool], ...]:
        """Access a block; returns one hit flag per level.

        Entry ``k`` is True/False when level k was consulted and None
        when it was not (a shallower level hit, or — under exclusion —
        the block was found before reaching it).  For two-level
        hierarchies this is the legacy ``(l1_hit, l2_hit or None)``
        pair.  A write miss under a no-write-allocate level propagates
        to the next level, where that level's write policy applies.
        ``sym`` is the access's symbol, kept by symbolic levels only.
        """
        if self.inclusion is InclusionPolicy.EXCLUSIVE:
            return self._access_exclusive(block, is_write, sym)
        return self._access_descend(block, is_write, sym)

    @staticmethod
    def _peek_victim(cache: Cache, set_state) -> Optional[Tuple]:
        """The ``(block, symbol)`` the next allocation in ``set_state``
        would evict, or None when it fills an empty way."""
        victim_line, _ = cache.policy.table(set_state.assoc).after_miss(
            set_state.policy_state, set_state.lines)
        if set_state.lines[victim_line] is None:
            return None
        return set_state.lines[victim_line], set_state.symbol(victim_line)

    def _access_capture(self, cache: Cache, block: int, is_write: bool,
                        sym) -> Tuple[bool, Optional[Tuple]]:
        """``cache.access`` that also returns the ``(block, symbol)`` it
        evicted, or None.

        The victim peek costs a second replacement-policy query per
        allocating miss, so only the inclusion policies that need the
        victim pay for it.  The set it looked up is updated here rather
        than through ``cache.access``, which would look it up again.
        """
        allocate = (not is_write
                    or cache.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = cache.mru_set = cache.config.index_of(block)
        set_state = cache.sets[index]
        victim = None
        if allocate and block not in set_state.lines:
            victim = self._peek_victim(cache, set_state)
        hit, _ = set_state.access(cache.policy, block, allocate, sym)
        if hit:
            cache.hits += 1
        else:
            cache.misses += 1
        return hit, victim

    def _access_descend(self, block: int, is_write: bool, sym):
        # NINE and inclusive: a miss descends until a level hits.  Under
        # inclusion an eviction at level k also back-invalidates the
        # victim in every level closer to the core.  (The L1's own
        # victim is irrelevant, so it is not captured.)
        levels = self.levels
        if levels[0].access(block, is_write, sym):
            return self._l1_hit_outcome
        inclusive = self.inclusion is InclusionPolicy.INCLUSIVE
        outcomes: List[Optional[bool]] = [False] + \
            [None] * (self.depth - 1)
        for index in range(1, self.depth):
            if inclusive:
                hit, victim = self._access_capture(levels[index], block,
                                                   is_write, sym)
                if victim is not None:
                    for shallower in levels[:index]:
                        self._invalidate(shallower, victim[0])
            else:
                hit = levels[index].access(block, is_write, sym)
            outcomes[index] = hit
            if hit:
                break
        return tuple(outcomes)

    def _access_exclusive(self, block: int, is_write: bool, sym):
        hit1, victim = self._access_capture(self.levels[0], block,
                                            is_write, sym)
        if hit1:
            return self._l1_hit_outcome
        outcomes: List[Optional[bool]] = [False] + \
            [None] * (self.depth - 1)
        # Search outwards; a hit *moves* the block out of that level (it
        # now lives in the L1 only), so levels beyond it stay untouched.
        for index in range(1, self.depth):
            cache = self.levels[index]
            cache.mru_set = cache.config.index_of(block)
            set_state = cache.sets[cache.mru_set]
            line = set_state.lookup(block)
            if line is not None:
                cache.hits += 1
                set_state.empty(line)
                outcomes[index] = True
                break
            cache.misses += 1
            outcomes[index] = False
        # The L1 victim spills into the L2 with its symbol; the spill's
        # victim cascades into the L3 and so on (the last level's victim
        # leaves the hierarchy).  Spills never re-read the block, and
        # they are not demand accesses, so they do not touch the
        # hit/miss counters.
        for cache in self.levels[1:]:
            if victim is None:
                break
            victim = self._spill(cache, *victim)
        return tuple(outcomes)

    def _spill(self, cache: Cache, block: int, sym) -> Optional[Tuple]:
        """Insert an evicted entry into a victim level; returns its victim."""
        cache.mru_set = cache.config.index_of(block)
        set_state = cache.sets[cache.mru_set]
        victim = None
        if block not in set_state.lines:
            victim = self._peek_victim(cache, set_state)
        set_state.access(cache.policy, block, True, sym)
        return victim

    @staticmethod
    def _invalidate(cache: Cache, block: int) -> None:
        set_state = cache.sets[cache.config.index_of(block)]
        line = set_state.lookup(block)
        if line is not None:
            set_state.empty(line)

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
        copy = type(self).__new__(type(self))
        copy.config = self.config
        copy.inclusion = self.inclusion
        copy.levels = [cache.clone() for cache in self.levels]
        copy._l1_hit_outcome = self._l1_hit_outcome
        return copy

    def state_key(self) -> Tuple:
        return tuple(cache.state_key() for cache in self.levels)

    def apply_bijection(self, pi: Callable[[int], int]) -> "CacheHierarchy":
        """Apply a block bijection to every level (Corollary 5)."""
        copy = type(self).__new__(type(self))
        copy.config = self.config
        copy.inclusion = self.inclusion
        copy.levels = [cache.apply_bijection(pi) for cache in self.levels]
        copy._l1_hit_outcome = self._l1_hit_outcome
        return copy

    def __repr__(self) -> str:
        inner = ", ".join(f"{cache.config.name}={cache!r}"
                          for cache in self.levels)
        return f"CacheHierarchy({inner})"

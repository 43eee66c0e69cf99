"""Cache sets and set-associative caches (paper Sections 2.1-2.2).

The contents stored in cache lines are opaque hashable values; concrete
simulation stores integer block numbers.  There is one cache model: the
symbolic cache of :mod:`repro.simulation.symbolic` is this cache whose
sets also keep each way's symbol (``Cache.set_class`` chooses the set
type), which is appendix A.3's constructive ``SymUpCache`` — a concrete
update followed by re-symbolisation.  Data independence guarantees the
policy behaves identically either way, and the shared layout (``lines``
plus ``policy_state``) lets one innermost-loop executor
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
        if block in self.lines:
            return self.lines.index(block)
        return None

    def access(self, policy: ReplacementPolicy, block: Hashable,
               allocate: bool = True,
               sym: Hashable = None) -> Tuple[bool, Optional[int]]:
        """UpSet+ClSet: access ``block``, return (hit, filled/hit line).

        With ``allocate=False`` (write miss under no-write-allocate) the
        set state is left unchanged on a miss and the line is None.
        The policy transition is a lookup in ``policy.table(assoc)``.
        ``sym`` is the access's symbol; a concrete set keeps none.
        """
        lines = self.lines
        try:
            line = lines.index(block)
        except ValueError:
            if not allocate:
                return False, None
            line, self.policy_state = policy.table(self.assoc).after_miss(
                self.policy_state, lines)
            lines[line] = block
            return False, line
        self.policy_state = policy.table(self.assoc).after_hit(
            self.policy_state, line)
        return True, line

    def empty(self, line: int) -> None:
        """Empty way ``line``, leaving the policy state alone: inclusive
        back-invalidation and exclusive extraction."""
        self.lines[line] = None

    def symbol(self, line: int) -> None:
        """The symbol of way ``line``; a concrete set keeps none."""
        return None

    def clone(self) -> "CacheSetState":
        copy = CacheSetState.__new__(CacheSetState)
        copy.assoc = self.assoc
        copy.lines = list(self.lines)
        copy.policy_state = self.policy_state
        return copy

    def contents_key(self) -> Tuple:
        """Hashable snapshot (contents + policy state)."""
        return (tuple(self.lines), self.policy_state)

    def __repr__(self) -> str:
        return f"CacheSetState({self.lines}, ps={self.policy_state})"


class Cache:
    """A set-associative cache with modulo placement.

    Implements ``ClCache``/``UpCache`` (Eqs. 3-4).  Counts hits and
    misses; classification does not distinguish reads from writes except
    for allocation under :class:`WritePolicy`.  ``mru_set`` is the set
    of the most recent access (the symbolic cache's snapshot keys start
    hashing there).

    >>> from repro import Cache, CacheConfig
    >>> cache = Cache(CacheConfig(size_bytes=256, assoc=2,
    ...                           block_size=32, policy="lru"))
    >>> cache.access(0), cache.access(0), cache.access(4)
    (False, True, False)
    >>> (cache.hits, cache.misses, cache.contains(4))
    (1, 2, True)
    """

    #: The type of each set (a symbolic cache's sets also keep symbols).
    set_class = CacheSetState

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None):
        self.config = config
        self.policy = policy or policy_by_name(config.policy)
        self.reset()

    # -- core transitions ------------------------------------------------------

    def access(self, block: int, is_write: bool = False,
               sym: Hashable = None) -> bool:
        """Access a memory block; returns True on hit, updates counters.

        ``sym`` is the access's symbol, kept by symbolic sets only."""
        allocate = (not is_write
                    or self.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = self.config.index_of(block)
        self.mru_set = index
        hit, _ = self.sets[index].access(self.policy, block, allocate, sym)
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
        self.sets: List[CacheSetState] = [
            self.set_class(self.config.assoc, self.policy)
            for _ in range(self.config.num_sets)]
        self.mru_set = 0
        self.hits = 0
        self.misses = 0

    def clone(self) -> "Cache":
        copy = type(self).__new__(type(self))
        copy.config = self.config
        copy.policy = self.policy
        copy.sets = [s.clone() for s in self.sets]
        copy.mru_set = self.mru_set
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
        accordingly, and policy states and ``mru_set`` travel with their
        set.  Raises if ``pi`` does not preserve the partition on the
        stored blocks.  Used by tests of Theorem 1 and by concrete
        warping.  A symbolic cache's symbols travel with their ways
        unchanged (it warps with ``apply_rotation``, which shifts them).
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
            if index == self.mru_set:
                copy.mru_set = target
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

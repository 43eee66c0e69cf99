"""Symbolic cache states (paper Section 5.2).

A *symbolic memory block* is represented as the pair
``(access_node, point)`` — the access node whose access function produced
the block and the (absolute) iteration point of the most recent access
that filled/refreshed the line.  Interpreting such a symbol at a shifted
iteration point yields the shifted concrete block, which is exactly the
concretisation function gamma of the paper:

    gamma((node, point), shift) = node.block_at(point + shift)

Storing *absolute* points makes iterator advancement free (the paper's
"determine the updated symbolic cache state only on demand", footnote 2):
relative offsets are only materialised when a loop node hashes the state.

The symbolic cache performs concrete updates under the hood (appendix A.3's
constructive ``SymUpCache``): lines additionally store the concrete block
for lookup, so hit/miss classification is exact while symbols ride along
for match detection.
"""

from __future__ import annotations

from operator import add
from typing import List, Optional, Tuple

from repro import obs
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.cache.policies import ReplacementPolicy, policy_by_name
from repro.polyhedral.model import AccessNode

#: A symbolic memory block: (access node, absolute iteration point).
SymBlock = Tuple[AccessNode, Tuple[int, ...]]


class SymbolicSetState:
    """One cache set holding concrete blocks and their symbols.

    ``lines[l]`` is the concrete block in way ``l`` (None = empty), the
    same layout as :class:`repro.cache.cache.CacheSetState`; ``syms[l]``
    is its symbol.
    """

    __slots__ = ("assoc", "lines", "syms", "policy_state", "version",
                 "_key_cache")

    def __init__(self, assoc: int, policy: ReplacementPolicy):
        self.assoc = assoc
        self.lines: List[Optional[int]] = [None] * assoc
        self.syms: List[Optional[SymBlock]] = [None] * assoc
        self.policy_state = policy.initial_state(assoc)
        self.version = 0
        # depth -> (version, canonical part, max own-coordinate or None)
        self._key_cache: dict = {}

    def access(self, policy: ReplacementPolicy, block: int, sym: SymBlock,
               allocate: bool) -> bool:
        """Concrete update + re-symbolisation (SymUpSet); returns hit."""
        self.version += 1
        try:
            # list.index scans at C speed — this lookup runs once per
            # simulated access and dominates the symbolic hot path.
            line = self.lines.index(block)
        except ValueError:
            if not allocate:
                return False
            line, self.policy_state = policy.table(self.assoc).after_miss(
                self.policy_state, self.lines)
            self.lines[line] = block
            self.syms[line] = sym
            return False
        self.policy_state = policy.table(self.assoc).after_hit(
            self.policy_state, line)
        self.syms[line] = sym
        return True

    def rel_key(self, depth: int) -> Tuple[int, Tuple, Optional[int]]:
        """``(version, canonical part, max own coordinate)`` of the set's
        content relative to the loop at ``depth``.

        :meth:`SymbolicCache.snapshot_key` turns it into a key relative
        to the current iteration: two set states produce equal keys
        (within one execution of the hashing loop, i.e. for a fixed
        iterator prefix) iff their symbols agree after re-basing onto the
        current iteration — the symbolic equality of Theorem 3.

        The key splits into a *canonical part* that depends only on the
        contents (cached until the set is modified, which bumps
        ``version``) and a scalar that re-bases the warped iterator:
        symbol coordinates other than the loop's own dim are kept
        absolute (the prefix is fixed within an execution; deeper
        coordinates repeat exactly across matching iterations), while
        own-dim coordinates are normalised by the set's maximum own
        coordinate, whose offset from the current iterator value becomes
        the scalar component.

        The canonical part is one flat tuple: the policy state, then per
        way either None (empty) or the node followed by its point's
        coordinates.  A node's points all have one length, so the flat
        tuple still determines every way.
        """
        own_index = depth - 1
        cached = self._key_cache.get(depth)
        if cached is not None and cached[0] == self.version:
            return cached
        syms = self.syms
        flat = [self.policy_state]
        try:
            owns = [sym[1][own_index] for sym in syms]
        except (TypeError, IndexError):
            # An empty way, or the symbol of a node outside the loop.
            owns = [sym[1][own_index] for sym in syms
                    if sym is not None and len(sym[1]) > own_index]
            max_own = max(owns) if owns else None
            for sym in syms:
                if sym is None:
                    flat.append(None)
                    continue
                node, point = sym
                flat.append(node)
                flat += point
                if len(point) > own_index:
                    flat[own_index - len(point)] -= max_own
        else:
            # Every way holds a symbol with an own coordinate.
            max_own = max(owns)
            for node, point in syms:
                flat.append(node)
                flat += point
                flat[own_index - len(point)] -= max_own
        cached = self._key_cache[depth] = (self.version, tuple(flat), max_own)
        return cached

    def clone(self) -> "SymbolicSetState":
        copy = SymbolicSetState.__new__(SymbolicSetState)
        copy.assoc = self.assoc
        copy.lines = list(self.lines)
        copy.syms = list(self.syms)
        copy.policy_state = self.policy_state
        copy.version = self.version + 1
        copy._key_cache = {}
        return copy


class SymbolicCache:
    """A set-associative cache over symbolic blocks (one level)."""

    __slots__ = ("config", "policy", "sets", "mru_set", "hits", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.policy = policy_by_name(config.policy)
        self.sets = [SymbolicSetState(config.assoc, self.policy)
                     for _ in range(config.num_sets)]
        self.mru_set = 0
        self.hits = 0
        self.misses = 0

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        allocate = (not is_write
                    or self.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = self.config.index_of(block)
        self.mru_set = index
        hit = self.sets[index].access(self.policy, block, sym, allocate)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def _peek_victim(self, set_state: SymbolicSetState):
        """The (block, sym) entry the next allocation would displace."""
        victim_line, _ = self.policy.table(set_state.assoc).after_miss(
            set_state.policy_state, set_state.lines)
        if set_state.lines[victim_line] is None:
            return None
        return (set_state.lines[victim_line],
                set_state.syms[victim_line])

    def access_capture(self, block: int, sym: SymBlock, is_write: bool):
        """Like :meth:`access`, but also returns the evicted entry.

        Returns ``(hit, victim)`` where ``victim`` is the displaced
        ``(block, sym)`` pair, or None when nothing was evicted (hit,
        non-allocating write miss, or an empty line filled).  Mirrors
        :meth:`CacheHierarchy._lookup_and_update` on the symbolic side.
        """
        allocate = (not is_write
                    or self.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        victim = None
        if allocate and block not in set_state.lines:
            victim = self._peek_victim(set_state)
        hit = set_state.access(self.policy, block, sym, allocate)
        if hit:
            self.hits += 1
            victim = None
        else:
            self.misses += 1
        return hit, victim

    def probe_extract(self, block: int) -> bool:
        """Exclusive-hierarchy lookup: a hit removes the block.

        Counts a hit or a miss; on a hit the line is cleared without
        touching the policy state (mirroring the concrete hierarchy's
        victim-cache semantics).
        """
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        for line, content in enumerate(set_state.lines):
            if content == block:
                set_state.version += 1
                set_state.lines[line] = None
                set_state.syms[line] = None
                self.hits += 1
                return True
        self.misses += 1
        return False

    def insert_victim(self, block: int, sym: SymBlock):
        """Exclusive-hierarchy spill: allocate an evicted entry here.

        Not a demand access: hit/miss counters stay untouched.  Returns
        the displaced ``(block, sym)`` pair (to cascade into the next
        level) or None.
        """
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        victim = None
        if block not in set_state.lines:
            victim = self._peek_victim(set_state)
        set_state.access(self.policy, block, sym, True)
        return victim

    def invalidate(self, block: int) -> None:
        """Inclusive-hierarchy back-invalidation: drop a block if present.

        Leaves the policy state untouched, mirroring the concrete
        hierarchy's ``_invalidate``.
        """
        set_state = self.sets[self.config.index_of(block)]
        for line, content in enumerate(set_state.lines):
            if content == block:
                set_state.version += 1
                set_state.lines[line] = None
                set_state.syms[line] = None
                return

    # -- match detection ----------------------------------------------------------

    def snapshot_key(self, depth: int, current: Tuple[int, ...]) -> Tuple:
        """Rotation-canonical state key (paper Sec. 5.3).

        Hashing starts at the most-recently-accessed set and cycles, so
        two states that are equal up to a rotation of the cache sets
        produce the same key; the rotation offset is recovered from the
        difference of the two states' ``mru_set`` values.
        """
        obs.count("sym.snapshot_keys")
        own = current[depth - 1]
        sets = self.sets
        mru = self.mru_set
        # Per set in rotation order: its canonical part, then the offset
        # of its maximum own coordinate from the current iterator value.
        key = []
        for set_state in sets[mru:] + sets[:mru]:
            cached = set_state._key_cache.get(depth)
            if cached is None or cached[0] != set_state.version:
                cached = set_state.rel_key(depth)
            key.append(cached[1])
            key.append(None if cached[2] is None else cached[2] - own)
        return tuple(key)

    # -- warping -----------------------------------------------------------------------

    def apply_rotation(self, rotation: int, delta: Tuple[int, ...],
                       count: int) -> None:
        """Apply pi^count: rotate sets and shift symbol points.

        ``rotation`` is the per-application set rotation (blocks move
        ``rotation`` sets forward), ``delta`` the per-application iterator
        increment of the warping loop (padded/truncated per symbol as
        needed), ``count`` the number of applications (n in Theorem 4).
        """
        obs.count("sym.rotations")
        num_sets = self.config.num_sets
        total_rot = (rotation * count) % num_sets
        shift_blocks_cache: dict = {}
        # The advance of a point, padded with zeros to the point's length
        # (coordinates past ``delta`` stay put), and each moved point.
        advances: dict = {}
        moved_points: dict = {}
        new_sets: List[Optional[SymbolicSetState]] = [None] * num_sets
        block_size = self.config.block_size
        for index, set_state in enumerate(self.sets):
            target = (index + total_rot) % num_sets
            moved = set_state.clone()
            syms = moved.syms
            lines = moved.lines
            for line, sym in enumerate(syms):
                if sym is None:
                    continue
                node, point = sym
                key = id(node)
                blocks = shift_blocks_cache.get(key)
                if blocks is None:
                    shift = sum(
                        c * d for c, d in zip(node.coeff_vector(), delta)
                    )
                    if (shift * count) % block_size != 0:
                        raise ValueError(
                            "warp applied with non-block-aligned shift"
                        )
                    blocks = shift_blocks_cache[key] = (
                        (shift * count) // block_size)
                new_point = moved_points.get(point)
                if new_point is None:
                    advance = advances.get(len(point))
                    if advance is None:
                        advance = advances[len(point)] = tuple(
                            delta[k] * count if k < len(delta) else 0
                            for k in range(len(point)))
                    new_point = moved_points[point] = tuple(
                        map(add, point, advance))
                syms[line] = (node, new_point)
                lines[line] += blocks
            new_sets[target] = moved
        self.sets = new_sets  # type: ignore[assignment]
        self.mru_set = (self.mru_set + total_rot) % num_sets

    def reset(self) -> None:
        self.sets = [SymbolicSetState(self.config.assoc, self.policy)
                     for _ in range(self.config.num_sets)]
        self.mru_set = 0
        self.hits = 0
        self.misses = 0

    def concretize(self, depth: int,
                   at_point: Tuple[int, ...]) -> List[List[Optional[int]]]:
        """gamma: evaluate all symbols at a (possibly past) loop point.

        ``at_point`` replaces the first ``depth`` coordinates of each
        symbol's stored point by ``stored - current + at``; callers pass
        relative evaluation through :func:`evaluate_symbol` instead for
        single entries.  (Used by tests.)
        """
        contents: List[List[Optional[int]]] = []
        for set_state in self.sets:
            row: List[Optional[int]] = []
            for sym in set_state.syms:
                if sym is None:
                    row.append(None)
                else:
                    node, point = sym
                    shifted = tuple(
                        at_point[k] if k < depth else value
                        for k, value in enumerate(point)
                    )
                    row.append(node.block_at(shifted,
                                             self.config.block_size))
            contents.append(row)
        return contents


def evaluate_symbol(sym: SymBlock, depth: int,
                    current: Tuple[int, ...], at: Tuple[int, ...],
                    block_size: int) -> int:
    """gamma for one symbol: evaluate as if the loop iterators were ``at``.

    The symbol stores the absolute point of its last access under the
    *current* iteration ``current``; re-basing the first ``depth``
    coordinates onto ``at`` yields the concrete block the same symbol
    denotes at iteration ``at`` (Theorem 3's correspondence).
    """
    node, point = sym
    rebased = tuple(
        value - current[k] + at[k] if k < depth else value
        for k, value in enumerate(point)
    )
    return node.block_at(rebased, block_size)


class SymbolicHierarchy:
    """N symbolic caches under a configurable inclusion policy.

    Mirrors :class:`repro.cache.hierarchy.CacheHierarchy` access for
    access: NINE descends on misses; INCLUSIVE back-invalidates the
    victims of outer-level evictions; EXCLUSIVE moves outer-level hits
    into the L1 and cascades eviction victims outwards.  All three stay
    data-independent and bijection-compatible (the paper's Sec. 2.3
    remark), so all three remain warpable.
    """

    __slots__ = ("config", "inclusion", "_levels")

    def __init__(self, config: HierarchyConfig,
                 inclusion: Optional[InclusionPolicy] = None):
        self.config = config
        self.inclusion = (InclusionPolicy.parse(inclusion)
                          if inclusion is not None
                          else config.inclusion)
        self._levels = tuple(SymbolicCache(cfg) for cfg in config.levels)

    @property
    def levels(self) -> Tuple[SymbolicCache, ...]:
        return self._levels

    @property
    def l1(self) -> SymbolicCache:
        return self._levels[0]

    @property
    def l2(self) -> SymbolicCache:
        return self._levels[1]

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        """Access a block; returns the L1 hit flag."""
        if self.inclusion is InclusionPolicy.NINE:
            return self._access_nine(block, sym, is_write)
        if self.inclusion is InclusionPolicy.INCLUSIVE:
            return self._access_inclusive(block, sym, is_write)
        return self._access_exclusive(block, sym, is_write)

    def _access_nine(self, block: int, sym: SymBlock,
                     is_write: bool) -> bool:
        hit1 = self._levels[0].access(block, sym, is_write)
        hit = hit1
        for level in self._levels[1:]:
            if hit:
                break
            hit = level.access(block, sym, is_write)
        return hit1

    def _access_inclusive(self, block: int, sym: SymBlock,
                          is_write: bool) -> bool:
        # The L1's own victim is irrelevant (nothing is shallower), so
        # only outer levels pay for victim capture.
        hit1 = self._levels[0].access(block, sym, is_write)
        if hit1:
            return True
        for index in range(1, len(self._levels)):
            hit, victim = self._levels[index].access_capture(
                block, sym, is_write)
            if not hit and victim is not None:
                for shallower in self._levels[:index]:
                    shallower.invalidate(victim[0])
            if hit:
                break
        return False

    def _access_exclusive(self, block: int, sym: SymBlock,
                          is_write: bool) -> bool:
        hit1, victim = self._levels[0].access_capture(block, sym,
                                                      is_write)
        if hit1:
            return True
        for level in self._levels[1:]:
            if level.probe_extract(block):
                break
        for level in self._levels[1:]:
            if victim is None:
                break
            victim = level.insert_victim(victim[0], victim[1])
        return False

    def reset(self) -> None:
        for level in self._levels:
            level.reset()


class SingleLevel:
    """Adapter giving a single cache the same interface as a hierarchy."""

    __slots__ = ("cache",)

    def __init__(self, config: CacheConfig):
        self.cache = SymbolicCache(config)

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        return self.cache.access(block, sym, is_write)

    @property
    def levels(self) -> Tuple[SymbolicCache, ...]:
        return (self.cache,)

    def reset(self) -> None:
        self.cache.reset()

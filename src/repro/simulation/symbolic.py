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
The warping engine goes one step further and stores no symbols at all
while no loop execution on its path detects matches; when one starts
again, every filled way gets the symbol of a :class:`ConstantBlock`, a
pseudo access node that denotes its block at every iteration.

The symbolic cache *is* the concrete cache (appendix A.3's constructive
``SymUpCache``: a concrete update followed by re-symbolisation).
:class:`SymbolicSetState` is a :class:`~repro.cache.cache.CacheSetState`
that also keeps each way's symbol, :class:`SymbolicCache` a
:class:`~repro.cache.cache.Cache` of such sets that adds match detection
and warping, and :class:`SymbolicHierarchy` a
:class:`~repro.cache.hierarchy.CacheHierarchy` of symbolic caches.  Lines
hold the concrete block for lookup, so hit/miss classification is exact
while symbols ride along; the inclusion semantics (NINE descent,
inclusive back-invalidation, exclusive extraction and spills) are the
concrete hierarchy's own.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cache.cache import Cache, CacheSetState
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.policies import ReplacementPolicy
from repro.polyhedral.model import AccessNode

#: A symbolic memory block: (access node, absolute iteration point).
SymBlock = Tuple[AccessNode, Tuple[int, ...]]


class SymbolicSetState(CacheSetState):
    """One cache set holding concrete blocks and their symbols.

    ``lines[l]`` is the concrete block in way ``l`` (None = empty), as in
    :class:`~repro.cache.cache.CacheSetState`.  Way ``l``'s symbol, the
    symbol of the access that last filled or refreshed it, is split over
    two parallel lists so that storing it allocates nothing:
    ``syms[l]`` is the access node and ``points[l]`` the iteration
    point.  :meth:`symbol` reassembles the ``(node, point)`` pair.
    ``stale`` means the set changed since its last :meth:`snapshot` (a
    new or cloned set has none yet): every update sets it.
    """

    __slots__ = ("syms", "points", "stale", "_snapshot")

    def __init__(self, assoc: int, policy: ReplacementPolicy):
        super().__init__(assoc, policy)
        self.syms: List[Optional[AccessNode]] = [None] * assoc
        self.points: List[Optional[Tuple[int, ...]]] = [None] * assoc
        self.stale = True
        self._snapshot: Optional[Snapshot] = None

    def access(self, policy: ReplacementPolicy, block: int,
               allocate: bool = True,
               sym: Optional[SymBlock] = None) -> Tuple[bool, Optional[int]]:
        """SymUpSet: the concrete update of
        :meth:`CacheSetState.access`, then the access's symbol is stored
        in the way it filled or refreshed."""
        hit, line = CacheSetState.access(self, policy, block, allocate)
        if line is not None:
            self.stale = True
            if sym is None:
                self.syms[line] = self.points[line] = None
            else:
                self.syms[line], self.points[line] = sym
        return hit, line

    def empty(self, line: int) -> None:
        self.stale = True
        self.lines[line] = None
        self.syms[line] = None
        self.points[line] = None

    def symbol(self, line: int) -> Optional[SymBlock]:
        """The ``(node, point)`` symbol of way ``line``, or None when the
        way is empty."""
        node = self.syms[line]
        return None if node is None else (node, self.points[line])

    def snapshot(self) -> "Snapshot":
        """The set's content as an immutable :data:`Snapshot`: taken
        afresh when the set is stale, the last one otherwise."""
        if self.stale:
            policy_state = self.policy_state
            syms = tuple(self.syms)
            self._snapshot = (policy_state, syms, tuple(self.points), {},
                              hash((policy_state, syms)))
            self.stale = False
        return self._snapshot

    def clone(self) -> "SymbolicSetState":
        copy = SymbolicSetState.__new__(SymbolicSetState)
        copy.assoc = self.assoc
        copy.lines = list(self.lines)
        copy.syms = list(self.syms)
        copy.points = list(self.points)
        copy.policy_state = self.policy_state
        copy.stale = True
        copy._snapshot = None
        return copy


#: A set's content at one moment: ``(policy state, syms, points, parts,
#: hash)`` with ``syms`` and ``points`` frozen into tuples.  ``parts``
#: memoises the snapshot's canonical part per loop depth
#: (:func:`exact_key`) and ``hash`` is ``hash((policy state, syms))``
#: (:func:`fingerprint`).
Snapshot = Tuple[object, tuple, tuple, dict, int]


class ConstantBlock:
    """A pseudo access node that denotes one memory block at every
    iteration: no dimensions, no coefficients.

    The warping engine gives every filled way such a symbol when a loop
    execution starts detecting matches after accesses that stored none
    (:meth:`SymbolicCache.resymbolise`).  The readers of symbols treat it
    like the node of an access outside the loop: its block shift is 0,
    a key keeps it by identity, and a warp leaves it in place.
    """

    __slots__ = ("block",)

    dims: Tuple[str, ...] = ()

    def __init__(self, block: int):
        self.block = block

    def coeff_vector(self) -> Tuple[int, ...]:
        return ()

    def block_at(self, point: Tuple[int, ...], block_size: int) -> int:
        return self.block

    def __repr__(self) -> str:
        return f"ConstantBlock({self.block})"


def _set_part(snapshot: Snapshot, depth: int) -> Tuple[Tuple, Optional[int]]:
    """``(canonical part, max own coordinate)`` of a set snapshot relative
    to the loop at ``depth``.

    Symbol coordinates other than the loop's own dim are kept absolute
    (the prefix is fixed within an execution; deeper coordinates repeat
    exactly across matching iterations), while own-dim coordinates are
    normalised by the set's maximum own coordinate, whose offset from the
    current iterator value :func:`exact_key` adds.

    The canonical part is one flat tuple: the policy state, then per way
    either None (empty) or the node followed by its point's coordinates.
    A node's points all have one length, so the flat tuple still
    determines every way.
    """
    policy_state, syms, points, _, _ = snapshot
    own_index = depth - 1
    flat = [policy_state]
    try:
        owns = [point[own_index] for point in points]
    except (TypeError, IndexError):
        # An empty way, or the symbol of a node outside the loop.
        owns = [point[own_index] for point in points
                if point is not None and len(point) > own_index]
        max_own = max(owns) if owns else None
        for node, point in zip(syms, points):
            if node is None:
                flat.append(None)
                continue
            flat.append(node)
            flat += point
            if len(point) > own_index:
                flat[own_index - len(point)] -= max_own
    else:
        # Every way holds a symbol with an own coordinate.
        max_own = max(owns)
        for node, point in zip(syms, points):
            flat.append(node)
            flat += point
            flat[own_index - len(point)] -= max_own
    return tuple(flat), max_own


def fingerprint(snapshots: Sequence[Snapshot]) -> Tuple:
    """The hashes of the sets ``snapshots``' policy states and nodes, in
    order.

    Every set's part of the :func:`exact_key` begins with its policy
    state and holds each way's node (or None) in way order, so the
    fingerprint is a projection of the exact key: two states with equal
    keys have equal fingerprints.
    """
    return tuple([snapshot[4] for snapshot in snapshots])


def exact_key(snapshots: Sequence[Snapshot], depth: int, own: int) -> Tuple:
    """Rotation-canonical state key (paper Sec. 5.3) of the sets
    ``snapshots``, taken in rotation order while the loop at ``depth``
    was at iterator value ``own``.

    Two states produce equal keys (within one execution of the loop, i.e.
    for a fixed iterator prefix) iff their symbols agree after re-basing
    onto their own iterations, the symbolic equality of Theorem 3.  Per
    set, the key holds the snapshot's canonical part (memoised per
    depth in the snapshot) and the offset of its maximum own coordinate
    from ``own``.
    """
    obs.count("sym.canonical_keys")
    key = []
    for snapshot in snapshots:
        parts = snapshot[3]
        part = parts.get(depth)
        if part is None:
            part = parts[depth] = _set_part(snapshot, depth)
        key.append(part[0])
        key.append(None if part[1] is None else part[1] - own)
    return tuple(key)


class SymbolicCache(Cache):
    """A set-associative cache over symbolic blocks (one level): a
    concrete cache whose sets also keep each way's symbol."""

    set_class = SymbolicSetState

    def __init__(self, config: CacheConfig):
        # No policy argument: each symbolic cache owns its policy, and
        # so its transition tables.
        super().__init__(config)

    # -- match detection ----------------------------------------------------------

    def snapshots(self) -> Tuple[Snapshot, ...]:
        """Every set's :meth:`~SymbolicSetState.snapshot`, in rotation
        order: hashing starts at the most-recently-accessed set and
        cycles, so two states that are equal up to a rotation of the
        cache sets list equal contents (the rotation offset is recovered
        from the difference of the two states' ``mru_set`` values).
        Only the sets changed since their last snapshot are copied."""
        obs.count("sym.snapshot_keys")
        sets = self.sets
        mru = self.mru_set
        return tuple([set_state.snapshot() if set_state.stale
                      else set_state._snapshot
                      for set_state in sets[mru:] + sets[:mru]])

    def snapshot_key(self, depth: int, current: Tuple[int, ...]) -> Tuple:
        """The :func:`exact_key` of the current state at iteration
        ``current`` of the loop at ``depth``."""
        return exact_key(self.snapshots(), depth, current[depth - 1])

    def resymbolise(self, constants: Dict[int, ConstantBlock]) -> None:
        """Give every filled way the :class:`ConstantBlock` symbol of its
        block, from ``constants`` (one node per block, added on first
        use): the symbols of a cache that was updated without storing
        any."""
        for set_state in self.sets:
            syms = set_state.syms
            points = set_state.points
            for line, block in enumerate(set_state.lines):
                if block is None:
                    syms[line] = points[line] = None
                    continue
                node = constants.get(block)
                if node is None:
                    node = constants[block] = ConstantBlock(block)
                syms[line] = node
                points[line] = ()
            set_state.stale = True

    # -- warping -----------------------------------------------------------------------

    def apply_rotation(self, rotation: int, delta: Tuple[int, ...],
                       count: int) -> None:
        """Apply pi^count: rotate sets and shift symbol points (each
        way keeps its node).

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
            points = moved.points
            lines = moved.lines
            for line, node in enumerate(moved.syms):
                if node is None:
                    continue
                point = points[line]
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
                points[line] = new_point
                lines[line] += blocks
            new_sets[target] = moved
        self.sets = new_sets  # type: ignore[assignment]
        self.mru_set = (self.mru_set + total_rot) % num_sets

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
            for node, point in zip(set_state.syms, set_state.points):
                if node is None:
                    row.append(None)
                else:
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


class SymbolicHierarchy(CacheHierarchy):
    """N symbolic caches under a configurable inclusion policy.

    :class:`~repro.cache.hierarchy.CacheHierarchy` performs every
    access: NINE descends on misses; INCLUSIVE back-invalidates the
    victims of outer-level evictions; EXCLUSIVE moves outer-level hits
    into the L1 and cascades eviction victims, with their symbols,
    outwards.  All three stay data-independent and bijection-compatible
    (the paper's Sec. 2.3 remark), so all three remain warpable.
    """

    cache_class = SymbolicCache

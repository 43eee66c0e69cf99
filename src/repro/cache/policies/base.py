"""The replacement-policy interface and its memoised transition table."""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: Most states one :class:`TransitionTable` dictionary holds.  A full
#: dictionary is cleared and refills on demand, which bounds memory on
#: policies with huge state spaces (LRU-16 has 16! states) while small
#: ones (PLRU-8 has 128) never reach it.
TABLE_CAP = 4096


class ReplacementPolicy(abc.ABC):
    """Replacement policy operating on line indices only.

    The cache set (:class:`repro.cache.cache.CacheSetState`) owns the
    mapping from lines to blocks; the policy owns an opaque, hashable,
    immutable *policy state* and two transitions:

    * :meth:`on_hit` — a cached line was accessed,
    * :meth:`on_miss` — pick the line to fill and update the state.

    Because the policy never observes block identities, Property 1 (data
    independence) holds by construction for every implementation.

    The transitions must be pure: :meth:`on_hit` a function of
    ``(state, line)`` and :meth:`on_miss` of ``(state, occupied)`` alone
    (for a fixed ``assoc``), and states must be immutable values.  That
    contract is what lets :meth:`table` memoise them, so caches perform
    hits and full-set evictions as table lookups while these methods
    remain the only definition of each policy.
    """

    #: registry name, e.g. "lru"
    name: str = "abstract"

    def __init__(self):
        self._tables: Dict[int, TransitionTable] = {}

    @abc.abstractmethod
    def initial_state(self, assoc: int) -> Hashable:
        """Policy state of an empty set with ``assoc`` ways."""

    @abc.abstractmethod
    def on_hit(self, state: Hashable, assoc: int, line: int) -> Hashable:
        """State after a hit on ``line``."""

    @abc.abstractmethod
    def on_miss(self, state: Hashable, assoc: int,
                occupied: Sequence[bool]) -> tuple:
        """Handle a miss: pick the fill line and produce the next state.

        Returns ``(line, new_state)`` where ``line`` is the way to fill
        (evicting its current block if occupied) and ``new_state`` is the
        policy state *after* the fill.  ``occupied[l]`` tells whether line
        ``l`` currently holds a block; implementations must prefer an
        empty line if one exists (real caches fill invalid ways first).
        """

    def table(self, assoc: int) -> "TransitionTable":
        """This policy's transition table for sets of ``assoc`` ways."""
        table = self._tables.get(assoc)
        if table is None:
            table = self._tables[assoc] = TransitionTable(self, assoc)
        return table

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TransitionTable:
    """Memoised transitions of one policy at one associativity.

    ``hit[state][line]`` is the state after a hit on ``line`` (None until
    first needed) and ``evict[state]`` is ``(victim line, next state)``
    for a miss into a full set.  Each entry is filled on first use by
    the policy's own :meth:`~ReplacementPolicy.on_hit` or
    :meth:`~ReplacementPolicy.on_miss`; a miss into a set with an empty
    way is not memoised and calls ``on_miss`` directly.  Each dictionary
    holds at most :data:`TABLE_CAP` states.

    >>> from repro.cache.policies import PLRU
    >>> table = PLRU().table(4)
    >>> table.after_hit(0, 2), table.hit
    (4, {0: [None, None, 4, None]})
    >>> table.after_miss(4, [7, 8, 9, 10]), table.evict
    ((0, 7), {4: (0, 7)})
    >>> table.after_miss(4, [7, None, 9, 10]), table.evict    # not stored
    ((1, 5), {4: (0, 7)})
    """

    __slots__ = ("policy", "assoc", "hit", "evict")

    def __init__(self, policy: ReplacementPolicy, assoc: int):
        self.policy = policy
        self.assoc = assoc
        self.hit: Dict[Hashable, List[Optional[Hashable]]] = {}
        self.evict: Dict[Hashable, Tuple[int, Hashable]] = {}

    def hit_row(self, state: Hashable) -> List[Optional[Hashable]]:
        """A new, empty row of :attr:`hit` for ``state``."""
        if len(self.hit) >= TABLE_CAP:
            self.hit.clear()
        row = self.hit[state] = [None] * self.assoc
        return row

    def evict_entry(self, state: Hashable) -> Tuple[int, Hashable]:
        """Compute and store :attr:`evict` ``[state]``."""
        if len(self.evict) >= TABLE_CAP:
            self.evict.clear()
        entry = self.evict[state] = self.policy.on_miss(
            state, self.assoc, (True,) * self.assoc)
        return entry

    def after_hit(self, state: Hashable, line: int) -> Hashable:
        """State after a hit on ``line``: ``policy.on_hit``, memoised."""
        row = self.hit.get(state) or self.hit_row(state)
        after = row[line]
        if after is None:
            after = row[line] = self.policy.on_hit(state, self.assoc, line)
        return after

    def after_miss(self, state: Hashable,
                   lines: Sequence[Optional[Hashable]]
                   ) -> Tuple[int, Hashable]:
        """``(fill line, next state)`` of a miss into a set whose ways
        hold ``lines`` (None = empty): ``policy.on_miss``, memoised when
        the set is full."""
        if None in lines:
            return self.policy.on_miss(
                state, self.assoc, [content is not None for content in lines])
        return self.evict.get(state) or self.evict_entry(state)

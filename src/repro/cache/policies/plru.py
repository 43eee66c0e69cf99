"""Tree-based Pseudo-LRU replacement.

PLRU approximates LRU with ``assoc - 1`` tree bits arranged as a complete
binary tree over the lines.  Each inner node's bit points towards the
subtree that should be victimised next.  On an access, the bits along the
path to the accessed line are flipped to point *away* from it.

This is the policy of the L1 caches of most recent Intel
microarchitectures (paper Sec. 2.1 and [3]).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy


class PLRU(ReplacementPolicy):
    """Tree-based Pseudo-LRU for power-of-two associativities.

    Policy state is an ``int`` whose bit ``k`` is the direction bit of
    inner node ``k`` in heap order (root = node 0).  Bit value 0 means
    "victim is in the left subtree", 1 means right.
    """

    name = "plru"

    def initial_state(self, assoc: int) -> int:
        if assoc & (assoc - 1):
            raise ValueError("PLRU requires a power-of-two associativity")
        return 0

    def on_hit(self, state: int, assoc: int, line: int) -> int:
        return self._touch(state, assoc, line)

    def on_miss(self, state: int, assoc: int, occupied: Sequence[bool]):
        line = None
        for cand in range(assoc):
            if not occupied[cand]:
                line = cand
                break
        if line is None:
            # Follow the direction bits from the root to a leaf.
            node = 0
            num_inner = assoc - 1
            while node < num_inner:
                bit = (state >> node) & 1
                node = 2 * node + 1 + bit
            line = node - num_inner
        return line, self._touch(state, assoc, line)

    @staticmethod
    def _touch(state: int, assoc: int, line: int) -> int:
        """Flip path bits to point away from ``line``."""
        path, away = _path_bits(assoc, line)
        return (state & ~path) | away


@lru_cache(maxsize=None)
def _path_bits(assoc: int, line: int) -> Tuple[int, int]:
    """The tree bits on the path from the root to ``line``, and those of
    them that point away from it (bit = 0 where the path goes right, 1
    where it goes left)."""
    path = away = 0
    node = line + assoc - 1  # leaf position in heap order
    while node > 0:
        parent = (node - 1) // 2
        path |= 1 << parent
        if node != 2 * parent + 2:
            away |= 1 << parent
        node = parent
    return path, away

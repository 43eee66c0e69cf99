"""A HayStack-style analytical model of fully-associative LRU caches.

HayStack [Gysi et al., PLDI 2019] classifies every access by its *stack
distance* (the number of distinct memory blocks touched since the last
access to the same block): in a fully-associative LRU cache of
associativity A, an access hits iff its stack distance is < A.  HayStack
obtains the distances by symbolic (Barvinok) counting with partial
enumeration as a fallback.

This reproduction computes the same model output — exact per-access
stack distances and the resulting miss count — with an O(N log N)
last-access/Fenwick sweep over the access stream.  The substitution is
documented in docs/baselines.md: the *model* (fully-associative LRU via stack
distances, the quantity HayStack counts) is identical; only the counting
engine differs, preserving the comparison's shape (cheaper per access
than full cache simulation, but cost still grows with the trace, unlike
warping on its favourable kernels).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cache.config import CacheConfig
from repro.polyhedral.model import Scop
from repro.simulation.result import SimulationResult
from repro.simulation.trace import iter_trace


def lru_stack_misses(blocks, assoc: int) -> Tuple[int, int]:
    """(misses, accesses) of a fully-associative LRU cache of size assoc.

    ``blocks`` is any iterable of hashable block identifiers.  Exact:
    an access misses iff it is cold or its stack distance >= assoc.
    """
    last_seen: Dict[int, int] = {}
    # Fenwick tree over access positions; tree[i] == 1 iff position i is
    # the most recent access of some block.
    tree: List[int] = []
    size = 0
    misses = 0
    accesses = 0

    def update(pos: int, value: int) -> None:
        index = pos + 1
        while index <= size:
            tree[index] += value
            index += index & (-index)

    def prefix_sum(pos: int) -> int:
        index = pos + 1
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    # Two passes would need the trace twice; grow the tree lazily instead.
    entries = list(blocks)
    size = len(entries)
    tree = [0] * (size + 1)
    for t, block in enumerate(entries):
        accesses += 1
        prev = last_seen.get(block)
        if prev is None:
            misses += 1
        else:
            update(prev, -1)
            # distinct other blocks accessed in (prev, t)
            distance = prefix_sum(t - 1) - prefix_sum(prev)
            if distance >= assoc:
                misses += 1
        update(t, 1)
        last_seen[block] = t
    return misses, accesses


def haystack_misses(scop: Scop, config: CacheConfig) -> SimulationResult:
    """Model ``scop`` on a fully-associative LRU cache of config's size.

    Only the capacity (in blocks) and block size of ``config`` are used;
    associativity and replacement policy are overridden by the model's
    fully-associative LRU assumption — exactly HayStack's behaviour when
    pointed at a set-associative cache.
    """
    with obs.Stopwatch("baseline.haystack") as watch:
        assoc = config.size_bytes // config.block_size
        blocks = (b for b, _ in iter_trace(scop, config.block_size))
        misses, accesses = lru_stack_misses(blocks, assoc)
    elapsed = watch.elapsed
    return SimulationResult(
        scop_name=scop.name,
        accesses=accesses,
        simulated_accesses=accesses,
        l1_misses=misses,
        l1_hits=accesses - misses,
        wall_time=elapsed,
        extra={"model": "haystack", "assoc": assoc},
    )

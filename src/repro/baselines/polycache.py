"""A PolyCache-style per-set analytical model of set-associative LRU.

PolyCache [Bao et al., POPL 2018] analyses each cache set independently:
because LRU cache sets evolve independently (Eq. 4 of the warping paper),
the misses of a set-associative LRU cache are the sum over sets of the
misses of the per-set access subsequence on a fully-associative LRU cache
of the set's associativity.  PolyCache constructs per-set Presburger miss
sets and counts them with Barvinok; this reproduction computes identical
per-set results via exact stack distances on the per-set subsequences
(docs/baselines.md gives the substitution rationale).  Like PolyCache, the
model is restricted to LRU.

For hierarchies the model is applied incrementally, level by level: each
level is fed exactly the misses of the previous one, mirroring
PolyCache's construction for write-allocate non-inclusive non-exclusive
hierarchies of any depth.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro import obs
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
)
from repro.polyhedral.model import Scop
from repro.simulation.result import LevelStats, SimulationResult
from repro.simulation.trace import iter_trace
from repro.baselines.haystack import lru_stack_misses


def _per_set_misses(blocks: List[int], config: CacheConfig
                    ) -> Tuple[int, List[int]]:
    """(total misses, per-access miss flags) for one cache level."""
    num_sets = config.num_sets
    per_set: List[List[int]] = [[] for _ in range(num_sets)]
    positions: List[List[int]] = [[] for _ in range(num_sets)]
    for pos, block in enumerate(blocks):
        index = config.index_of(block)
        per_set[index].append(block)
        positions[index].append(pos)
    total = 0
    miss_flags = [False] * len(blocks)
    for index in range(num_sets):
        subsequence = per_set[index]
        if not subsequence:
            continue
        # Exact LRU per set: replay with stack distances at set assoc.
        misses, flags = _stack_miss_flags(subsequence, config.assoc)
        total += misses
        for pos, flag in zip(positions[index], flags):
            miss_flags[pos] = flag
    return total, miss_flags


def _stack_miss_flags(blocks: List[int], assoc: int
                      ) -> Tuple[int, List[bool]]:
    """Like :func:`lru_stack_misses` but also returns per-access flags."""
    last_seen: Dict[int, int] = {}
    size = len(blocks)
    tree = [0] * (size + 1)

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

    misses = 0
    flags = [False] * size
    for t, block in enumerate(blocks):
        prev = last_seen.get(block)
        if prev is None:
            misses += 1
            flags[t] = True
        else:
            update(prev, -1)
            distance = prefix_sum(t - 1) - prefix_sum(prev)
            if distance >= assoc:
                misses += 1
                flags[t] = True
        update(t, 1)
        last_seen[block] = t
    return misses, flags


def polycache_misses(scop: Scop,
                     config: Union[CacheConfig, HierarchyConfig]
                     ) -> SimulationResult:
    """Model a SCoP on a set-associative LRU cache or NINE hierarchy."""
    if isinstance(config, HierarchyConfig):
        if config.inclusion is not InclusionPolicy.NINE:
            raise ValueError("the PolyCache model applies to NINE "
                             "hierarchies only")
        level_configs = list(config.levels)
    else:
        level_configs = [config]
    if any(cfg.policy != "lru" for cfg in level_configs):
        raise ValueError("the PolyCache model applies to LRU caches only")
    with obs.Stopwatch("baseline.polycache") as watch:
        blocks = [b for b, _ in iter_trace(scop,
                                           level_configs[0].block_size)]
        result = SimulationResult(
            scop_name=scop.name,
            accesses=len(blocks),
            simulated_accesses=len(blocks),
            extra={"model": "polycache"},
        )
        # Level by level: each level sees exactly the previous level's
        # misses.
        stats: List[LevelStats] = []
        stream = blocks
        for cfg in level_configs:
            misses, flags = _per_set_misses(stream, cfg)
            stats.append(LevelStats(cfg.name, len(stream) - misses,
                                    misses))
            stream = [b for b, flag in zip(stream, flags) if flag]
        result.levels = stats
    result.wall_time = watch.elapsed
    return result

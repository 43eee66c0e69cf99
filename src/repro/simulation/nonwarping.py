"""Non-warping cache simulation of polyhedral programs (Algorithm 1).

Walks the SCoP tree, enumerating the iteration domains in lexicographic
order and performing every memory access on a concrete cache model.
Runtime is proportional to the number of memory accesses — this is the
baseline that warping accelerates.  The accesses themselves are performed
by the innermost-loop executor every engine shares
(:mod:`repro.simulation.executor`); a target built from sharded configs
simulates one set shard.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro import obs
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.polyhedral.model import AccessNode, LoopNode, Scop
from repro.simulation.executor import LeafExecutor
from repro.simulation.result import LevelStats, SimulationResult

Target = Union[Cache, CacheHierarchy]


def simulate(scop: Scop, target: Target,
              warm_state: bool = False) -> SimulationResult:
    """Simulate ``scop`` on ``target`` (a cache or an N-level hierarchy).

    The target's current contents are reused when ``warm_state`` is set
    (SCoP simulation may start from any cache state, cf. Sec. 4);
    otherwise the target is reset first.

    >>> from repro import Cache, CacheConfig, build_kernel
    >>> from repro import simulate_nonwarping
    >>> scop = build_kernel("mvt", "MINI")
    >>> result = simulate_nonwarping(
    ...     scop, Cache(CacheConfig(1024, 4, 32, "lru")))
    >>> (result.accesses, result.l1_hits, result.l1_misses)
    (12800, 10548, 2252)
    """
    if not warm_state:
        target.reset()
    caches = (target.levels if isinstance(target, CacheHierarchy)
              else [target])
    base = [(cache.hits, cache.misses) for cache in caches]
    with obs.Stopwatch("engine.tree") as watch:
        executor = LeafExecutor(target)
        for root in scop.roots:
            _walk(executor, root, ())
    obs.count("tree.accesses", executor.accesses)

    result = SimulationResult(scop_name=scop.name, wall_time=watch.elapsed)
    result.accesses = executor.accesses
    result.simulated_accesses = executor.accesses
    result.levels = [
        LevelStats(cache.config.name, cache.hits - hits0,
                   cache.misses - misses0)
        for cache, (hits0, misses0) in zip(caches, base)
    ]
    return result


def _walk(executor: LeafExecutor, node: Union[LoopNode, AccessNode],
          prefix: Tuple[int, ...]) -> None:
    """LoopNode::Simulate / AccessNode::Simulate."""
    if isinstance(node, AccessNode):
        executor.run_point((node,), prefix)
        return
    bounds = node.bounds_at(prefix)
    if bounds is None:
        return
    lo, hi = bounds
    body, leaf = executor.body(node)
    if leaf:
        executor.run(node, prefix, lo, hi)
        return
    check_domain = not node._bounds_exact
    for value in range(lo, hi + 1, node.stride):
        point = prefix + (value,)
        if check_domain and not node.in_domain(point):
            continue
        for child in body:
            if child.__class__ is tuple:
                executor.run_point(child, point)
            else:
                _walk(executor, child, point)

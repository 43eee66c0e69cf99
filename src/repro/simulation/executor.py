"""The innermost-loop executor shared by every simulation engine.

The concrete tree walk (Algorithm 1), plain symbolic simulation and
warping (Algorithm 2), sharded or not, spend nearly all of their time
performing the accesses of loop bodies.  :class:`LeafExecutor` is the one
place that performs them:

* :meth:`LeafExecutor.run` drains an innermost loop (a loop whose
  children are all access nodes) over a range of iterator values.  Each
  child's byte address is affine in the iterator, so it is advanced by a
  constant per iteration instead of re-evaluated, and unguarded children
  skip the domain check.
* :meth:`LeafExecutor.run_point` performs a run of access nodes at one
  iteration point: loop bodies under warping's match detection, and
  accesses that sit beside loops in a body.

Both filter the access stream down to the blocks a set shard owns (see
:class:`~repro.cache.config.ShardedCacheConfig`) and count the accesses
they perform.  When the L1 is modulo-placed and the target is a single
cache or a NINE hierarchy, :meth:`run` inlines the L1 set lookup and
update, keeping the counters in locals; only L1 misses of a hierarchy
descend through a per-target hook.  Any other target (hashed placement,
inclusive or exclusive hierarchies) gets one ``access`` call per access.

Concrete caches (:class:`~repro.cache.cache.Cache`) and symbolic caches
(:class:`~repro.simulation.symbolic.SymbolicCache`) share the set layout
the inlined update relies on: ``lines`` (the block in each way) and
``policy_state``.  On a symbolic cache the update also stores the
access's symbol ``(node, point)`` in the way, bumps the set's version and
records the most recently used set.

Profiling costs O(loop executions), not O(accesses): under an active
tracer every call is timed as one window, ``sym.access`` on symbolic
targets and ``tree.access`` on concrete ones, and the code that runs is
otherwise the same.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    IndexFunction,
    InclusionPolicy,
    ShardedCacheConfig,
    WritePolicy,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.polyhedral.model import AccessNode, LoopNode

#: A loop body: the loop's children in program order, with every run of
#: consecutive access nodes grouped into one tuple.
Body = Tuple[object, ...]


def _modulo_placed(config: CacheConfig) -> bool:
    """True when ``config`` maps blocks to sets by (shard-local) modulo."""
    return (type(config) in (CacheConfig, ShardedCacheConfig)
            and config.index_function is IndexFunction.MODULO)


class LeafExecutor:
    """Performs the accesses of loop bodies on one simulation target.

    ``target`` is a concrete :class:`Cache` or :class:`CacheHierarchy`,
    or a symbolic target (anything with ``levels`` of symbolic caches
    and ``access(block, sym, is_write)``, such as
    :class:`~repro.simulation.symbolic.SingleLevel` and
    :class:`~repro.simulation.symbolic.SymbolicHierarchy`).
    ``accesses`` counts the accesses performed so far.  The tracer
    active at construction, if any, receives the timing windows.
    """

    __slots__ = ("symbolic", "block_size", "modulus", "residue",
                 "accesses", "_access", "_inline", "_descend", "_bodies",
                 "_tracer", "_span")

    def __init__(self, target):
        levels = (target,) if isinstance(target, Cache) else tuple(
            target.levels)
        self.symbolic = not isinstance(target, (Cache, CacheHierarchy))
        config = levels[0].config
        self.block_size = config.block_size
        # Set sharding: only blocks of the shard's residue class are
        # accessed (every level of a hierarchy shards alike).
        self.modulus = getattr(config, "shard_modulus", 1)
        self.residue = getattr(config, "shard_residue", 0)
        for level in levels[1:]:
            if (getattr(level.config, "shard_modulus", 1),
                    getattr(level.config, "shard_residue", 0)) != (
                        self.modulus, self.residue):
                raise ValueError("all hierarchy levels must share one shard")
        self.accesses = 0
        #: per-access hook ``(block, sym, is_write)``; ``sym`` is None on
        #: concrete targets, which take no symbols
        if self.symbolic:
            self._access = target.access
        else:
            self._access = (lambda block, sym, is_write:
                            target.access(block, is_write))
        inclusion = getattr(target, "inclusion", InclusionPolicy.NINE)
        inline = (_modulo_placed(config)
                  and inclusion is InclusionPolicy.NINE)
        #: the L1 whose set update :meth:`run` inlines, or None
        self._inline = levels[0] if inline else None
        #: NINE descent of an L1 miss into the outer levels, or None
        self._descend = (_nine_descent(levels[1:], self.symbolic)
                         if inline and len(levels) > 1 else None)
        self._bodies: Dict[int, Tuple[Body, bool]] = {}
        self._tracer = obs.current()
        self._span = "sym.access" if self.symbolic else "tree.access"

    def body(self, loop: LoopNode) -> Tuple[Body, bool]:
        """``(body, leaf)`` of ``loop``: its children with runs of access
        nodes grouped into tuples, and whether the whole body is one such
        run (an innermost loop).  Cached per loop node."""
        cached = self._bodies.get(id(loop))
        if cached is None:
            body = []
            for child in loop.children:
                if not isinstance(child, AccessNode):
                    body.append(child)
                elif body and body[-1].__class__ is tuple:
                    body[-1] += (child,)
                else:
                    body.append((child,))
            leaf = len(body) == 1 and body[0].__class__ is tuple
            cached = self._bodies[id(loop)] = (tuple(body), leaf)
        return cached

    def run_point(self, nodes: Sequence[AccessNode],
                  point: Tuple[int, ...]) -> None:
        """Perform the accesses of ``nodes`` at iteration ``point``."""
        tracer = self._tracer
        if tracer is not None:
            start = perf_counter()
        access = self._access
        symbolic = self.symbolic
        count = 0
        for node in nodes:
            if node.domain is not None and not node.in_domain(point):
                continue
            block = node.addr_at(point) // self.block_size
            if self.modulus != 1 and block % self.modulus != self.residue:
                continue  # another shard owns this block
            count += 1
            access(block, (node, point) if symbolic else None,
                   node.is_write)
        self.accesses += count
        if tracer is not None:
            tracer.add_time(self._span, perf_counter() - start, count)

    def run(self, loop: LoopNode, prefix: Tuple[int, ...], value: int,
            hi: int) -> None:
        """Perform every access of innermost ``loop`` for the iterator
        values ``value, value + stride, ...`` up to ``hi``, under the
        outer iterators ``prefix``."""
        tracer = self._tracer
        if tracer is not None:
            start = perf_counter()
        nodes = self.body(loop)[0][0]
        stride = loop.stride
        check_domain = not loop._bounds_exact
        in_domain = loop.in_domain
        own = loop.depth - 1
        first = prefix + (value,)
        # [node, byte address, per-iteration address step, guarded?,
        #  is_write]
        infos = [[node, node.addr_at(first),
                  node.coeff_vector()[own] * stride,
                  node.domain is not None, node.is_write]
                 for node in nodes]
        symbolic = self.symbolic
        need_point = (symbolic or check_domain
                      or any(info[3] for info in infos))
        point: Optional[Tuple[int, ...]] = None
        block_size = self.block_size
        modulus = self.modulus
        residue = self.residue
        sharded = modulus != 1
        access = self._access
        descend = self._descend
        cache = self._inline
        count = 0
        if cache is not None:
            config = cache.config
            sets = cache.sets
            num_sets = config.num_sets
            assoc = config.assoc
            on_hit = cache.policy.on_hit
            on_miss = cache.policy.on_miss
            allocate_writes = (config.write_policy
                               is WritePolicy.WRITE_ALLOCATE)
            hits = cache.hits
            misses = cache.misses
        index = None
        while value <= hi:
            if need_point:
                point = prefix + (value,)
            if not check_domain or in_domain(point):
                for info in infos:
                    if info[3] and not info[0].in_domain(point):
                        continue
                    block = info[1] // block_size
                    if sharded and block % modulus != residue:
                        continue  # another shard owns this block
                    sym = (info[0], point) if symbolic else None
                    if cache is None:
                        count += 1
                        access(block, sym, info[4])
                        continue
                    index = (block // modulus if sharded
                             else block) % num_sets
                    state = sets[index]
                    lines = state.lines
                    try:
                        line = lines.index(block)
                    except ValueError:
                        misses += 1
                        if descend is not None:
                            descend(block, sym, info[4])
                        if info[4] and not allocate_writes:
                            continue
                        line, state.policy_state = on_miss(
                            state.policy_state, assoc,
                            [content is not None for content in lines])
                        lines[line] = block
                    else:
                        hits += 1
                        state.policy_state = on_hit(
                            state.policy_state, assoc, line)
                    if symbolic:
                        state.version += 1
                        state.syms[line] = sym
            for info in infos:
                info[1] += info[2]
            value += stride
        if cache is not None:
            count = hits + misses - cache.hits - cache.misses
            cache.hits = hits
            cache.misses = misses
            if symbolic and index is not None:
                cache.mru_set = index
        self.accesses += count
        if tracer is not None:
            tracer.add_time(self._span, perf_counter() - start, count)


def _nine_descent(outer, symbolic: bool):
    """Hook: an L1 miss under NINE accesses the outer levels in turn
    until one hits (paper Eq. 24)."""
    if symbolic:
        def descend(block, sym, is_write):
            for level in outer:
                if level.access(block, sym, is_write):
                    return
    else:
        def descend(block, sym, is_write):
            for level in outer:
                if level.access(block, is_write):
                    return
    return descend

"""The innermost-loop executor shared by every simulation engine.

The concrete tree walk (Algorithm 1), plain symbolic simulation and
warping (Algorithm 2), sharded or not, spend nearly all of their time
performing the accesses of loop bodies.  :class:`LeafExecutor` is the one
place that performs them:

* :meth:`LeafExecutor.run` drains an innermost loop (a loop whose
  children are all access nodes) over a range of iterator values.  Each
  child's byte address is affine in the iterator, ``base + value *
  coeff`` with ``base`` fixed by the outer iterators, so it is computed
  from the iterator instead of re-evaluated, and unguarded children skip
  the domain check.  Under warping's match detection an innermost loop
  drains in pieces, from one state key to the next.
* :meth:`LeafExecutor.run_point` performs a run of access nodes at one
  iteration point: accesses that sit beside loops in a body.  It is the
  same drain, run for one iteration.

The drain filters the access stream down to the blocks a set shard owns
(see :class:`~repro.cache.config.ShardedCacheConfig`), dropping up front
every access whose residue class cannot change during the drain, and
counts the accesses it performs.  When the L1 is modulo-placed and the
target is a single cache or a NINE hierarchy, it inlines the L1 set
lookup and update, keeping the counters in locals; the policy update is
a lookup in the L1 policy's transition table
(:class:`~repro.cache.policies.base.TransitionTable`),
``hit[state][line]`` on a hit and ``evict[state]`` on a miss into a full
set.  Only L1 misses of a hierarchy descend, level by level, through
``Cache.access``.  Any other target (hashed placement, inclusive or
exclusive hierarchies) gets one ``target.access(block, is_write, sym)``
call per access.

A symbolic cache (:class:`~repro.simulation.symbolic.SymbolicCache`) is
a concrete :class:`~repro.cache.cache.Cache` whose sets also keep each
way's symbol, so both share the set layout the inlined update relies
on: ``lines`` (the block in each way) and ``policy_state``.  On a
symbolic cache the update also stores the access's symbol in the way
without allocating: the drain entry, whose first field is the access
node, goes into the set's ``syms`` list and the iteration's point
tuple, built once per iteration and shared by its accesses, into the
parallel ``points`` list, and the set is marked ``stale``: changed
since its last snapshot (the next state key copies it).  Outer levels
and targets that are not inlined receive a ``(node, point)`` pair,
built only on an L1 miss or a non-inlined access.  On either kind the
update records the most recently used set.

Profiling costs O(loop executions), not O(accesses): under an active
tracer every call is timed as one window, ``sym.access`` on symbolic
targets and ``tree.access`` on concrete ones, and the code that runs is
otherwise the same.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, Sequence, Tuple

from repro import obs
from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    IndexFunction,
    InclusionPolicy,
    ShardedCacheConfig,
    WritePolicy,
)
from repro.polyhedral.model import AccessNode, LoopNode
from repro.simulation.symbolic import SymbolicCache

#: A loop body: the loop's children in program order, with every run of
#: consecutive access nodes grouped into one tuple.
Body = Tuple[object, ...]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for one simulation run.

    A run allocates a tuple per iteration point, drain and state key.
    Every 700 such allocations start a collection, and about every
    hundredth of those scans the whole process heap, whose size is the
    caller's (a test session or a sweep), not the run's.  The engines
    make next to no reference cycles (about 20 unreachable objects per
    run over the 30 PolyBench kernels at MINI), so these scans find
    nothing, yet in a pytest session on a 2-vCPU VM one took 24 ms
    inside a 190 ms warping run.  Reference counting still frees what
    the run drops, and the collector's counts carry over, so it runs
    once after the run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _modulo_placed(config: CacheConfig) -> bool:
    """True when ``config`` maps blocks to sets by (shard-local) modulo."""
    return (type(config) in (CacheConfig, ShardedCacheConfig)
            and config.index_function is IndexFunction.MODULO)


class LeafExecutor:
    """Performs the accesses of loop bodies on one simulation target.

    ``target`` is a :class:`Cache` or a
    :class:`~repro.cache.hierarchy.CacheHierarchy`, concrete or symbolic
    (:class:`~repro.simulation.symbolic.SymbolicCache`,
    :class:`~repro.simulation.symbolic.SymbolicHierarchy`); ``levels``
    are its caches, innermost first.  ``accesses`` counts the accesses
    performed so far.  The tracer active at construction, if any,
    receives the timing windows.
    """

    __slots__ = ("levels", "symbolic", "block_size", "modulus", "residue",
                 "accesses", "_access", "_l1", "_descend", "_bodies",
                 "_tracer", "_span")

    def __init__(self, target):
        levels = self.levels = ((target,) if isinstance(target, Cache)
                                else tuple(target.levels))
        self.symbolic = isinstance(levels[0], SymbolicCache)
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
        self._access = target.access
        inclusion = getattr(target, "inclusion", InclusionPolicy.NINE)
        inline = (_modulo_placed(config)
                  and inclusion is InclusionPolicy.NINE)
        #: what the inlined L1 set update reads, or None: the L1, its
        #: set count and associativity, its policy's transition table
        #: (hit rows, row maker, ``on_hit``, evictions, eviction maker,
        #: miss hook) and whether writes allocate
        self._l1 = None
        if inline:
            l1 = levels[0]
            table = l1.policy.table(config.assoc)
            self._l1 = (l1, config.num_sets, config.assoc, table.hit,
                        table.hit_row, l1.policy.on_hit, table.evict,
                        table.evict_entry, table.after_miss,
                        config.write_policy is WritePolicy.WRITE_ALLOCATE)
        #: NINE descent of an L1 miss into the outer levels, or None
        self._descend = (_nine_descent(levels[1:])
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
        start = perf_counter() if self._tracer is not None else 0.0
        self._drain(start, nodes, point, 0, 0, 1, None)

    def run(self, loop: LoopNode, prefix: Tuple[int, ...], value: int,
            hi: int) -> None:
        """Perform every access of innermost ``loop`` for the iterator
        values ``value, value + stride, ...`` up to ``hi``, under the
        outer iterators ``prefix``."""
        start = perf_counter() if self._tracer is not None else 0.0
        self._drain(start, self.body(loop)[0][0], prefix + (value,),
                    value, hi, loop.stride,
                    None if loop._bounds_exact else loop.in_domain)

    def _drain(self, start: float, nodes: Sequence[AccessNode],
               point: Tuple[int, ...], value: int, hi: int, stride: int,
               in_domain) -> None:
        """Perform the accesses of ``nodes`` at ``point``, whose last
        coordinate is the iterator ``value``, then at each point that
        advances it by ``stride`` up to ``hi``; points that fail
        ``in_domain`` (None: no check) are skipped.  :meth:`run_point`
        passes ``value == hi``, one iteration whose iterator value is
        never read.  Under a tracer the call's window began at
        ``start``."""
        tracer = self._tracer
        own = len(point) - 1
        prefix = point[:own]
        # One iteration needs no address steps: address it at point.
        infos = (_entries(nodes, prefix) if value < hi else
                 [(node, node.addr_at(point), 0, node.domain is not None,
                   node.is_write) for node in nodes])
        block_size = self.block_size
        modulus = self.modulus
        residue = self.residue
        sharded = modulus != 1
        if sharded:
            # An access whose address step is a multiple of the shard's
            # block stride keeps its residue class for the whole drain:
            # if another shard owns it now, it always does.
            unit = block_size * modulus
            infos = [info for info in infos
                     if info[2] * stride % unit
                     or (info[1] + value * info[2]) // block_size % modulus
                     == residue]
        symbolic = self.symbolic
        need_point = (symbolic or in_domain is not None
                      or any(info[3] for info in infos))
        access = self._access
        descend = self._descend
        count = 0
        cache = None
        if self._l1 is not None:
            (cache, num_sets, assoc, hit_rows, hit_row, on_hit, evict,
             evict_entry, after_miss, allocate_writes) = self._l1
            sets = cache.sets
            hits = cache.hits
            misses = cache.misses
        index = None
        while value <= hi:
            if in_domain is None or in_domain(point):
                for info in infos:
                    if info[3] and not info[0].in_domain(point):
                        continue
                    block = (info[1] + value * info[2]) // block_size
                    if sharded and block % modulus != residue:
                        continue  # another shard owns this block
                    if cache is None:
                        count += 1
                        access(block, info[4],
                               (info[0], point) if symbolic else None)
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
                            descend(block, info[4],
                                    (info[0], point) if symbolic else None)
                        if info[4] and not allocate_writes:
                            continue
                        policy_state = state.policy_state
                        if None in lines:
                            line, state.policy_state = after_miss(
                                policy_state, lines)
                        else:
                            line, state.policy_state = (
                                evict.get(policy_state)
                                or evict_entry(policy_state))
                        lines[line] = block
                    else:
                        hits += 1
                        policy_state = state.policy_state
                        row = (hit_rows.get(policy_state)
                               or hit_row(policy_state))
                        after = row[line]
                        if after is None:
                            after = row[line] = on_hit(
                                policy_state, assoc, line)
                        state.policy_state = after
                    if symbolic:
                        # The way's symbol: the drain entry stands for
                        # its node, and the iteration's accesses share
                        # one point tuple.
                        state.stale = True
                        state.syms[line] = info
                        state.points[line] = point
            value += stride
            if need_point:
                point = prefix + (value,)
        if cache is not None:
            count = hits + misses - cache.hits - cache.misses
            cache.hits = hits
            cache.misses = misses
            if index is not None:
                cache.mru_set = index
        self.accesses += count
        if tracer is not None:
            tracer.add_time(self._span, perf_counter() - start, count)


def _entries(nodes: Sequence[AccessNode], prefix: Tuple[int, ...]) -> list:
    """Drain entries ``(node, base, coeff, guarded?, is_write)`` of
    ``nodes`` under the outer iterators ``prefix``: the byte address at
    iterator value ``v`` is ``base + v * coeff``."""
    own = len(prefix)
    point = prefix + (0,)
    return [(node, node.addr_at(point), node.coeff_vector()[own],
             node.domain is not None, node.is_write)
            for node in nodes]


def _nine_descent(outer):
    """Hook: an L1 miss under NINE accesses the outer levels in turn
    until one hits (paper Eq. 24)."""
    def descend(block, is_write, sym):
        for level in outer:
            if level.access(block, is_write, sym):
                return
    return descend

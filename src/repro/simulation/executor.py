"""The innermost-loop executor shared by every simulation engine.

The concrete tree walk (Algorithm 1), plain symbolic simulation and
warping (Algorithm 2), sharded or not, spend nearly all of their time
performing the accesses of loop bodies.  :class:`LeafExecutor` is the one
place that performs them:

* :meth:`LeafExecutor.run` drains an innermost loop (a loop whose
  children are all access nodes) over a range of iterator values.  Each
  child's byte address is affine in the iterator, so it starts at the
  address of the first iteration and advances by a fixed step per
  iteration instead of being re-evaluated, and unguarded children skip
  the domain check.  Under warping's match detection an innermost loop
  drains in pieces, from one state key to the next.
* :meth:`LeafExecutor.run_point` performs a run of access nodes at one
  iteration point: accesses that sit beside loops in a body.  It is the
  same drain, run for one iteration.

Every drain runs generated code.  A body's *shape* is what the code
depends on besides data: per access whether it is guarded and whether it
writes, whether the loop checks its domain per iteration, whether the
drain stores symbols, whether the target is sharded, and how the target
is updated (below).
:func:`drain_source` writes the drain of a shape as one Python function
whose loop is unrolled into one straight-line block per access, with
every flag folded in as a constant, and :func:`compiled_drain` compiles
it once per shape for the whole process.  The source holds only
identifiers and constants the generator chooses, never a name from the
SCoP; each body's nodes, address constants and steps reach the function
through its *plan*, built once per body and executor
(:meth:`LeafExecutor._plan`).  The engines plan every body of a SCoP
before they start timing (:meth:`LeafExecutor.prepare`).

The drain filters the access stream down to the blocks a set shard owns
(see :class:`~repro.cache.config.ShardedCacheConfig`), dropping up front
every access whose residue class cannot change during the drain, and
counts the accesses it performs.  When every level is modulo-placed and
the target is a single cache or a NINE hierarchy, the set update of every
level is inlined, with its counters in locals: the shard-local set index,
a membership test, and the policy update as a lookup in the level
policy's transition table
(:class:`~repro.cache.policies.base.TransitionTable`),
``hit[state][line]`` on a hit and ``evict[state]`` on a miss into a full
set.  An L1 miss goes on to the L2's block in the same code, and so on
outwards until a level hits (paper Eq. 24); a write miss at a
no-write-allocate level goes on without filling.  Any other target
(hashed placement, inclusive or exclusive hierarchies) gets one
``target.access(block, is_write, sym)`` call per access.

Where the L1 update is inlined, every access also has a *remembered
way*: four locals holding the L1 set's ``lines`` list, the way, the set
index and the set, as they stood after the access's last update in this
call.  The access first tests ``lines[way] == block``; if that holds it
is an L1 hit in that way, and only the hit's policy update, counters and
symbol store run.  Otherwise the full update runs and the access then
remembers the way its block occupies (a write that misses a
no-write-allocate L1 places nothing and remembers nothing).  The test is
exact: a set holds only blocks that map to it, each at most once; no set
or ``lines`` list is replaced during a call (warps run between calls);
and the memo starts empty at every call.

A symbolic cache (:class:`~repro.simulation.symbolic.SymbolicCache`) is
a concrete :class:`~repro.cache.cache.Cache` whose sets also keep each
way's symbol, so both share the set layout the inlined update relies
on: ``lines`` (the block in each way) and ``policy_state``.  On a
symbolic cache the update of every inlined level also stores the
access's symbol in the way without allocating: the access node goes
into the set's ``syms`` list and the iteration's point tuple, built once
per iteration and shared by its accesses, into the parallel ``points``
list, and the set is marked ``stale``: changed since its last snapshot
(the next state key copies it).  Targets that are not inlined receive a
``(node, point)`` pair.  On either kind the update records each level's
most recently used set.

A symbolic target also has concrete drains: the drains of the same
bodies with the symbol stores left out, as on a concrete cache (a
hooked target then receives no symbol).  The warping engine switches to
them while no loop execution on its path detects matches
(:meth:`LeafExecutor.store_symbols`), so the switch costs nothing per
drain; plain symbolic simulation never does.

Profiling costs O(loop executions), not O(accesses): under an active
tracer every call is timed as one window, ``sym.access`` on symbolic
targets and ``tree.access`` on concrete ones, and the code that runs is
otherwise the same.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from operator import mul
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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

#: What a drain's code depends on: per access ``(guarded?, is_write)``,
#: whether the loop checks its domain per iteration, whether the drain
#: stores symbols, whether the target is sharded, and the write-allocate
#: flag of every inlined level, innermost first (None: one
#: ``target.access`` call per access).
Shape = Tuple[Tuple[Tuple[bool, bool], ...], bool, bool, bool,
              Optional[Tuple[bool, ...]]]


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
                 "accesses", "storing", "_access", "_inline",
                 "_target_shape", "_bodies", "_plans", "_spare_plans",
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
        inline = (inclusion is InclusionPolicy.NINE
                  and all(_modulo_placed(level.config) for level in levels))
        #: What the inlined update of each level reads, innermost first:
        #: the cache, its set count and associativity and its policy's
        #: transition table (hit rows, row maker, ``on_hit``, evictions,
        #: eviction maker, miss hook); empty when the target is hooked.
        self._inline = ()
        allocates = None
        if inline:
            tables = [level.policy.table(level.config.assoc)
                      for level in levels]
            self._inline = tuple(
                (level, level.config.num_sets, level.config.assoc,
                 table.hit, table.hit_row, level.policy.on_hit, table.evict,
                 table.evict_entry, table.after_miss)
                for level, table in zip(levels, tables))
            allocates = tuple(
                level.config.write_policy is WritePolicy.WRITE_ALLOCATE
                for level in levels)
        #: Whether the drains store symbols: on a symbolic target until
        #: :meth:`store_symbols` switches them off.
        self.storing = self.symbolic
        #: The target's part of every drain shape.
        self._target_shape = (self.storing, self.modulus != 1, allocates)
        self._bodies: Dict[int, Tuple[Body, bool]] = {}
        #: Drain plans by loop node (a loop drain) or run of access nodes
        #: (a drain at one point), for the drains that run now, and on a
        #: symbolic target those of the other mode (:meth:`store_symbols`).
        self._plans: Dict[object, tuple] = {}
        self._spare_plans: Dict[object, tuple] = {}
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

    def store_symbols(self, storing: bool) -> None:
        """Switch a symbolic target's drains to the ones that store each
        access's symbol (``storing``) or to the concrete ones, which
        update only the levels' ``lines``, ``policy_state``, counters and
        ``mru_set``.  The symbols of the ways a concrete drain fills or
        refreshes are left stale; the caller re-symbolises them
        (:meth:`~repro.simulation.symbolic.SymbolicCache.resymbolise`)
        before it reads them."""
        if storing != self.storing:
            self.storing = storing
            self._target_shape = (storing,) + self._target_shape[1:]
            self._plans, self._spare_plans = self._spare_plans, self._plans

    def prepare(self, roots: Sequence[object]) -> None:
        """Plan every body of the SCoP trees ``roots``, compiling the
        drains of the shapes this process has not compiled yet; on a
        symbolic target whose symbol stores are off (the warping
        engine's, which switches them back on), also the drains that
        store symbols.  The engines call it before they start timing, so
        a run's time does not depend on which shapes earlier runs of the
        process compiled."""
        self._plan_all(roots)
        if self.symbolic and not self.storing:
            self.store_symbols(True)
            self._plan_all(roots)
            self.store_symbols(False)

    def _plan_all(self, roots: Sequence[object]) -> None:
        """Plan every body of the SCoP trees ``roots`` for the drains
        that run now."""
        stack = list(roots)
        while stack:
            node = stack.pop()
            if isinstance(node, AccessNode):
                self._plan((node,))
                continue
            body, leaf = self.body(node)
            if leaf:
                self._plan(node)
                continue
            for child in body:
                if child.__class__ is tuple:
                    self._plan(child)
                else:
                    stack.append(child)

    def run_point(self, nodes: Sequence[AccessNode],
                  point: Tuple[int, ...]) -> None:
        """Perform the accesses of ``nodes`` at iteration ``point``."""
        start = perf_counter() if self._tracer is not None else 0.0
        self._drain(start, nodes, point, 0, 0)

    def run(self, loop: LoopNode, prefix: Tuple[int, ...], value: int,
            hi: int) -> None:
        """Perform every access of innermost ``loop`` for the iterator
        values ``value, value + stride, ...`` up to ``hi``, under the
        outer iterators ``prefix``."""
        start = perf_counter() if self._tracer is not None else 0.0
        self._drain(start, loop, prefix + (value,), value, hi)

    def _drain(self, start: float, body, point: Tuple[int, ...],
               value: int, hi: int) -> None:
        """Perform the accesses of ``body`` at ``point``, whose last
        coordinate is the iterator ``value``, then at each point that
        advances it by the loop's stride up to ``hi``.  ``body`` is an
        innermost loop, or a tuple of access nodes performed at ``point``
        alone (:meth:`run_point` passes ``value == hi``, one iteration
        whose iterator value is never read).  Under a tracer the call's
        window began at ``start``."""
        plan = self._plans.get(body) or self._plan(body)
        plan[0](self, start, plan, point, value, hi)

    def _plan(self, body) -> tuple:
        """The drain plan of ``body`` (see :meth:`_drain`): its compiled
        drain, the loop's stride and domain check (None: none), then per
        access node the node, its address at the origin, its coefficient
        vector and its address step per iteration (0 for a drain at one
        point)."""
        if body.__class__ is tuple:
            nodes, stride, in_domain, own = body, 1, None, None
        else:
            nodes = self.body(body)[0][0]
            stride = body.stride
            in_domain = None if body._bounds_exact else body.in_domain
            own = body.depth - 1
        plan: List[object] = [
            compiled_drain((tuple((node.domain is not None, node.is_write)
                                  for node in nodes),
                            in_domain is not None) + self._target_shape),
            stride, in_domain]
        for node in nodes:
            coeffs = node.coeff_vector()
            plan += (node, node.addr_at((0,) * len(coeffs)), coeffs,
                     0 if own is None else coeffs[own] * stride)
        plan = self._plans[body] = tuple(plan)
        return plan


#: Every compiled drain of the process, by shape.
_DRAINS: Dict[Shape, Callable] = {}


def compiled_drain(shape: Shape) -> Callable:
    """The drain function of ``shape``, compiled on first use."""
    drain = _DRAINS.get(shape)
    if drain is None:
        namespace = {"mul": mul, "perf_counter": perf_counter}
        exec(compile(drain_source(shape), "<repro drain>", "exec"),
             namespace)
        drain = _DRAINS[shape] = namespace["drain"]
    return drain


def drain_source(shape: Shape) -> str:
    """Python source of the drain ``drain(ex, start, plan, point, value,
    hi)`` for bodies of ``shape`` (see :meth:`LeafExecutor._drain`).

    Access ``k`` of the plan binds ``n{k}`` (node), ``k{k}`` (address at
    the origin), ``q{k}`` (coefficients) and ``d{k}`` (step); ``a{k}`` is
    its address at the current iteration.
    """
    accesses, loop_check, stores, sharded, allocates = shape
    need_point = (stores or loop_check
                  or any(guarded for guarded, _ in accesses))
    fields = "".join(f", n{k}, k{k}, q{k}, d{k}"
                     for k in range(len(accesses)))
    out = ["def drain(ex, start, plan, point, value, hi):",
           f"    _, stride, in_domain{fields} = plan",
           "    bs = ex.block_size"]
    if sharded:
        out += ["    modulus = ex.modulus",
                "    residue = ex.residue",
                "    unit = bs * modulus"]
    if allocates is None:
        out += ["    access = ex._access",
                "    count = 0"]
    else:
        names = ", ".join(
            f"(cache{j}, nsets{j}, assoc{j}, hrows{j}, hrow{j}, onhit{j}, "
            f"evict{j}, eentry{j}, amiss{j})" for j in range(len(allocates)))
        out.append(f"    {names}, = ex._inline")
        for j in range(len(allocates)):
            out += [f"    sets{j} = cache{j}.sets",
                    f"    hits{j} = cache{j}.hits",
                    f"    misses{j} = cache{j}.misses",
                    f"    index{j} = None"]
    for k in range(len(accesses)):
        out.append(f"    a{k} = k{k} + sum(map(mul, q{k}, point))")
        if allocates is not None:
            # No way is remembered yet: a one-way list that holds no
            # block fails the first test.
            out += [f"    rlines{k} = (None,)",
                    f"    rline{k} = 0"]
        if sharded:
            # An access whose step is a multiple of the shard's block
            # stride keeps its residue class for the whole drain: if
            # another shard owns it now, it always does.
            out.append(f"    o{k} = d{k} % unit or "
                       f"a{k} // bs % modulus == residue")
    if need_point:
        out.append("    prefix = point[:-1]")
    body: List[str] = []
    for k, (guarded, is_write) in enumerate(accesses):
        if allocates is None:
            update = ["count += 1",
                      f"access(block, {is_write}, (n{k}, point))" if stores
                      else f"access(block, {is_write})"]
        else:
            update = _remembered_source(k, is_write, stores, sharded,
                                        allocates)
        if sharded:
            step = [f"if o{k}:",
                    f"    block = a{k} // bs",
                    "    if block % modulus == residue:"]
            if allocates is not None:
                step.append("        sblock = block // modulus")
            step += _indent(update, 2)
        else:
            step = [f"block = a{k} // bs"] + update
        if guarded:
            step = [f"if n{k}.in_domain(point):"] + _indent(step)
        body += step
    if loop_check:
        body = ["if in_domain(point):"] + _indent(body)
    advance = [f"a{k} += d{k}" for k in range(len(accesses))]
    if need_point:
        advance.append("point = prefix + (value,)")
    out += ["    if value <= hi:",
            "        while True:"]
    out += _indent(body, 3)
    out += ["            value += stride",
            "            if value > hi:",
            "                break"]
    out += _indent(advance, 3)
    if allocates is not None:
        out.append("    count = hits0 + misses0 - cache0.hits - cache0.misses")
        for j in range(len(allocates)):
            out += [f"    cache{j}.hits = hits{j}",
                    f"    cache{j}.misses = misses{j}",
                    f"    if index{j} is not None:",
                    f"        cache{j}.mru_set = index{j}"]
    out += ["    ex.accesses += count",
            "    tracer = ex._tracer",
            "    if tracer is not None:",
            "        tracer.add_time(ex._span, perf_counter() - start, count)",
            ""]
    return "\n".join(out)


def _remembered_source(k: int, is_write: bool, stores: bool,
                       sharded: bool,
                       allocates: Tuple[bool, ...]) -> List[str]:
    """Source of access ``k``'s update of the inlined levels: a hit in the
    L1 way its block took at the access's last update in this call (the
    remembered way: ``rlines{k}[rline{k}]`` of set ``rindex{k}``,
    ``rstate{k}``), else the update of level 0."""
    return ([f"if rlines{k}[rline{k}] == block:",
             f"    index0 = rindex{k}"]
            + _indent(_hit_source(0, f"rstate{k}", f"rline{k}")
                      + _store_source(k, f"rstate{k}", f"rline{k}", stores))
            + ["else:"]
            + _indent(_level_source(0, k, is_write, stores, sharded,
                                    allocates)))


def _level_source(j: int, k: int, is_write: bool, stores: bool,
                  sharded: bool, allocates: Tuple[bool, ...]) -> List[str]:
    """Source of access ``k``'s update of inlined level ``j``; its miss
    branch holds the update of level ``j + 1`` (the NINE descent).  At
    level 0 the access then remembers the way its block occupies."""
    allocate = not is_write or allocates[j]
    # What follows a hit, or a fill: the symbol store and, at level 0,
    # the remembered way.
    placed = _store_source(k, f"state{j}", f"line{j}", stores)
    if j == 0:
        placed += [f"rlines{k} = lines0",
                   f"rline{k} = line0",
                   f"rindex{k} = index0",
                   f"rstate{k} = state0"]
    out = [f"index{j} = {'sblock' if sharded else 'block'} % nsets{j}",
           f"state{j} = sets{j}[index{j}]",
           f"lines{j} = state{j}.lines",
           f"if block in lines{j}:",
           f"    line{j} = lines{j}.index(block)"]
    out += _indent(_hit_source(j, f"state{j}", f"line{j}"))
    if not allocate:
        out += _indent(placed)
    out += ["else:",
            f"    misses{j} += 1"]
    if j + 1 < len(allocates):
        out += _indent(_level_source(j + 1, k, is_write, stores, sharded,
                                     allocates))
    if allocate:
        out += _indent([
            f"ps = state{j}.policy_state",
            f"if None in lines{j}:",
            f"    line{j}, state{j}.policy_state = amiss{j}(ps, lines{j})",
            "else:",
            "    try:",
            f"        line{j}, state{j}.policy_state = evict{j}[ps]",
            "    except KeyError:",
            f"        line{j}, state{j}.policy_state = eentry{j}(ps)",
            f"lines{j}[line{j}] = block"])
        out += placed
    return out


def _hit_source(j: int, state: str, line: str) -> List[str]:
    """Source of a hit in way ``line`` of set ``state`` of level ``j``."""
    return [f"hits{j} += 1",
            f"ps = {state}.policy_state",
            "try:",
            f"    row = hrows{j}[ps]",
            "except KeyError:",
            f"    row = hrow{j}(ps)",
            f"after = row[{line}]",
            "if after is None:",
            f"    after = row[{line}] = onhit{j}(ps, assoc{j}, {line})",
            f"{state}.policy_state = after"]


def _store_source(k: int, state: str, line: str,
                  stores: bool) -> List[str]:
    """Source storing access ``k``'s symbol in way ``line`` of set
    ``state`` (nothing in a concrete drain)."""
    return [f"{state}.stale = True",
            f"{state}.syms[{line}] = n{k}",
            f"{state}.points[{line}] = point"] if stores else []


def _indent(lines: List[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]

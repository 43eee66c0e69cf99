"""Tests of the innermost-loop executor every engine shares.

The executor inlines the L1 set update and advances addresses
incrementally, so it is pinned against independent references: plain
per-access updates through ``Cache.access`` / ``SymbolicCache.access`` on
generated loops, the trace-replay (Dinero-style) engine on every
PolyBench kernel, and merged set shards.
"""

import ast
import gc
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.baselines import simulate_dinero
from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    IndexFunction,
    WritePolicy,
    shard_target_config,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet
from repro.polybench import all_kernel_names, build_kernel
from repro.polyhedral import ScopBuilder
from repro.polyhedral.model import AccessNode, LoopNode
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation import executor as executor_module
from repro.simulation.executor import LeafExecutor, collector_paused
from repro.simulation.symbolic import SymbolicCache, SymbolicHierarchy
from repro.simulation.warping import _WarpingRunner

L2 = CacheConfig(1024, 4, 16, "qlru", name="L2")


def _leaf_scop(accesses, lo, trips, stride):
    """One loop ``i`` over ``trips`` iterations from ``lo`` whose body is
    the given accesses ``(coeff, offset, guard, is_write)`` into A."""
    b = ScopBuilder("leaf")
    A = b.array("A", (4096,))
    with b.loop("i", lo, lo + trips * stride, stride=stride):
        for coeff, offset, guard, is_write in accesses:
            b.access(A, coeff * b.i + offset, is_write=is_write,
                     guard=[b.i - guard] if guard is not None else ())
    return b.build()


def _reference(loop, prefix, block_size, modulus, residue, access):
    """Per-access enumeration through ``addr_at`` (no executor)."""
    count = 0
    bounds = loop.bounds_at(prefix)
    if bounds is None:
        return 0
    for value in range(bounds[0], bounds[1] + 1, loop.stride):
        point = prefix + (value,)
        if not loop.in_domain(point):
            continue
        for node in loop.children:
            if not node.in_domain(point):
                continue
            block = node.addr_at(point) // block_size
            if block % modulus != residue:
                continue
            count += 1
            access(block, node, point)
    return count


def _caches(target):
    return (target,) if isinstance(target, Cache) else tuple(target.levels)


def _state(target):
    """Everything an access may change, per level."""
    return [
        (cache.hits, cache.misses, getattr(cache, "mru_set", None),
         [(s.lines, s.policy_state,
           [s.symbol(line) for line in range(s.assoc)])
          for s in cache.sets])
        for cache in _caches(target)
    ]


ACCESS = st.tuples(st.integers(-3, 3), st.integers(200, 400),
                   st.one_of(st.none(), st.integers(0, 40)), st.booleans())


@pytest.mark.parametrize("kind", ["concrete", "symbolic", "bare"])
@pytest.mark.parametrize("depth", [1, 2])
@settings(deadline=None, max_examples=40)
@given(accesses=st.lists(ACCESS, min_size=1, max_size=3),
       lo=st.integers(0, 10), trips=st.integers(0, 60),
       stride=st.integers(1, 3),
       policy=st.sampled_from(["lru", "fifo", "plru", "qlru"]),
       write_policy=st.sampled_from(list(WritePolicy)),
       shard=st.sampled_from([(1, 0), (2, 1), (4, 0), (4, 3)]))
def test_run_equals_per_access_reference(kind, depth, accesses, lo, trips,
                                         stride, policy, write_policy,
                                         shard):
    scop = _leaf_scop(accesses, lo, trips, stride)
    loop = scop.roots[0]
    config = CacheConfig(256, 2, 16, policy, write_policy=write_policy)
    if depth == 2:
        config = HierarchyConfig(config, L2)
    config = shard_target_config(config, *shard)
    def concrete():
        return CacheHierarchy(config) if depth == 2 else Cache(config)

    def symbolic():
        return (SymbolicHierarchy(config) if depth == 2
                else SymbolicCache(config))

    if kind == "symbolic":
        target, reference = symbolic(), symbolic()

        def reference_access(block, node, point):
            reference.access(block, node.is_write, (node, point))
    else:
        # A symbolic target's concrete drains ("bare") store no symbol:
        # every way's stays None, as on a concrete cache.
        target = symbolic() if kind == "bare" else concrete()
        reference = concrete()

        def reference_access(block, node, point):
            reference.access(block, node.is_write)

    executor = LeafExecutor(target)
    if kind == "bare":
        executor.store_symbols(False)
    assert executor.body(loop)[1]  # an innermost loop
    bounds = loop.bounds_at(())
    if bounds is not None:
        executor.run(loop, (), *bounds)
    expected = _reference(loop, (), 16, *shard, reference_access)
    assert executor.accesses == expected
    assert _state(target) == _state(reference)


def test_run_resumes_mid_range():
    """Draining the tail of a loop from any start matches the reference
    (warping hands the executor the rest of a loop after a match)."""
    scop = _leaf_scop([(1, 200, None, False), (2, 300, 5, True)],
                      0, 40, 1)
    loop = scop.roots[0]
    config = CacheConfig(256, 2, 16, "plru")
    target, reference = SymbolicCache(config), SymbolicCache(config)
    executor = LeafExecutor(target)
    executor.run(loop, (), 0, 16)
    executor.run(loop, (), 17, 39)
    _reference(loop, (), 16, 1, 0, lambda block, node, point:
               reference.access(block, node.is_write, (node, point)))
    assert _state(target) == _state(reference)


def test_run_checks_inexact_loop_domains():
    """A loop whose domain has a div (every other i) is filtered per
    iteration, like the reference walk."""
    i = LinExpr.var("i")
    domain, q = BasicSet(("i",), ineqs=[i, 39 - i]).with_div(i, 2)
    domain = domain.with_constraint_eq0(i - 2 * LinExpr.var(q))
    b = ScopBuilder("tmp")
    A = b.array("A", (4096,))
    with b.loop("i", 0, 40):
        node = b.read(A, 3 * b.i + 200)
    loop = LoopNode("i", ("i",), domain, children=[node])
    assert not loop._bounds_exact
    config = CacheConfig(256, 2, 16, "lru")
    target, reference = Cache(config), Cache(config)
    executor = LeafExecutor(target)
    executor.run(loop, (), *loop.bounds_at(()))
    count = _reference(loop, (), 16, 1, 0, lambda block, node, point:
                       reference.access(block, node.is_write))
    assert executor.accesses == count == 20
    assert _state(target) == _state(reference)


def test_body_groups_access_runs():
    b = ScopBuilder("mixed")
    A = b.array("A", (64, 64))
    with b.loop("i", 0, 8):
        first = b.read(A, b.i, 0)
        with b.loop("j", 0, 8):
            inner = b.read(A, b.i, b.j)
        second = b.write(A, b.i, 1)
        third = b.read(A, b.i, 2)
    scop = b.build()
    outer = scop.roots[0]
    executor = LeafExecutor(Cache(CacheConfig(256, 2, 16)))
    body, leaf = executor.body(outer)
    assert not leaf
    assert body == ((first,), outer.children[1], (second, third))
    assert executor.body(outer.children[1]) == (((inner,),), True)
    assert executor.body(outer)[0] is body  # cached per loop node


def test_levels_must_share_one_shard():
    l1 = shard_target_config(CacheConfig(256, 2, 16, name="L1"), 2, 0)
    l2 = shard_target_config(L2, 2, 1)
    with pytest.raises(ValueError):
        LeafExecutor(CacheHierarchy(HierarchyConfig(l1, l2)))


# -- whole programs against the trace-replay engine ---------------------------

@pytest.mark.parametrize("kernel", all_kernel_names())
def test_tree_engine_equals_trace_replay(kernel):
    """The executor-driven tree engine against the Dinero-style engine,
    whose trace generator and cache update share no code with it."""
    # floyd-warshall at MINI is ~650k accesses; a smaller instance of
    # the same access pattern covers the same code.
    scop = build_kernel(kernel, {"N": 18} if kernel == "floyd-warshall"
                        else "MINI")
    config = CacheConfig(1024, 4, 32, "plru")
    tree = simulate_nonwarping(scop, Cache(config))
    replay = simulate_dinero(scop, config)
    assert tree.accesses == replay.accesses
    assert (tree.l1_hits, tree.l1_misses) == (replay.l1_hits,
                                              replay.l1_misses)


@pytest.mark.parametrize("config", [
    HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                    CacheConfig(2048, 4, 32, "plru", name="L2")),
    HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                    CacheConfig(2048, 4, 32, "plru", name="L2"),
                    inclusion="inclusive"),
    HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                    CacheConfig(2048, 4, 32, "plru", name="L2"),
                    inclusion="exclusive"),
    CacheConfig(512, 2, 32, "lru",
                index_function=IndexFunction.XOR_FOLD),
    CacheConfig(512, 2, 32, "lru",
                write_policy=WritePolicy.NO_WRITE_ALLOCATE),
], ids=["nine", "inclusive", "exclusive", "xor-fold", "no-write-alloc"])
@pytest.mark.parametrize("kernel", ["gemm", "trisolv", "jacobi-1d"])
def test_every_target_kind_is_exact(kernel, config):
    """Inlined (NINE, modulo) and per-access-hook (inclusive, exclusive,
    hashed) targets agree with trace replay on both engines."""
    scop = build_kernel(kernel, "MINI")
    replay = simulate_dinero(scop, config)
    concrete = (CacheHierarchy(config)
                if isinstance(config, HierarchyConfig) else Cache(config))
    for result in (simulate_nonwarping(scop, concrete),
                   simulate_warping(scop, config),
                   simulate_warping(scop, config, enable_warping=False)):
        assert result.accesses == replay.accesses
        assert [(s.hits, s.misses) for s in result.levels] == \
            [(s.hits, s.misses) for s in replay.levels]


# -- tracing ----------------------------------------------------------------------

class _WindowTracer(obs.Tracer):
    """Records every pre-measured window the engines report."""

    __slots__ = ("windows",)

    def __init__(self):
        super().__init__()
        self.windows = []

    def add_time(self, name, seconds, n=1):
        self.windows.append((name, n))
        super().add_time(name, seconds, n)


def _nest():
    b = ScopBuilder("nest")
    A = b.array("A", (16, 64))
    with b.loop("i", 0, 10):
        with b.loop("j", 0, 50):
            b.read(A, b.i, b.j)
    return b.build()


@pytest.mark.parametrize("engine", ["tree", "symbolic"])
def test_tracing_costs_one_window_per_loop_execution(engine):
    scop = _nest()
    config = CacheConfig(256, 2, 16, "lru")
    tracer = _WindowTracer()
    with obs.collect(tracer):
        if engine == "tree":
            result = simulate_nonwarping(scop, Cache(config))
        else:
            result = simulate_warping(scop, config, enable_warping=False)
    name = "tree.access" if engine == "tree" else "sym.access"
    assert tracer.windows == [(name, 50)] * 10
    assert result.accesses == 500


@pytest.mark.parametrize("kernel", ["gemm", "jacobi-2d", "lu"])
def test_traced_run_attributes_every_explicit_access(kernel):
    """Traced and untraced runs execute the same code: equal results,
    and the sym.access windows account for every explicit access."""
    scop = build_kernel(kernel, "MINI")
    config = CacheConfig(1024, 4, 32, "plru")
    plain = simulate_warping(scop, config)
    with obs.collect() as tracer:
        traced = simulate_warping(scop, config)
    assert [(s.hits, s.misses) for s in traced.levels] == \
        [(s.hits, s.misses) for s in plain.levels]
    assert (traced.accesses, traced.warp_count, traced.warp_attempts) == (
        plain.accesses, plain.warp_count, plain.warp_attempts)
    windows = tracer.stats[("engine.warping", "sym.access")]
    assert windows.count == traced.simulated_accesses


def test_collector_paused_restores_the_collector():
    """The pause ends with the block, also when the block raises, and a
    collector that was already off stays off."""
    enabled = gc.isenabled()
    gc.enable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("simulated failure")
        assert gc.isenabled()
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        if enabled:
            gc.enable()


def test_engines_run_with_the_collector_paused(monkeypatch):
    """Every drain of both engines runs while the collector is paused,
    and the collector is back on once the runs return."""
    seen = []
    drain = LeafExecutor._drain

    def watched(self, *args):
        seen.append(gc.isenabled())
        return drain(self, *args)

    monkeypatch.setattr(LeafExecutor, "_drain", watched)
    enabled = gc.isenabled()
    gc.enable()
    try:
        scop = build_kernel("mvt", "MINI")
        config = CacheConfig(1024, 4, 32, "lru")
        simulate_nonwarping(scop, Cache(config))
        simulate_warping(scop, config)
        simulate_warping(scop, config, enable_warping=False)
        assert gc.isenabled()
    finally:
        if not enabled:
            gc.disable()
    assert seen and not any(seen)


# -- inlined outer levels ---------------------------------------------------------

LEVEL = st.tuples(st.sampled_from(["lru", "fifo", "plru", "qlru"]),
                  st.sampled_from(list(WritePolicy)))


def _nine3(levels, shard):
    """A three-level NINE hierarchy of 8, 16 and 32 sets with the drawn
    ``(policy, write policy)`` per level, sharded by ``shard``."""
    geometry = [(256, 2), (512, 2), (1024, 2)]
    config = HierarchyConfig(*(
        CacheConfig(size, assoc, 16, policy, write_policy=write_policy,
                    name=f"L{number}")
        for number, ((size, assoc), (policy, write_policy))
        in enumerate(zip(geometry, levels), start=1)))
    return shard_target_config(config, *shard)


@pytest.mark.parametrize("kind", ["concrete", "symbolic"])
@pytest.mark.parametrize("entry", ["run", "run_point"])
@settings(deadline=None, max_examples=40, derandomize=True)
@given(accesses=st.lists(ACCESS, min_size=1, max_size=4),
       lo=st.integers(0, 10), trips=st.integers(0, 60),
       stride=st.integers(1, 3), levels=st.tuples(LEVEL, LEVEL, LEVEL),
       shard=st.sampled_from([(1, 0), (2, 1), (4, 3)]))
def test_inlined_outer_levels_equal_per_access_hierarchy(
        kind, entry, accesses, lo, trips, stride, levels, shard):
    """Every level of a NINE hierarchy is updated inline: an L1 miss
    reaches the L2 and L3 in the executor's own code, and a write miss at
    a no-write-allocate level reaches the next level without filling.
    The result equals ``access`` on the hierarchy, one access at a
    time, per level (lines, policy states, symbols, ``mru_set`` and
    counters)."""
    scop = _leaf_scop(accesses, lo, trips, stride)
    loop = scop.roots[0]
    config = _nine3(levels, shard)
    hierarchy = (CacheHierarchy if kind == "concrete"
                 else SymbolicHierarchy)
    target, reference = hierarchy(config), hierarchy(config)

    def hooked(*args):
        raise AssertionError("a NINE hierarchy must not be hooked")

    target.access = hooked
    executor = LeafExecutor(target)
    if kind == "concrete":
        def reference_access(block, node, point):
            reference.access(block, node.is_write)
    else:
        def reference_access(block, node, point):
            reference.access(block, node.is_write, (node, point))
    bounds = loop.bounds_at(())
    if bounds is not None and entry == "run":
        executor.run(loop, (), *bounds)
    elif bounds is not None:
        nodes = tuple(loop.children)
        for value in range(bounds[0], bounds[1] + 1, loop.stride):
            executor.run_point(nodes, (value,))
    expected = _reference(loop, (), 16, *shard, reference_access)
    assert executor.accesses == expected
    assert _state(target) == _state(reference)


# -- remembered ways --------------------------------------------------------------

class _CountedSets(list):
    """A cache's list of sets that counts lookups by index."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("kind", ["concrete", "symbolic", "bare"])
@pytest.mark.parametrize("depth", [1, 2])
def test_remembered_way_is_checked_against_the_block(kind, depth):
    """In a single 2-way set, two sweeping reads evict the first read's
    block every iteration, and it comes back into the other way: its
    remembered way then holds another block, so each of its accesses
    misses, as the per-access reference says."""
    scop = _leaf_scop([(0, 200, None, False), (2, 300, None, False),
                       (2, 1000, None, True)], 0, 12, 1)
    loop = scop.roots[0]
    config = CacheConfig(32, 2, 16, "lru", name="L1")
    if depth == 2:
        config = HierarchyConfig(config, L2)
    if kind == "concrete":
        target, reference = ((CacheHierarchy(config), CacheHierarchy(config))
                             if depth == 2 else (Cache(config), Cache(config)))

        def reference_access(block, node, point):
            reference.access(block, node.is_write)
    else:
        target, reference = (
            (SymbolicHierarchy(config), SymbolicHierarchy(config))
            if depth == 2 else (SymbolicCache(config), SymbolicCache(config)))

        def reference_access(block, node, point):
            reference.access(block, node.is_write, (node, point))
    executor = LeafExecutor(target)
    executor.run(loop, (), 0, 11)
    _reference(loop, (), 16, 1, 0, reference_access)
    assert _state(target) == _state(reference)
    assert _caches(target)[0].misses == 36  # every access misses


@pytest.mark.parametrize("kind", ["concrete", "symbolic"])
def test_a_remembered_way_skips_the_set_lookup(kind):
    """A read of 8-byte elements in 16-byte blocks meets each block
    twice in a row: the first access misses and looks its set up, the
    second hits in the way the block took and looks nothing up."""
    scop = _leaf_scop([(1, 200, None, False)], 0, 40, 1)
    loop = scop.roots[0]
    config = CacheConfig(256, 2, 16, "lru")
    target = Cache(config) if kind == "concrete" else SymbolicCache(config)
    target.sets = sets = _CountedSets(target.sets)
    LeafExecutor(target).run(loop, (), 0, 39)
    assert (target.hits, target.misses) == (20, 20)
    assert sets.lookups == 20


# -- compiled drains --------------------------------------------------------------

def _shaped_scop(name, array):
    """A guarded read and an unguarded write per iteration; ``name`` and
    ``array`` only rename things (labels carry the array name)."""
    b = ScopBuilder(name)
    X = b.array(array, (4096,))
    with b.loop("i", 0, 50):
        b.read(X, 3 * b.i + 7, guard=[b.i - 4])
        b.write(X, b.i + 900)
    return b.build()


def test_bodies_of_one_shape_share_one_drain():
    """The compiled drain depends on the body's shape, not on its names:
    two SCoPs with other array names and labels run one function."""
    config = CacheConfig(256, 2, 16, "plru")
    drains, labels = [], []
    for name, array in (("first", "A"), ("second", "Zeta_9")):
        scop = _shaped_scop(name, array)
        executor = LeafExecutor(SymbolicCache(config))
        loop = scop.roots[0]
        executor.run(loop, (), *loop.bounds_at(()))
        drains.append(executor._plans[loop][0])
        labels.append([node.label for node in loop.children])
    assert labels[0] != labels[1]
    assert drains[0] is drains[1]


def test_a_second_run_compiles_nothing(monkeypatch):
    """Drains are compiled once per shape for the process: a second gemm
    run on the same target kinds generates no source."""
    scop = build_kernel("gemm", "MINI")
    config = CacheConfig(1024, 4, 32, "plru")

    def runs():
        simulate_nonwarping(scop, Cache(config))
        simulate_warping(scop, config)
        simulate_warping(scop, config, enable_warping=False)

    runs()
    generated = []
    source = executor_module.drain_source

    def recorded(shape):
        generated.append(shape)
        return source(shape)

    monkeypatch.setattr(executor_module, "drain_source", recorded)
    runs()
    assert generated == []


@pytest.mark.parametrize("kernel", ["durbin", "adi", "lu"])
def test_engines_plan_every_body_before_the_first_drain(kernel,
                                                         monkeypatch):
    """The engines plan, and so compile, every body before they start
    timing: no plan is built once the first drain has run (durbin has
    accesses outside any loop, adi and lu loops beside accesses)."""
    events = []
    plan, drain = LeafExecutor._plan, LeafExecutor._drain

    def planned(self, body):
        events.append("plan")
        return plan(self, body)

    def drained(self, *args):
        events.append("drain")
        return drain(self, *args)

    monkeypatch.setattr(LeafExecutor, "_plan", planned)
    monkeypatch.setattr(LeafExecutor, "_drain", drained)
    scop = build_kernel(kernel, "MINI")
    config = HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                             CacheConfig(2048, 4, 32, "plru", name="L2"))
    for run in (lambda: simulate_nonwarping(scop, CacheHierarchy(config)),
                lambda: simulate_warping(scop, config),
                lambda: simulate_warping(scop, config,
                                         enable_warping=False)):
        events.clear()
        run()
        first = events.index("drain")
        assert "plan" in events[:first]
        assert "plan" not in events[first:]


def test_prepare_plans_both_drains_of_a_symbolic_target():
    """The warping engine's executor, whose symbol stores start off,
    plans every body with and without them before its first drain, so
    switching plans nothing; plain symbolic simulation's and a concrete
    target's plan one kind of drain."""
    scop = build_kernel("lu", "MINI")
    config = HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                             CacheConfig(2048, 4, 32, "plru", name="L2"))
    executor = LeafExecutor(SymbolicHierarchy(config))
    executor.store_symbols(False)
    executor.prepare(scop.roots)

    def shapes(executor):
        by_drain = {drain: shape
                    for shape, drain in executor_module._DRAINS.items()}
        return {body: by_drain[plan[0]]
                for body, plan in executor._plans.items()}

    bare = shapes(executor)
    executor.store_symbols(True)
    storing = shapes(executor)
    assert storing.keys() == bare.keys() and len(bare) > 1
    assert all(shape[2] for shape in storing.values())
    assert not any(shape[2] for shape in bare.values())
    for target in (SymbolicHierarchy(config), CacheHierarchy(config)):
        single = LeafExecutor(target)
        single.prepare(scop.roots)
        assert single._plans.keys() == bare.keys()
        assert not single._spare_plans


@pytest.mark.parametrize("kernel", ["durbin", "lu", "trisolv"])
def test_plain_symbolic_simulation_stores_every_symbol(kernel):
    """``enable_warping=False`` never switches the symbol stores off,
    also where the warping engine would (top-level accesses, and loops
    whose coupled guards rule out every warp): every filled way of every
    level holds the symbol of the access that put its block there."""
    scop = build_kernel(kernel, "MINI")
    config = HierarchyConfig(CacheConfig(512, 2, 32, "lru", name="L1"),
                             CacheConfig(2048, 4, 32, "plru", name="L2"))
    runner = _WarpingRunner(scop, SymbolicHierarchy(config),
                            enable_warping=False)
    runner.executor.prepare(scop.roots)
    for root in scop.roots:
        runner.run_node(root, ())
    assert runner.executor.storing
    filled = 0
    for level in runner.levels:
        for set_state in level.sets:
            for way, block in enumerate(set_state.lines):
                if block is None:
                    continue
                node, point = set_state.symbol(way)
                assert isinstance(node, AccessNode)
                assert node.block_at(point, 32) == block
                filled += 1
    assert filled


#: Every name the generator may write: fixed words, and per access or
#: level a fixed stem followed by the access or level number.
_GENERATED_NAME = re.compile(
    r"drain|ex|start|plan|point|value|hi|stride|in_domain|bs|modulus|"
    r"residue|unit|access|count|prefix|block|sblock|ps|row|after|tracer|"
    r"mul|map|sum|perf_counter|KeyError|_|block_size|_access|_inline|"
    r"accesses|_tracer|add_time|_span|sets|hits|misses|mru_set|lines|"
    r"policy_state|stale|syms|points|index|"
    r"([nqkdao]|cache|nsets|assoc|hrows|hrow|onhit|evict|eentry|amiss|"
    r"sets|hits|misses|index|state|lines|line|rlines|rline|rindex|rstate)"
    r"\d+")


def test_generated_source_holds_only_generator_names():
    """Kernel text cannot reach the generated code: the source of every
    drain compiled for several kernels and targets holds only names and
    int, bool or None constants the generator chooses, and it parses as
    Python 3.9, the oldest version CI runs."""
    l1 = CacheConfig(256, 2, 16, "plru", name="L1")
    nine = HierarchyConfig(
        l1, CacheConfig(512, 2, 16, "qlru", name="L2",
                        write_policy=WritePolicy.NO_WRITE_ALLOCATE),
        CacheConfig(1024, 2, 16, "lru", name="L3"))
    targets = [l1, nine, shard_target_config(nine, 2, 1),
               HierarchyConfig(*nine.levels, inclusion="exclusive"),
               CacheConfig(256, 2, 16, "lru",
                           index_function=IndexFunction.XOR_FOLD)]
    executor_module._DRAINS.clear()
    words = set()
    for kernel in ("gemm", "jacobi-2d", "trisolv"):
        scop = build_kernel(kernel, "MINI")
        words |= set(scop.layout.arrays)
        words |= {node.label for root in scop.roots
                  for node in root.access_descendants()}
        for config in targets:
            simulate_warping(scop, config)
            concrete = (CacheHierarchy(config)
                        if isinstance(config, HierarchyConfig)
                        else Cache(config))
            simulate_nonwarping(scop, concrete)
    shapes = list(executor_module._DRAINS)
    assert len(shapes) >= 10
    for shape in shapes:
        source = executor_module.drain_source(shape)
        tree = ast.parse(source, feature_version=(3, 9))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                assert type(node.value) in (bool, int, type(None)), node.value
            elif isinstance(node, ast.Name):
                assert _GENERATED_NAME.fullmatch(node.id), node.id
            elif isinstance(node, ast.Attribute):
                assert _GENERATED_NAME.fullmatch(node.attr), node.attr
            elif isinstance(node, ast.arg):
                assert _GENERATED_NAME.fullmatch(node.arg), node.arg
            assert not isinstance(node, (ast.JoinedStr, ast.Import,
                                         ast.ImportFrom, ast.Lambda))
        assert not any(word in source for word in words if len(word) > 2)

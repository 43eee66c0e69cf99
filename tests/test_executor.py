"""Tests of the innermost-loop executor every engine shares.

The executor inlines the L1 set update and advances addresses
incrementally, so it is pinned against independent references: plain
per-access updates through ``Cache.access`` / ``SymbolicCache.access`` on
generated loops, the trace-replay (Dinero-style) engine on every
PolyBench kernel, and merged set shards.
"""

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
from repro.polyhedral.model import LoopNode
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation.executor import LeafExecutor
from repro.simulation.symbolic import SingleLevel, SymbolicHierarchy

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
         [(s.lines, s.policy_state, getattr(s, "syms", None))
          for s in cache.sets])
        for cache in _caches(target)
    ]


ACCESS = st.tuples(st.integers(-3, 3), st.integers(200, 400),
                   st.one_of(st.none(), st.integers(0, 40)), st.booleans())


@pytest.mark.parametrize("kind", ["concrete", "symbolic"])
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
    if kind == "concrete":
        def make():
            return (CacheHierarchy(config) if depth == 2
                    else Cache(config))

        def reference_access(block, node, point):
            reference.access(block, node.is_write)
    else:
        def make():
            return (SymbolicHierarchy(config) if depth == 2
                    else SingleLevel(config))

        def reference_access(block, node, point):
            reference.access(block, (node, point), node.is_write)

    target, reference = make(), make()
    executor = LeafExecutor(target)
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
    target, reference = SingleLevel(config), SingleLevel(config)
    executor = LeafExecutor(target)
    executor.run(loop, (), 0, 16)
    executor.run(loop, (), 17, 39)
    _reference(loop, (), 16, 1, 0, lambda block, node, point:
               reference.access(block, (node, point), node.is_write))
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

"""Every way's symbol names the last access that reached its level.

A symbolic set stores a way's symbol without allocating: the executor
puts its drain entry (whose first field is the access node) and the
iteration's shared point tuple into two parallel lists, and
``symbol(way)`` reassembles the ``(node, point)`` pair.  The oracle here
shares no code with the executor: it enumerates each loop's domain
point by point (``bounds_at`` plus a membership test per iteration and
per guarded access), routes every access through a concrete cache or
:class:`~repro.cache.hierarchy.CacheHierarchy`, and, per level, records
the ``(node, point)`` of the last access the level handled, a hit or a
fill, from the hit flags ``access`` returns.  After plain symbolic
simulation, every occupied way's symbol must equal the oracle's entry
for the way's block, and every empty way must have none.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    WritePolicy,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.polybench import build_kernel
from repro.polyhedral import ScopBuilder
from repro.polyhedral.model import AccessNode
from repro.simulation.symbolic import SymbolicCache, SymbolicHierarchy
from repro.simulation.warping import _WarpingRunner

POLICIES = ["lru", "plru", "fifo", "qlru"]


def accesses(scop):
    """``((node, point), address, is_write)`` of every access, in
    program order."""
    trace = []

    def walk(node, prefix):
        if isinstance(node, AccessNode):
            if node.in_domain(prefix):
                trace.append(((node, prefix), node.addr_at(prefix),
                              node.is_write))
            return
        bounds = node.bounds_at(prefix)
        if bounds is None:
            return
        for value in range(bounds[0], bounds[1] + 1, node.stride):
            point = prefix + (value,)
            if node.in_domain(point):
                for child in node.children:
                    walk(child, point)

    for root in scop.roots:
        walk(root, ())
    return trace


def last_handlers(trace, config):
    """Per level, ``{block: (node, point)}`` of the last access the
    level hit or filled, and the concrete levels after the trace."""
    if isinstance(config, HierarchyConfig):
        concrete = CacheHierarchy(config)
        levels = concrete.levels
        route = concrete.access
    else:
        cache = Cache(config)
        levels = [cache]

        def route(block, is_write):
            return (cache.access(block, is_write),)
    handled = [{} for _ in levels]
    allocates_writes = [level.config.write_policy
                        is WritePolicy.WRITE_ALLOCATE for level in levels]
    block_size = levels[0].config.block_size
    for sym, address, is_write in trace:
        block = address // block_size
        flags = route(block, is_write)
        for last, hit, allocate in zip(handled, flags, allocates_writes):
            if hit or (hit is False and (allocate or not is_write)):
                last[block] = sym
    return handled, levels


def assert_symbols_name_last_accesses(scop, config, trace=None):
    trace = accesses(scop) if trace is None else trace
    handled, concrete = last_handlers(trace, config)
    target = (SymbolicHierarchy(config)
              if isinstance(config, HierarchyConfig)
              else SymbolicCache(config))
    runner = _WarpingRunner(scop, target, enable_warping=False)
    for root in scop.roots:
        runner.run_node(root, ())
    assert runner.accesses == len(trace)
    checked = 0
    for level, reference, last in zip(runner.levels, concrete, handled):
        name = level.config.name
        for index, (got, want) in enumerate(zip(level.sets,
                                                reference.sets)):
            assert got.lines == want.lines, (name, index)
            for way, block in enumerate(got.lines):
                if block is None:
                    assert got.symbol(way) is None, (name, index, way)
                else:
                    assert got.symbol(way) == last[block], \
                        (name, index, way)
                    checked += 1
    return checked


#: The scaled test system's L1 (2 KiB, 8-way PLRU) and a 4-set 2-way
#: QLRU L1, each alone and above a 16-way QLRU L2 under NINE inclusion.
L1S = [CacheConfig(2048, 8, 32, "plru", name="L1"),
       CacheConfig(256, 2, 32, "qlru", name="L1")]
TARGETS = [config for l1 in L1S for config in (
    l1, HierarchyConfig(l1, CacheConfig(16 * 1024, 16, 32, "qlru",
                                        name="L2")))]


@pytest.mark.parametrize("kernel", ["correlation", "durbin", "lu", "adi",
                                    "jacobi-2d"])
def test_kernel_symbols_name_the_last_access(kernel):
    """Top-level accesses (correlation, durbin), triangular bounds (lu),
    and accesses beside loops in stencil bodies (adi, jacobi-2d)."""
    scop = build_kernel(kernel, "MINI")
    trace = accesses(scop)
    for config in TARGETS:
        assert assert_symbols_name_last_accesses(scop, config, trace)


@st.composite
def guarded_nests(draw):
    """1-2-deep nests with strides 1-3 over accesses at odd element
    offsets, where some innermost accesses carry a guard that holds on
    part of the range.  Any nest may follow top-level accesses, and a
    2-deep nest may put an access before and after its inner loop."""
    b = ScopBuilder("nest")
    arrays = [b.array("A", (4096,)), b.array("B", (4096,))]
    depth = draw(st.integers(1, 2))
    trips = draw(st.sampled_from([1, 4, 9, 40, 120]))
    growth = draw(st.sampled_from([0, 3, 40])) if depth == 2 else 0
    guard = st.one_of(st.none(), st.tuples(st.sampled_from([1, -1]),
                                           st.integers(0, 60)))
    access = st.tuples(st.integers(0, 1), st.integers(-2, 3),
                       st.integers(0, 3), st.integers(0, 15), st.booleans(),
                       guard)
    inner = draw(st.lists(access, min_size=1, max_size=3))
    before = draw(st.lists(access, max_size=1)) if depth == 2 else []
    after = draw(st.lists(access, max_size=1)) if depth == 2 else []
    top = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15),
                                  st.booleans()), max_size=2))

    def body(outer, specs, iterator):
        for array, coeff, coeff_outer, offset, write, guard in specs:
            index = coeff * iterator + 2 * offset + 1 + 64
            if outer is not None:
                index = index + coeff_outer * outer
            condition = ([] if guard is None
                         else [guard[0] * (iterator - guard[1])])
            b.access(arrays[array], index, is_write=write, guard=condition)

    for array, offset, write in top:
        b.access(arrays[array], 2 * offset + 1, is_write=write)
    stride = draw(st.integers(1, 3))
    if depth == 1:
        with b.loop("j", 0, trips, stride=stride):
            body(None, inner, b.j)
    else:
        with b.loop("i", 0, draw(st.integers(2, 4)),
                    stride=draw(st.integers(1, 3))):
            body(None, before, b.i)
            with b.loop("j", 0, trips + growth * b.i, stride=stride):
                body(b.i, inner, b.j)
            body(None, after, b.i)
    return b.build()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(scop=guarded_nests(), policy=st.sampled_from(POLICIES),
       hierarchy=st.booleans(),
       write_policy=st.sampled_from(list(WritePolicy)))
def test_nest_symbols_name_the_last_access(scop, policy, hierarchy,
                                           write_policy):
    l1 = CacheConfig(128, 2, 16, policy, write_policy=write_policy,
                     name="L1")
    config = (HierarchyConfig(l1, CacheConfig(512, 4, 16, "lru", name="L2"))
              if hierarchy else l1)
    assert_symbols_name_last_accesses(scop, config)

"""Property tests: the symbolic cache is observationally identical to
the concrete cache on arbitrary access streams (Eq. 12), for every
policy and write policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig, WritePolicy
from repro.polyhedral import ScopBuilder
from repro.simulation.symbolic import SymbolicCache


def make_node():
    """A single access node whose address equals 8*i (identity-ish)."""
    builder = ScopBuilder("probe")
    array = builder.array("A", (4096,))
    with builder.loop("i", 0, 4096):
        node = builder.read(array, builder.i)
    builder.build()
    return node


NODE = make_node()


@pytest.mark.parametrize("policy", ["lru", "fifo", "plru", "qlru"])
@pytest.mark.parametrize("write_policy", list(WritePolicy))
@settings(deadline=None, max_examples=30)
@given(trace=st.lists(
    st.tuples(st.integers(0, 48), st.booleans()), max_size=80))
def test_symbolic_equals_concrete(policy, write_policy, trace):
    cfg = CacheConfig(256, 2, 16, policy, write_policy=write_policy)
    concrete = Cache(cfg)
    symbolic = SymbolicCache(cfg)
    for block, is_write in trace:
        hit_concrete = concrete.access(block, is_write)
        # The symbol is irrelevant for classification; use the probe
        # node with the iteration that produces this block (2 doubles
        # per 16-byte block -> i = 2*block).
        sym = (NODE, (2 * block,))
        hit_symbolic = symbolic.access(block, is_write, sym)
        assert hit_concrete == hit_symbolic
    assert concrete.misses == symbolic.misses
    assert concrete.hits == symbolic.hits
    # Line contents agree set by set.
    for concrete_set, symbolic_set in zip(concrete.sets, symbolic.sets):
        assert concrete_set.lines == symbolic_set.lines
        assert concrete_set.policy_state == symbolic_set.policy_state


@settings(deadline=None, max_examples=20)
@given(trace=st.lists(st.integers(0, 30), min_size=1, max_size=60),
       depth_point=st.integers(0, 100))
def test_snapshot_key_is_stable_under_repetition(trace, depth_point):
    """Feeding the same (block, symbol-offset) pattern twice from the
    same iterator distance produces identical snapshot keys."""
    cfg = CacheConfig(128, 2, 16, "lru")

    def run(base_iteration):
        cache = SymbolicCache(cfg)
        for offset, block in enumerate(trace):
            cache.access(block, False, (NODE, (base_iteration + offset,)))
        return cache.snapshot_key(1, (base_iteration + len(trace),))

    assert run(0) == run(depth_point)

"""The memoised transition tables agree with the policies they memoise.

Every cache set performs its policy transitions through
``policy.table(assoc)`` (:class:`repro.cache.policies.base.TransitionTable`),
so the engines can no longer serve as each other's reference for the
policy update.  These tests replay random traces through the
table-driven set updates of both set layouts and through a reference
set that calls ``on_hit``/``on_miss`` directly, and compare the sets
after every access.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, CacheSetState
from repro.cache.config import CacheConfig, WritePolicy
from repro.cache.policies import POLICIES
from repro.cache.policies.base import TABLE_CAP
from repro.simulation.symbolic import SymbolicCache, SymbolicSetState

ASSOCS = (2, 4, 8, 16)


class ReferenceSet:
    """A cache set whose policy transitions call the policy directly."""

    def __init__(self, policy, assoc):
        self.policy = policy
        self.assoc = assoc
        self.lines = [None] * assoc
        self.policy_state = policy.initial_state(assoc)

    def access(self, block, allocate):
        if block in self.lines:
            line = self.lines.index(block)
            self.policy_state = self.policy.on_hit(self.policy_state,
                                                   self.assoc, line)
            return True
        if allocate:
            occupied = [content is not None for content in self.lines]
            line, self.policy_state = self.policy.on_miss(
                self.policy_state, self.assoc, occupied)
            self.lines[line] = block
        return False

    def empty(self, line):
        self.lines[line] = None


def drop(set_state, block):
    """Empty the way holding ``block``, leaving the policy state alone:
    what inclusive back-invalidation and exclusive extraction do.  Each
    set empties it itself: a symbolic set also drops the way's symbol
    and marks itself stale."""
    if block in set_state.lines:
        set_state.empty(set_state.lines.index(block))


def replay(policy_name, assoc, write_policy, trace):
    """Replay ``trace`` on all three sets, comparing after every step."""
    policy_cls = POLICIES[policy_name]
    reference = ReferenceSet(policy_cls(), assoc)
    concrete_policy, symbolic_policy = policy_cls(), policy_cls()
    concrete = CacheSetState(assoc, concrete_policy)
    symbolic = SymbolicSetState(assoc, symbolic_policy)
    for op, block in trace:
        if op == "drop":
            for set_state in (reference, concrete, symbolic):
                drop(set_state, block)
        else:
            allocate = (op == "read"
                        or write_policy is WritePolicy.WRITE_ALLOCATE)
            hit = reference.access(block, allocate)
            assert concrete.access(concrete_policy, block,
                                   allocate)[0] == hit
            assert symbolic.access(symbolic_policy, block, allocate,
                                   ("sym", block))[0] == hit
        for set_state in (concrete, symbolic):
            assert set_state.lines == reference.lines
            assert set_state.policy_state == reference.policy_state


@st.composite
def traces(draw, assoc):
    """Reads, writes and way-emptying drops over a few more blocks than
    the set has ways."""
    blocks = st.integers(0, assoc + assoc // 2 + 1)
    return draw(st.lists(
        st.tuples(st.sampled_from(("read", "read", "write", "drop")),
                  blocks),
        max_size=120))


@pytest.mark.parametrize("assoc", ASSOCS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("write_policy", list(WritePolicy))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_table_driven_sets_match_the_policy(policy_name, assoc,
                                            write_policy, data):
    replay(policy_name, assoc, write_policy, data.draw(traces(assoc)))


def test_table_stays_within_its_cap():
    """LRU-16 reaches far more than TABLE_CAP states; the tables clear
    when full and the sets still match the reference."""
    rng = random.Random(7)
    trace = [("read" if rng.random() < 0.9 else "drop", rng.randrange(24))
             for _ in range(40000)]
    policy_cls = POLICIES["lru"]
    reference = ReferenceSet(policy_cls(), 16)
    policy = policy_cls()
    table = policy.table(16)
    concrete = CacheSetState(16, policy)
    sizes = (0, 0)
    clears = [0, 0]
    for op, block in trace:
        if op == "drop":
            drop(reference, block)
            drop(concrete, block)
        else:
            assert concrete.access(policy, block)[0] == \
                reference.access(block, True)
        assert concrete.lines == reference.lines
        assert concrete.policy_state == reference.policy_state
        new_sizes = (len(table.hit), len(table.evict))
        assert max(new_sizes) <= TABLE_CAP
        for k in (0, 1):
            clears[k] += new_sizes[k] < sizes[k]
        sizes = new_sizes
    assert min(clears) >= 1


@pytest.mark.parametrize("cache_cls", [Cache, SymbolicCache])
def test_every_cache_starts_with_empty_tables(cache_cls):
    """Tables belong to the policy instance each cache creates, so a new
    simulation never inherits the transitions an earlier one filled."""
    config = CacheConfig(64, 4, 16, "plru")      # one 4-way set
    first = cache_cls(config)
    for block in (0, 1, 2, 3, 0, 1, 4, 5):
        if cache_cls is SymbolicCache:
            first.access(block, False, ("sym", block))
        else:
            first.access(block)
    table = first.policy.table(4)
    assert table.hit and table.evict
    assert first.policy.table(4) is table
    fresh = cache_cls(config).policy.table(4)
    assert not fresh.hit and not fresh.evict

"""Concrete and symbolic hierarchies against an independent oracle.

A symbolic cache is a concrete cache whose sets also keep each way's
symbol, and both kinds of hierarchy run the same inclusion code, so
neither can serve as the other's reference.  The oracle here shares no
code with :mod:`repro.cache`: its sets call the policy's own
``on_hit``/``on_miss``, and the NINE, inclusive and exclusive descents
are written out below.  Every way also holds a symbol: the symbol of
the access that last filled or refreshed it, carried along by an
exclusive spill and dropped when the way is emptied.  Every level also
records its ``mru_set``: the set last touched by a demand access, an
exclusive probe or a spill, but not by a back-invalidation.

Random traces of reads and writes run through the oracle, a
:class:`~repro.cache.hierarchy.CacheHierarchy` and a
:class:`~repro.simulation.symbolic.SymbolicHierarchy`, which are
compared level by level after every access.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.policies import POLICIES
from repro.simulation.symbolic import SymbolicHierarchy

BLOCK = 16


class OracleSet:
    """A cache set updated by direct policy calls."""

    def __init__(self, policy, assoc):
        self.policy = policy
        self.assoc = assoc
        self.lines = [None] * assoc
        self.syms = [None] * assoc
        self.policy_state = policy.initial_state(assoc)

    def access(self, block, sym, allocate):
        """Returns (hit, the ``(block, sym)`` it displaced or None)."""
        if block in self.lines:
            line = self.lines.index(block)
            self.policy_state = self.policy.on_hit(self.policy_state,
                                                   self.assoc, line)
            self.syms[line] = sym
            return True, None
        if not allocate:
            return False, None
        occupied = [content is not None for content in self.lines]
        line, self.policy_state = self.policy.on_miss(
            self.policy_state, self.assoc, occupied)
        displaced = (None if self.lines[line] is None
                     else (self.lines[line], self.syms[line]))
        self.lines[line] = block
        self.syms[line] = sym
        return False, displaced

    def remove(self, block):
        """Empty the way holding ``block``; the policy state stays."""
        if block not in self.lines:
            return False
        line = self.lines.index(block)
        self.lines[line] = None
        self.syms[line] = None
        return True


class OracleLevel:
    def __init__(self, config):
        self.config = config
        policy = POLICIES[config.policy]()
        self.sets = [OracleSet(policy, config.assoc)
                     for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0
        self.mru_set = 0

    def set_of(self, block):
        return self.sets[block % len(self.sets)]

    def touch(self, block):
        """``set_of`` for a demand access, probe or spill."""
        self.mru_set = block % len(self.sets)
        return self.sets[self.mru_set]

    def demand(self, block, sym, is_write):
        allocate = (not is_write or self.config.write_policy
                    is WritePolicy.WRITE_ALLOCATE)
        hit, displaced = self.touch(block).access(block, sym, allocate)
        self.hits += hit
        self.misses += not hit
        return hit, displaced


class OracleHierarchy:
    def __init__(self, config):
        self.inclusion = config.inclusion
        self.levels = [OracleLevel(level) for level in config.levels]

    def access(self, block, sym, is_write):
        """Returns one hit flag per level (None: not consulted)."""
        flags = [None] * len(self.levels)
        if self.inclusion is InclusionPolicy.EXCLUSIVE:
            self._exclusive(block, sym, is_write, flags)
            return tuple(flags)
        for depth, level in enumerate(self.levels):
            hit, displaced = level.demand(block, sym, is_write)
            flags[depth] = hit
            if hit:
                break
            if (self.inclusion is InclusionPolicy.INCLUSIVE
                    and displaced is not None):
                # Inclusion: what leaves level k leaves every level
                # closer to the core.
                for inner in self.levels[:depth]:
                    inner.set_of(displaced[0]).remove(displaced[0])
        return tuple(flags)

    def _exclusive(self, block, sym, is_write, flags):
        l1 = self.levels[0]
        flags[0], displaced = l1.demand(block, sym, is_write)
        if flags[0]:
            return
        # The outer levels are victim caches: a hit there moves the block
        # out (into the L1), and the L1's displaced entry cascades
        # outwards, each level's displaced entry into the next.
        for depth, level in enumerate(self.levels[1:], start=1):
            found = level.touch(block).remove(block)
            flags[depth] = found
            level.hits += found
            level.misses += not found
            if found:
                break
        for level in self.levels[1:]:
            if displaced is None:
                break
            _, displaced = level.touch(displaced[0]).access(
                displaced[0], displaced[1], True)


def assert_agree(oracle, hierarchy, symbolic):
    for expected, level, sym_level in zip(oracle.levels, hierarchy.levels,
                                          symbolic.levels):
        name = level.config.name
        for cache in (level, sym_level):
            assert (cache.hits, cache.misses) == \
                (expected.hits, expected.misses), name
            assert cache.mru_set == expected.mru_set, name
            for index, want in enumerate(expected.sets):
                got = cache.sets[index]
                assert got.lines == want.lines, (name, index)
                assert got.policy_state == want.policy_state, (name, index)
        for index, want in enumerate(expected.sets):
            assert sym_level.sets[index].syms == want.syms, (name, index)


LEVEL = st.tuples(st.sampled_from(sorted(POLICIES)),
                  st.sampled_from([2, 4]),
                  st.sampled_from(list(WritePolicy)),
                  st.sampled_from([1, 2]))


@st.composite
def hierarchies(draw, l1_policy, inclusion):
    """A 2- or 3-level hierarchy whose set counts keep the rotation
    rule: each level has 1 or 2 times the sets of the one inside it."""
    shapes = draw(st.lists(LEVEL, min_size=2, max_size=3))
    levels, sets = [], 1
    for depth, (policy, assoc, write_policy, growth) in enumerate(shapes):
        if depth == 0:
            policy = l1_policy
        sets *= growth
        levels.append(CacheConfig(sets * assoc * BLOCK, assoc, BLOCK,
                                  policy, write_policy=write_policy,
                                  name=f"L{depth + 1}"))
    return HierarchyConfig(levels=levels, inclusion=inclusion)


@pytest.mark.parametrize("inclusion", list(InclusionPolicy))
@pytest.mark.parametrize("l1_policy", sorted(POLICIES))
@settings(deadline=None, max_examples=25, derandomize=True)
@given(data=st.data())
def test_hierarchies_equal_the_oracle(inclusion, l1_policy, data):
    config = data.draw(hierarchies(l1_policy, inclusion))
    trace = data.draw(st.lists(
        st.tuples(st.integers(0, 23), st.booleans()), max_size=60))
    oracle = OracleHierarchy(config)
    hierarchy = CacheHierarchy(config)
    symbolic = SymbolicHierarchy(config)
    for step, (block, is_write) in enumerate(trace):
        sym = (block, step)
        flags = oracle.access(block, sym, is_write)
        assert hierarchy.access(block, is_write) == flags, step
        assert symbolic.access(block, is_write, sym) == flags, step
        assert_agree(oracle, hierarchy, symbolic)

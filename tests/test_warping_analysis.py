"""Tests for the warping applicability analyses.

Checks the static fast paths of FurthestByDomains against the exact
Presburger reference (``_ilp_domain_conflict``), and the overlap and
cache-agreement machinery on targeted scenarios.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.cache import Cache
from repro.isl.affine import LinExpr
from repro.polyhedral import ScopBuilder
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation.symbolic import SingleLevel
from repro.simulation.warping import _WarpingRunner


def runner_for(scop, cfg=None):
    cfg = cfg or CacheConfig(64, 2, 8, "lru")
    return _WarpingRunner(scop, SingleLevel(cfg))


# -- invariance classification ---------------------------------------------------------


def test_classify_free_for_unguarded_rectangular():
    b = ScopBuilder("rect")
    A = b.array("A", (32, 32))
    with b.loop("i", 0, 32):
        with b.loop("j", 0, 32):
            b.read(A, b.i, b.j)
    scop = b.build()
    outer = scop.roots[0]
    inner = outer.children[0]
    node = inner.children[0]
    runner = runner_for(scop)
    assert runner._classify_invariance(inner, node) == "free"
    assert runner._classify_invariance(outer, node) == "free"


def test_classify_interval_for_guarded_access():
    b = ScopBuilder("guarded")
    A = b.array("A", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i, guard=[b.i - 10])
    scop = b.build()
    loop = scop.roots[0]
    node = loop.children[0]
    assert runner_for(scop)._classify_invariance(loop, node) == "interval"


def test_classify_coupled_for_triangular():
    b = ScopBuilder("tri")
    A = b.array("A", (32, 32))
    with b.loop("i", 0, 32):
        with b.loop("j", b.i, 32):
            b.read(A, b.i, b.j)
    scop = b.build()
    outer = scop.roots[0]
    inner = outer.children[0]
    node = inner.children[0]
    runner = runner_for(scop)
    # Warping the outer loop: j's lower bound couples i with j.
    assert runner._classify_invariance(outer, node) == "coupled"
    # Warping the inner loop: the bound involves only outer dims.
    assert runner._classify_invariance(inner, node) in ("free", "interval")


# -- interval conflicts vs the exact reference ------------------------------------------


@pytest.mark.parametrize("guard_lo,guard_hi", [(10, None), (None, 40),
                                               (10, 40), (None, None)])
def test_interval_fast_path_matches_ilp_reference(guard_lo, guard_hi):
    b = ScopBuilder("g")
    A = b.array("A", (64,))
    guards = []
    with b.loop("i", 0, 64):
        if guard_lo is not None:
            guards.append(b.i - guard_lo)
        if guard_hi is not None:
            guards.append(-b.i + guard_hi)
        b.read(A, b.i, guard=list(guards))
    scop = b.build()
    loop = scop.roots[0]
    node = loop.children[0]
    runner = runner_for(scop)

    i0, i1, last, delta = 4, 6, 63, 2
    fast = runner._interval_conflict(loop, node, (), i0, last)
    exact = runner._ilp_domain_conflict(loop, node, (), i0, i1, last,
                                        delta, {})
    if exact is None:
        # The fast path may be more conservative but never less.
        assert fast is None or fast <= last + 1
    else:
        assert fast is not None and fast <= exact


def test_exact_domain_conflict_detects_guard_boundary():
    b = ScopBuilder("g2")
    A = b.array("A", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i, guard=[b.i - 20])  # active for i >= 20
    scop = b.build()
    loop = scop.roots[0]
    node = loop.children[0]
    runner = runner_for(scop)
    # Match interval [4, 6), warping from 6: iterations >= 20 differ from
    # their mod-delta counterparts in [4, 6) (which do not access).
    conflict = runner._ilp_domain_conflict(loop, node, (), 4, 6, 63, 2, {})
    assert conflict == 20
    fast = runner._interval_conflict(loop, node, (), 4, 63)
    assert fast == 20


def test_exact_domain_conflict_none_for_unguarded():
    b = ScopBuilder("g3")
    A = b.array("A", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i)
    scop = b.build()
    loop = scop.roots[0]
    node = loop.children[0]
    runner = runner_for(scop)
    assert runner._ilp_domain_conflict(loop, node, (), 4, 6, 63, 2, {}) \
        is None


# -- overlap analysis ----------------------------------------------------------------------


def test_overlap_disjoint_arrays_skipped():
    b = ScopBuilder("disjoint")
    A = b.array("A", (64,))
    B = b.array("B", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i)
        b.read(B, 63 - b.i)
    scop = b.build()
    runner = runner_for(scop)
    nodes = list(scop.roots[0].access_descendants())
    assert runner._arrays_disjoint(nodes[0], nodes[1])


def test_overlap_conflict_same_array_opposite_direction():
    """A[i] and A[63-i] shift oppositely; they collide mid-array."""
    b = ScopBuilder("cross")
    A = b.array("A", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i)
        b.read(A, 63 - b.i)
    scop = b.build()
    loop = scop.roots[0]
    runner = runner_for(scop)
    nodes = list(loop.access_descendants())
    conflict = runner._overlap_conflict(loop, (), nodes[0], nodes[1],
                                        0, 63)
    assert conflict is not None
    # They share block floor(63*8/8)=... at the crossing point i ~ 31.
    assert 0 <= conflict <= 36


def test_overlap_correctness_end_to_end():
    """The crossing pattern must still simulate exactly."""
    b = ScopBuilder("cross2")
    A = b.array("A", (128,))
    with b.loop("i", 0, 128):
        b.read(A, b.i)
        b.read(A, 127 - b.i)
    scop = b.build()
    cfg = CacheConfig(64, 2, 8, "lru")
    ref = simulate_nonwarping(scop, Cache(cfg))
    war = simulate_warping(scop, cfg)
    assert ref.l1_misses == war.l1_misses


# -- touched hulls -----------------------------------------------------------------------------


def test_touched_hull():
    b = ScopBuilder("hull")
    A = b.array("A", (64,))
    with b.loop("i", 0, 64):
        b.read(A, b.i)
    scop = b.build()
    loop = scop.roots[0]
    node = loop.children[0]
    runner = runner_for(scop)
    hull = runner._touched_hull(node, loop, (), 8, 15)
    # Blocks of A[8..15] with 8-byte blocks: exactly 8..15.
    assert hull == (8, 15)
    assert runner._touched_hull(node, loop, (), 70, 80) is None


# -- matchless-execution heuristic ---------------------------------------------------------------


def test_matchless_heuristic_disables_and_is_sound():
    b = ScopBuilder("hostile")
    A = b.array("A", (128, 4))
    with b.loop("i", 0, 40):
        with b.loop("j", 0, 4):
            # Strided pattern that never produces symbolic matches at a
            # tiny trip count.
            b.read(A, b.j * 32 + b.i, 0)
    scop = b.build()
    cfg = CacheConfig(64, 2, 8, "lru")
    ref = simulate_nonwarping(scop, Cache(cfg))
    war = simulate_warping(scop, cfg)
    assert ref.l1_misses == war.l1_misses

"""Tests for the warping applicability analyses.

Checks the static fast paths of FurthestByDomains against the exact
Presburger reference (:func:`ilp_domain_conflict`, the paper's conflict
set, kept here as a test oracle), the overlap and cache-agreement
machinery on targeted scenarios, and the period rule that limits match
detection to the iterations a warp can start or end at.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.config import (CacheConfig, HierarchyConfig,
                                 shard_target_config)
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet
from repro.perf.workloads import scaled_hierarchy, scaled_l1
from repro.polybench import build_kernel
from repro.polyhedral import ScopBuilder
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation.symbolic import SymbolicCache, SymbolicHierarchy
from repro.simulation.warping import _WarpingRunner


def runner_for(scop, cfg=None):
    cfg = cfg or CacheConfig(64, 2, 8, "lru")
    return _WarpingRunner(scop, SymbolicCache(cfg))


def ilp_domain_conflict(loop, node, prefix, i0: int, i1: int, last: int,
                        delta: int) -> Optional[int]:
    """Exact conflict set C_a via Presburger sets.

    This is the paper's FurthestByDomains conflict set, verbatim.  The
    simulator itself uses the static classification fast paths (every
    "coupled" domain conflicts at the first candidate iteration); this
    exact version is the oracle they are checked against.
    """
    domain = node.full_domain
    if domain is None:
        return None
    if domain.divs or domain.exists:
        # Cannot negate; conservatively refuse to warp past i1.
        return i1
    own = loop.iterator
    dims = node.dims
    own_var = LinExpr.var(own)
    base_eqs = [LinExpr.var(dim) - val
                for dim, val in zip(loop.dims[:-1], prefix)]
    base_ineqs = [own_var - i1, -own_var + last]
    # r = (own - i1) mod delta via the div q = floor((own - i1)/delta);
    # every piece below shares this single div definition, so q is
    # uniquely determined and negation can be pushed inside.
    q_name = "$warp_q"
    div = (q_name, own_var - i1, delta)
    corr = own_var - i1 - LinExpr.var(q_name) * delta + i0
    subst = {own: corr}
    a_eqs = list(domain.eqs)
    a_ineqs = list(domain.ineqs)
    b_eqs = [e.substitute(subst) for e in domain.eqs]
    b_ineqs = [e.substitute(subst) for e in domain.ineqs]

    def negation_pieces(eqs, ineqs):
        for eq in eqs:
            yield [eq - 1]
            yield [-eq - 1]
        for ineq in ineqs:
            yield [-ineq - 1]

    conflict_min: Optional[int] = None
    for pos_eqs, pos_ineqs, neg in (
            (a_eqs, a_ineqs, negation_pieces(b_eqs, b_ineqs)),
            (b_eqs, b_ineqs, negation_pieces(a_eqs, a_ineqs)),
    ):
        for neg_ineqs in neg:
            piece = BasicSet(
                dims,
                eqs=base_eqs + pos_eqs,
                ineqs=base_ineqs + pos_ineqs + neg_ineqs,
                divs=(div,),
            )
            value = piece.min_of(own_var)
            if value is not None and (conflict_min is None
                                      or value < conflict_min):
                conflict_min = value
    return conflict_min


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
    exact = ilp_domain_conflict(loop, node, (), i0, i1, last, delta)
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
    conflict = ilp_domain_conflict(loop, node, (), 4, 6, 63, 2)
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
    assert ilp_domain_conflict(loop, node, (), 4, 6, 63, 2) is None


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


# -- the period rule ---------------------------------------------------------------------------


def _period(scop, loop, config):
    target = (SymbolicHierarchy(config) if isinstance(config, HierarchyConfig)
              else SymbolicCache(config))
    return _WarpingRunner(scop, target)._plan(loop).period


@pytest.mark.parametrize("config,first_j,inner_j", [
    # 32 B blocks, 8 sets: C[i][j] and B[k][j] move 8 B per j, A[i][k]
    # stays put, so (a) needs 32 / 8 = 4 and (b) 32 * 8 / 8 = 32.
    (scaled_l1(), 4, 32),
    # S = lcm(8, 32) = 32 under the QLRU-16 L2: (b) needs 32 * 32 / 8.
    (scaled_hierarchy(2), 4, 128),
    # Two shards: unit 64, 4 sets per shard: 64 / 8 and 64 * 4 / 8.
    (shard_target_config(scaled_l1(), 2, 0), 8, 32),
])
def test_gemm_loop_periods(config, first_j, inner_j):
    scop = build_kernel("gemm", "MINI")
    loop_i = scop.roots[0]
    loop_j, loop_k = loop_i.children
    assert _period(scop, loop_j, config) == first_j
    assert _period(scop, loop_k.children[0], config) == inner_j
    # No access child: only the stride constrains the delta.
    assert _period(scop, loop_i, config) == 1
    assert _period(scop, loop_k, config) == 1


@pytest.mark.parametrize("stride,period", [(1, 4), (2, 4), (3, 12)])
def test_period_of_strided_loop_ignores_guarded_children(stride, period):
    b = ScopBuilder("strided")
    A = b.array("A", (256,))
    B = b.array("B", (4,))
    with b.loop("i", 0, 200, stride=stride):
        b.read(A, b.i)
        # Guarded: it need not run at every iteration, so its zero
        # coefficient must not add the pair term 32 * 8 / 8 = 32.
        b.read(B, 0, guard=[b.i - 100])
    scop = b.build()
    assert _period(scop, scop.roots[0], scaled_l1()) == period


def test_skipped_executions_do_not_switch_the_loop_off():
    """The j loop runs three 4-iteration executions (shorter than two
    periods of 4) before three long ones.  Counted as matchless, they
    would end its match detection before the long executions warp."""
    b = ScopBuilder("short-then-long")
    A = b.array("A", (16384,))
    with b.loop("i", 0, 2):
        with b.loop("k", 0, 3):
            with b.loop("j", 0, 2000 * b.i + 4):
                b.read(A, 2047 * b.k + b.j)
    scop = b.build()
    config = CacheConfig(512, 2, 32, "lru")
    with obs.collect() as tracer:
        warped = simulate_warping(scop, config)
    reference = simulate_nonwarping(scop, Cache(config))
    assert tracer.counters["warp.skipped_executions"] == 3
    # Keys every period up to the last one a warp can follow (420 keys
    # with a key at every iteration).
    assert tracer.counters["sym.snapshot_keys"] == 122
    assert (warped.warp_count, warped.warped_accesses,
            warped.accesses) == (3, 5568, 6024)
    assert warped.l1_misses == reference.l1_misses


# -- match-detection pins -------------------------------------------------------------


#: Per kernel at MINI: (warp attempts, warps, warped accesses, state keys)
#: on the scaled PLRU L1 alone and under the QLRU-16 L2.  Warps and warped
#: accesses are those of the one-stage key map; attempts and keys those of
#: the cut-off that counts executions without a warp.
MATCH_PINS = {
    "l1": {
        "2mm": (0, 0, 0, 62), "3mm": (0, 0, 0, 92),
        "adi": (3, 1, 95472, 87), "atax": (0, 0, 0, 19),
        "bicg": (0, 0, 0, 19), "cholesky": (0, 0, 0, 16),
        "correlation": (0, 0, 0, 109), "covariance": (0, 0, 0, 112),
        "deriche": (12, 6, 43776, 680), "doitgen": (0, 0, 0, 52),
        "durbin": (0, 0, 0, 27), "fdtd-2d": (4, 0, 0, 257),
        "floyd-warshall": (0, 0, 0, 240), "gemm": (0, 0, 0, 128),
        "gemver": (0, 0, 0, 130), "gesummv": (0, 0, 0, 7),
        "gramschmidt": (0, 0, 0, 57), "heat-3d": (3, 1, 135168, 117),
        "jacobi-1d": (1, 1, 4032, 31), "jacobi-2d": (3, 1, 112896, 219),
        "lu": (4, 1, 0, 162), "ludcmp": (0, 0, 0, 106),
        "mvt": (0, 0, 0, 80), "nussinov": (1, 0, 0, 66),
        "seidel-2d": (4, 1, 173280, 150), "symm": (0, 0, 0, 20),
        "syr2k": (3, 0, 0, 96), "syrk": (3, 0, 0, 96),
        "trisolv": (0, 0, 0, 10), "trmm": (0, 0, 0, 41),
    },
    "l1+l2": {
        "2mm": (0, 0, 0, 124), "3mm": (0, 0, 0, 184),
        "adi": (2, 1, 95472, 174), "atax": (0, 0, 0, 38),
        "bicg": (0, 0, 0, 38), "cholesky": (0, 0, 0, 32),
        "correlation": (0, 0, 0, 146), "covariance": (0, 0, 0, 176),
        "deriche": (11, 2, 8192, 1772), "doitgen": (0, 0, 0, 104),
        "durbin": (0, 0, 0, 30), "fdtd-2d": (0, 0, 0, 514),
        "floyd-warshall": (0, 0, 0, 480), "gemm": (0, 0, 0, 256),
        "gemver": (0, 0, 0, 260), "gesummv": (0, 0, 0, 14),
        "gramschmidt": (0, 0, 0, 114), "heat-3d": (2, 1, 135168, 234),
        "jacobi-1d": (0, 0, 0, 124), "jacobi-2d": (2, 1, 112896, 438),
        "lu": (2, 1, 0, 324), "ludcmp": (0, 0, 0, 196),
        "mvt": (0, 0, 0, 160), "nussinov": (1, 0, 0, 132),
        "seidel-2d": (2, 1, 173280, 300), "symm": (0, 0, 0, 40),
        "syr2k": (0, 0, 0, 192), "syrk": (0, 0, 0, 192),
        "trisolv": (0, 0, 0, 4), "trmm": (0, 0, 0, 82),
    },
}


@pytest.mark.parametrize("target", sorted(MATCH_PINS))
@pytest.mark.parametrize("kernel", sorted(MATCH_PINS["l1"]))
def test_match_detection_pins(kernel, target):
    """Which states match, and against which earlier entry, decides every
    attempt; a lookup that matched an older equal state, or a state with
    equal policy states only, would move these counts."""
    config = scaled_l1() if target == "l1" else scaled_hierarchy(2)
    with obs.collect() as tracer:
        result = simulate_warping(build_kernel(kernel, "MINI"), config)
    assert (result.warp_attempts, result.warp_count, result.warped_accesses,
            tracer.counters.get("sym.snapshot_keys", 0)) == \
        MATCH_PINS[target][kernel]


@st.composite
def short_and_long_nests(draw):
    """1-2-deep nests with strides 1-3 whose inner trip count grows with
    the outer iterator, so some executions are shorter than two periods
    and some are long enough to warp, and 1-3 accesses at odd element
    offsets (block-misaligned)."""
    b = ScopBuilder("nest")
    arrays = [b.array("A", (2048,)), b.array("B", (2048,))]
    depth = draw(st.integers(1, 2))
    trips = draw(st.sampled_from([1, 4, 9, 40, 120, 200]))
    growth = draw(st.sampled_from([0, 3, 40, 90])) if depth == 2 else 0
    accesses = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3),
                  st.integers(0, 15), st.booleans()),
        min_size=1, max_size=3))

    def body(outer):
        for array, coeff_j, coeff_i, offset, write in accesses:
            index = coeff_j * b.j + 2 * offset + 1
            if outer is not None:
                index = index + coeff_i * outer
            b.access(arrays[array], index, is_write=write)

    stride = draw(st.integers(1, 3))
    if depth == 1:
        with b.loop("j", 0, trips, stride=stride):
            body(None)
    else:
        with b.loop("i", 0, draw(st.integers(2, 4)),
                    stride=draw(st.integers(1, 3))):
            with b.loop("j", 0, trips + growth * b.i, stride=stride):
                body(b.i)
    return b.build()


@settings(deadline=None, max_examples=100, derandomize=True)
@given(scop=short_and_long_nests(),
       policy=st.sampled_from(["lru", "plru", "fifo", "qlru"]),
       hierarchy=st.booleans())
def test_period_rule_keeps_every_level_exact(scop, policy, hierarchy):
    """Warping equals the tree engine, per level, on nests the period
    rule skips, cuts short and hashes sparsely."""
    l1 = CacheConfig(256, 2, 32, policy)
    if hierarchy:
        config = HierarchyConfig(levels=(l1, CacheConfig(1024, 4, 32, "lru")))
        reference = simulate_nonwarping(scop, CacheHierarchy(config))
    else:
        config = l1
        reference = simulate_nonwarping(scop, Cache(config))
    warped = simulate_warping(scop, config)
    assert [(s.hits, s.misses) for s in warped.levels] == \
        [(s.hits, s.misses) for s in reference.levels]

"""Canonical forms and decision-procedure memoization of BasicSet.

Covers the two satellite bugfixes in this area: `_fresh_name`'s
process-global counter used to make structurally identical sets never
compare equal (so nothing could ever be memoized across builds), and
`negate` used to apply strict-inequality reasoning to expressions with
rational coefficients, which is unsound before integer scaling.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.isl.affine import LinExpr
from repro.isl.sets import (
    BasicSet,
    DECISION_CACHE_LIMIT,
    Set,
    clear_decision_cache,
    decision_cache_size,
)
from repro.polybench import build_kernel
from repro.simulation import simulate_warping


def x(name, coeff=1):
    return LinExpr.var(name, coeff)


def div_set():
    """{ i | 0 <= i <= 9 and i = 2*floor(i/2) } — the even points,
    built with a fresh (process-globally counted) div name."""
    base = BasicSet.from_bounds(["i"], {"i": (0, 9)})
    extended, q = base.with_div(x("i"), 2)
    return extended.with_constraint_eq0(x("i") - x(q, 2))


class TestCanonicalKeys:
    def test_independently_built_sets_share_keys(self):
        """Pinned regression: two separate builds allocate different
        fresh local names but must produce identical canonical keys,
        compare equal, and hash equal."""
        a, b = div_set(), div_set()
        # The raw local names really are different...
        assert a.divs[0][0] != b.divs[0][0]
        # ...yet canonically the sets are the same.
        assert a.canonical_key() == b.canonical_key()
        assert a == b
        assert hash(a) == hash(b)

    def test_constraint_order_is_canonicalized(self):
        lo, hi = x("i") - 1, -x("i") + 5
        a = BasicSet(["i"], ineqs=[lo, hi])
        b = BasicSet(["i"], ineqs=[hi, lo])
        assert a == b

    def test_scaling_is_canonicalized(self):
        a = BasicSet(["i"], ineqs=[x("i") - 1])
        b = BasicSet(["i"], ineqs=[x("i", 3) - 3])
        c = BasicSet(["i"], ineqs=[x("i", Fraction(1, 2)) - Fraction(1, 2)])
        assert a == b == c

    def test_floor_tightening_identifies_equal_integer_sets(self):
        # 2i >= 1 and i >= 1 contain the same integers.
        a = BasicSet(["i"], ineqs=[x("i", 2) - 1])
        b = BasicSet(["i"], ineqs=[x("i") - 1])
        assert a == b
        box = BasicSet.from_bounds(["i"], {"i": (-5, 5)})
        assert box.intersect(a).enumerate_points() == \
            box.intersect(b).enumerate_points() == \
            [(v,) for v in range(1, 6)]

    def test_equality_sign_is_canonicalized(self):
        a = BasicSet(["i", "j"], eqs=[x("i") - x("j")])
        b = BasicSet(["i", "j"], eqs=[x("j") - x("i")])
        assert a == b

    def test_contradictory_constants_collapse_to_empty_key(self):
        a = BasicSet(["i"], ineqs=[LinExpr.const(-1)])
        b = BasicSet(["i"], eqs=[x("i", 2) - 1])  # 2i == 1: no integers
        assert a == b == BasicSet.empty(["i"])

    def test_different_sets_have_different_keys(self):
        a = BasicSet.from_bounds(["i"], {"i": (0, 4)})
        b = BasicSet.from_bounds(["i"], {"i": (0, 5)})
        assert a != b
        assert a.canonical_key() != b.canonical_key()


class TestDecisionMemo:
    def test_second_build_hits_the_cache(self):
        clear_decision_cache()
        with obs.collect() as tracer:
            assert not div_set().is_empty()
            assert not div_set().is_empty()
        assert tracer.counters["isl.memo_misses"] == 1
        assert tracer.counters["isl.memo_hits"] == 1
        assert decision_cache_size() == 1

    def test_memoized_answers_match_fresh_answers(self):
        clear_decision_cache()
        box = BasicSet.from_bounds(["i"], {"i": (2, 11)})
        cold = (box.sample(), box.lexmin(), box.lexmax(),
                box.range_of(x("i", 3)))
        rebuilt = BasicSet.from_bounds(["i"], {"i": (2, 11)})
        warm = (rebuilt.sample(), rebuilt.lexmin(), rebuilt.lexmax(),
                rebuilt.range_of(x("i", 3)))
        assert cold == warm == ((2,), (2,), (11,), (6, 33))

    def test_objective_is_part_of_the_key(self):
        clear_decision_cache()
        box = BasicSet.from_bounds(["i"], {"i": (0, 5)})
        assert box.min_of(x("i")) == 0
        assert box.min_of(x("i", -1)) == -5  # must not reuse the entry

    def test_range_of_agrees_with_min_and_max(self):
        box = BasicSet.from_bounds(["i", "j"], {"i": (0, 3), "j": (1, 4)})
        expr = x("i", 2) - x("j")
        assert box.range_of(expr) == (box.min_of(expr), box.max_of(expr))
        assert BasicSet.empty(["i"]).range_of(x("i")) is None
        union = Set(["i"], [BasicSet.from_bounds(["i"], {"i": (0, 2)}),
                            BasicSet.from_bounds(["i"], {"i": (7, 9)})])
        assert union.range_of(x("i")) == (0, 9)

    def test_cache_is_bounded(self):
        clear_decision_cache()
        for offset in range(DECISION_CACHE_LIMIT + 50):
            BasicSet.from_bounds(
                ["i"], {"i": (offset, offset + 1)}).is_empty()
        assert decision_cache_size() <= DECISION_CACHE_LIMIT


# -- cross-run reuse at the simulation level -----------------------------------


def _outcome(kernel, config):
    result = simulate_warping(build_kernel(kernel, "MINI"), config)
    return (result.accesses, result.warp_count,
            [(s.hits, s.misses) for s in result.levels])


def _check_sweep_against_cold_runs(kernel, configs):
    """Every run of a mini-sweep sharing the decision cache equals a
    run made after ``clear_decision_cache()``, and the sweep reuses
    cached answers: each config's second run is fully warm, so hits
    can never trail misses (kernels whose warp analyses stay on the
    static fast paths ask no set queries at all)."""
    cold = []
    for config in configs:
        clear_decision_cache()
        cold.append(_outcome(kernel, config))
    clear_decision_cache()
    with obs.collect() as tracer:
        for config, expected in zip(configs, cold):
            assert _outcome(kernel, config) == expected
            assert _outcome(kernel, config) == expected  # fully warm
    counters = tracer.counters
    assert counters.get("isl.memo_hits", 0) >= counters.get(
        "isl.memo_misses", 0)


class TestSoundness:
    @pytest.mark.parametrize("kernel", ["jacobi-2d", "trisolv", "lu",
                                        "gemm"])
    def test_reuse_never_changes_results_across_sizes(self, kernel):
        _check_sweep_against_cold_runs(
            kernel, [CacheConfig(size, 4, 32, "plru")
                     for size in (512, 1024, 2048)])

    def test_reuse_across_policies_and_hierarchy(self):
        l2 = CacheConfig(4096, 8, 32, "qlru", name="L2")
        _check_sweep_against_cold_runs(
            "jacobi-2d",
            [HierarchyConfig(CacheConfig(1024, 4, 32, policy, name="L1"),
                             l2)
             for policy in ("lru", "plru", "fifo")])


def _lookups(kernel, config):
    """``(hits, misses, ilp solves)`` of one warping run on a fresh
    build of ``kernel`` at MINI size."""
    with obs.collect() as tracer:
        simulate_warping(build_kernel(kernel, "MINI"), config)
    counters = tracer.counters
    return (counters.get("isl.memo_hits", 0),
            counters.get("isl.memo_misses", 0),
            counters.get("ilp.solves", 0))


class TestReuse:
    """Where cross-run reuse happens: the warp analyses' set queries
    depend on the access pattern (domains, address expressions, block
    size), not on cache capacity, associativity or policy, so a sweep
    over those dimensions is answered from the decision cache after
    its first point.  The executions that take state keys at all depend
    on the set count too (the period rule), so the capacity sweep keeps
    it fixed.  The kernels are ones whose MINI runs still ask."""

    @pytest.mark.parametrize("kernel", ["lu", "nussinov"])
    def test_capacity_sweep_reuses_every_decision(self, kernel):
        clear_decision_cache()
        hits, misses, solves = _lookups(kernel,
                                        CacheConfig(1024, 4, 32, "plru"))
        assert misses > 0 and solves > 0
        for size, assoc in ((2048, 8), (4096, 16)):
            config = CacheConfig(size, assoc, 32, "plru")
            assert _lookups(kernel, config) == (hits + misses, 0, 0)

    @pytest.mark.parametrize("kernel", ["lu", "nussinov",
                                        "floyd-warshall"])
    def test_rebuilt_scop_solves_no_ilp(self, kernel):
        """A fresh build of the same SCoP asks exactly the questions
        of the first run, and every one is answered from the cache."""
        config = CacheConfig(1024, 4, 32, "plru")
        clear_decision_cache()
        hits, misses, solves = _lookups(kernel, config)
        assert misses > 0 and solves > 0
        assert _lookups(kernel, config) == (hits + misses, 0, 0)

    def test_policy_and_associativity_changes_reuse_decisions(self):
        clear_decision_cache()
        hits, misses, _ = _lookups("lu", CacheConfig(1024, 4, 32, "plru"))
        assert misses > 0
        for config in (CacheConfig(1024, 4, 32, "lru"),
                       CacheConfig(1024, 4, 32, "fifo"),
                       CacheConfig(1024, 8, 32, "plru")):
            assert _lookups("lu", config) == (hits + misses, 0, 0)

    def test_block_size_change_asks_new_questions(self):
        clear_decision_cache()
        _lookups("nussinov", CacheConfig(1024, 4, 32, "plru"))
        _, misses, solves = _lookups("nussinov",
                                     CacheConfig(1024, 4, 64, "plru"))
        assert misses > 0 and solves > 0

    def test_clear_forgets_every_answer(self):
        config = CacheConfig(1024, 4, 32, "plru")
        clear_decision_cache()
        cold = _lookups("lu", config)
        assert decision_cache_size() > 0
        clear_decision_cache()
        assert decision_cache_size() == 0
        assert _lookups("lu", config) == cold

    def test_sweep_points_share_the_decision_cache(self):
        """``run_point`` records carry the decision-cache counters:
        the first point of a capacity sweep fills the cache and the
        later points only hit it."""
        from repro.explore.runner import run_point
        from repro.explore.spec import SweepSpec

        spec = SweepSpec(kernels=["lu"], sizes=["MINI"],
                         l1_sizes=[512, 1024, 2048], l1_assocs=[4],
                         l1_policies=["plru"], block_sizes=[32])
        clear_decision_cache()
        counters = [run_point(point.to_dict())["result"]["counters"]
                    for point in spec.expand()]
        assert counters[0].get("isl.memo_misses", 0) > 0
        for later in counters[1:]:
            assert later.get("isl.memo_misses", 0) == 0
            assert later.get("ilp.solves", 0) == 0
            assert later["isl.memo_hits"] == (
                counters[0].get("isl.memo_hits", 0)
                + counters[0]["isl.memo_misses"])


def _domain_keys(scop):
    """Canonical keys of every loop and access domain of ``scop`` —
    the sets the warp analyses build their queries from."""
    loops = tuple(loop.domain.canonical_key() for loop in scop.loop_nodes())
    accesses = tuple(
        (None if node.full_domain is None
         else node.full_domain.canonical_key(), repr(node.addr_expr))
        for node in scop.access_nodes())
    return loops, accesses


class TestDomainKeys:
    """Cross-build decision reuse rests on rebuilt SCoPs producing the
    same canonical domain keys, and on different programs not."""

    def test_stable_across_rebuilds(self):
        assert _domain_keys(build_kernel("gemm", "MINI")) == \
            _domain_keys(build_kernel("gemm", "MINI"))

    def test_sizes_and_kernels_distinguish(self):
        keys = {
            _domain_keys(build_kernel("gemm", "MINI")),
            _domain_keys(build_kernel("gemm", "SMALL")),
            _domain_keys(build_kernel("atax", "MINI")),
        }
        assert len(keys) == 3

    def test_transform_changes_keys(self):
        plain = _domain_keys(build_kernel("mvt", "MINI"))
        tiled = _domain_keys(
            build_kernel("mvt", "MINI", transform="tile(i,j:8x8)"))
        assert plain != tiled

    def test_transform_keys_stable(self):
        a = _domain_keys(
            build_kernel("mvt", "MINI", transform="tile(i,j:8x8)"))
        b = _domain_keys(
            build_kernel("mvt", "MINI", transform="tile(i,j:8x8)"))
        assert a == b


# -- negate (strict-inequality satellite bugfix) -------------------------------


class TestNegate:
    def test_rational_inequality_negates_exactly(self):
        """Pinned regression: with e = i/2, "not (e >= 0)" is i <= -1;
        the unscaled rule "-e - 1 >= 0" would wrongly claim i <= -2."""
        half = BasicSet(["i"], ineqs=[x("i", Fraction(1, 2))])
        complement = half.negate()
        assert complement.contains((-1,))
        assert complement.contains((-2,))
        assert not complement.contains((0,))

    def test_rational_equality_negates_exactly(self):
        line = BasicSet(["i"], eqs=[x("i", Fraction(1, 3)) - 1])  # i == 3
        complement = line.negate()
        for value in range(-6, 7):
            assert complement.contains((value,)) == (value != 3)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_negate_differential_vs_enumeration(self, data):
        """Complement within a box == box points minus set points, for
        random constraints with rational coefficients."""
        denominator = data.draw(st.sampled_from([1, 2, 3]))
        n_cons = data.draw(st.integers(1, 3))
        constraints = []
        for _ in range(n_cons):
            coeffs = {name: Fraction(data.draw(st.integers(-3, 3)),
                                     denominator)
                      for name in ["i", "j"]}
            const = Fraction(data.draw(st.integers(-4, 4)), denominator)
            constraints.append(LinExpr(coeffs, const))
        as_eq = data.draw(st.booleans())
        basic = BasicSet(
            ["i", "j"],
            eqs=constraints[:1] if as_eq else (),
            ineqs=constraints[1:] if as_eq else constraints,
        )
        box = BasicSet.from_bounds(["i", "j"],
                                   {"i": (-3, 3), "j": (-3, 3)})
        inside = set(box.intersect(basic).enumerate_points())
        complement_inside = set(
            basic.negate().intersect_basic(box).enumerate_points())
        everything = set(box.enumerate_points())
        assert inside | complement_inside == everything
        assert inside & complement_inside == set()

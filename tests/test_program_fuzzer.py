"""Random programs against an independent oracle, per cache level.

The tree engine, plain symbolic simulation and warping share the
innermost-loop executor and the transition tables, so none of them can
be the others' reference.  The oracle here shares no code with the
engines: the trace comes from :func:`~repro.simulation.trace.iter_trace`,
which walks the SCoP tree on its own, and it runs through the test-local
hierarchy of ``tests/test_hierarchy_oracle.py``, whose sets call the
policy's ``on_hit``/``on_miss`` and whose NINE, inclusive and exclusive
descents are written out there.

Programs are random 1- to 3-deep affine nests built with
:class:`~repro.polyhedral.ScopBuilder`: triangular bounds, strides,
guarded accesses, accesses beside inner loops, and 1 to 3 arrays at
block-misaligned bases with random row lengths.  Each runs on a random
single cache or 2- or 3-level hierarchy under every inclusion policy,
whole or split into 2 or 4 set shards whose results are merged.  Every
engine must report the oracle's hits and misses at every level, with
the ILP certificates checked.

Tier-1 runs a fixed derandomised budget of 600 programs (about 25 s on
one vCPU).  :func:`check` is the whole property, so a longer randomised
run (CI runs one) wraps it in other settings::

    from hypothesis import given, settings
    settings(max_examples=2000, deadline=None)(given(cases())(check))()
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.policies import POLICIES
from repro.isl import verification
from repro.perf.sharding import shard_simulate
from repro.polyhedral import ScopBuilder
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation.trace import iter_trace
from test_hierarchy_oracle import OracleHierarchy

BLOCK = 16

#: Iterator names, outermost first.
ITERATORS = ("i", "j", "k")


@st.composite
def programs(draw):
    """A random SCoP of one 1- to 3-deep nest."""
    # 8-byte alignment and odd element counts put array bases (and rows)
    # off the 16-byte block grid.
    b = ScopBuilder("fuzz", alignment=8)
    b.array("pad", (draw(st.integers(1, 3)),))
    arrays = [b.array(f"A{n}", (48, draw(st.integers(3, 21))))
              for n in range(draw(st.integers(1, 3)))]
    depth = draw(st.integers(1, 3))
    #: An upper bound on each open iterator's values.
    highest = {}
    #: ``(array, row coefficients, column coefficients)`` of every access
    #: so far: a later access may reuse one at other offsets (a stencil
    #: neighbour), so blocks are reused across iterations and warps.
    patterns = []

    def subscript(open_iterators, coeffs):
        """An affine, non-negative subscript of the open iterators."""
        expr = draw(st.integers(0, 6))
        for name, coeff in zip(open_iterators, coeffs):
            if coeff < 0:
                expr += highest[name]  # keeps the reversed sweep >= 0
            expr = b.iter_expr(name) * coeff + expr
        return expr

    def accesses(open_iterators, count):
        coeff = st.sampled_from([0, 0, 1, 1, 2, -1])
        for _ in range(count):
            # Half the fresh patterns share the first array, so accesses
            # that shift differently touch the same blocks.
            pattern = (arrays[0] if draw(st.booleans())
                       else draw(st.sampled_from(arrays)),
                       [draw(coeff) for _ in open_iterators[:-1]],
                       [draw(coeff) for _ in open_iterators])
            reused = [p for p in patterns if len(p[2]) == len(pattern[2])]
            if reused and draw(st.booleans()):
                pattern = draw(st.sampled_from(reused))
            patterns.append(pattern)
            array, row, column = pattern
            guard = ()
            if open_iterators and draw(st.integers(0, 3)) == 0:
                own = b.iter_expr(open_iterators[-1])
                # The guard flips anywhere in the loop's range, also
                # late, where a warp may already have started.
                cut = draw(st.integers(0, highest[open_iterators[-1]]))
                if len(open_iterators) > 1 and draw(st.booleans()):
                    # A guard coupling two iterators.
                    outer = b.iter_expr(open_iterators[-2])
                    guard = [own - outer - cut // 4]
                else:
                    guard = [own - cut if draw(st.booleans()) else cut - own]
            b.access(array, subscript(open_iterators, row),
                     subscript(open_iterators, column),
                     is_write=draw(st.booleans()), guard=guard)

    def nest(level):
        name = ITERATORS[level]
        outer = ITERATORS[:level]
        innermost = level == depth - 1
        trips = draw(st.integers(4, 48) if innermost else st.integers(1, 8))
        stride = draw(st.sampled_from([1, 1, 1, 2, 3]))
        lower, upper = 0, trips * stride
        highest[name] = upper
        if outer and draw(st.integers(0, 2)) == 0:
            # Triangular: a bound follows the enclosing iterator.
            around = b.iter_expr(outer[-1])
            if draw(st.booleans()):
                lower, upper = around, around + trips * stride
                highest[name] = highest[outer[-1]] + trips * stride
            else:
                reach = draw(st.integers(1, 8))
                upper = around + reach
                highest[name] = highest[outer[-1]] + reach
        with b.loop(name, lower, upper, stride=stride):
            if innermost:
                accesses(outer + (name,), draw(st.integers(1, 3)))
                return
            accesses(outer + (name,), draw(st.integers(0, 1)))
            nest(level + 1)
            accesses(outer + (name,), draw(st.integers(0, 1)))

    nest(0)
    return b.build()


LEVEL = st.tuples(st.sampled_from(sorted(POLICIES)),
                  st.sampled_from([1, 2, 4]),
                  st.sampled_from(list(WritePolicy)),
                  st.sampled_from([1, 2]))


@st.composite
def targets(draw):
    """A single cache or a 2- or 3-level hierarchy; each level has 1 or 2
    times the sets of the one inside it (the rotation rule)."""
    shapes = draw(st.lists(LEVEL, min_size=1, max_size=3))
    levels, sets = [], draw(st.sampled_from([1, 2, 4, 8]))
    for depth, (policy, assoc, write_policy, growth) in enumerate(shapes):
        if depth:
            sets *= growth
        if policy == "nmru":
            assoc = max(assoc, 2)  # NMRU needs two ways
        levels.append(CacheConfig(sets * assoc * BLOCK, assoc, BLOCK,
                                  policy, write_policy=write_policy,
                                  name=f"L{depth + 1}"))
    if len(levels) == 1:
        return levels[0]
    return HierarchyConfig(levels=levels,
                           inclusion=draw(st.sampled_from(
                               list(InclusionPolicy))))


def cases():
    """``(program, target, shard count)`` triples."""
    return st.tuples(programs(), targets(), st.sampled_from([1, 1, 2, 4]))


def oracle_levels(scop, config):
    """Per-level ``(hits, misses)`` of the oracle on the SCoP's trace."""
    if isinstance(config, HierarchyConfig):
        oracle = OracleHierarchy(config)
    else:
        oracle = OracleHierarchy(SimpleNamespace(
            levels=[config], inclusion=InclusionPolicy.NINE))
    for block, is_write in iter_trace(scop, BLOCK):
        oracle.access(block, None, is_write)
    return [(level.hits, level.misses) for level in oracle.levels]


def engine_results(scop, config, shards):
    """The tree, plain symbolic and warping results, merged over
    ``shards`` set shards when there is more than one."""
    if shards > 1:
        return {
            "tree": shard_simulate(scop, config, "tree", shards, workers=1),
            "symbolic": shard_simulate(scop, config, "warping", shards,
                                       workers=1, enable_warping=False),
            "warping": shard_simulate(scop, config, "warping", shards,
                                      workers=1),
        }
    concrete = (CacheHierarchy(config)
                if isinstance(config, HierarchyConfig) else Cache(config))
    return {
        "tree": simulate_nonwarping(scop, concrete),
        "symbolic": simulate_warping(scop, config, enable_warping=False),
        "warping": simulate_warping(scop, config),
    }


def check(case):
    """Every engine reports the oracle's hits and misses per level."""
    scop, config, shards = case
    expected = oracle_levels(scop, config)
    with verification():
        results = engine_results(scop, config, shards)
    for engine, result in results.items():
        assert [(s.hits, s.misses) for s in result.levels] == expected, (
            engine, config, shards)


@settings(deadline=None, max_examples=600, derandomize=True)
@given(case=cases())
def test_programs_equal_the_oracle(case):
    check(case)


def test_ways_filled_before_detection_move_with_no_warp():
    """The reads of X before the i loop fill sets 1 and 3 of a 4-set
    direct-mapped cache while no loop detects matches, so they store no
    symbol.  The i loop's read of A moves two sets per iteration, so it
    matches its own state one iteration later, rotated by two sets,
    unless the two blocks of X tell sets 1 and 3 apart: their
    constant-block symbols do, ways without a symbol would look empty.
    Warped by an odd number of iterations, such a rotation would swap
    them, and the last two reads of X would miss."""
    b = ScopBuilder("rotated", alignment=16)
    X = b.array("X", (8,))
    A = b.array("A", (168,))
    b.read(X, 2)
    b.read(X, 6)
    with b.loop("i", 0, 40):
        b.read(A, 4 * b.i)
    b.read(X, 2)
    b.read(X, 6)
    check((b.build(), CacheConfig(64, 1, BLOCK, "lru"), 1))

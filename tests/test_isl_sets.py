"""Unit and property tests for repro.isl.sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet, Set

I, J = LinExpr.var("i"), LinExpr.var("j")


def triangle(n=5):
    """{(i,j) | 0 <= i <= n-1, i <= j <= n-1}."""
    return BasicSet(("i", "j"), ineqs=[I, -I + n - 1, J - I, -J + n - 1])


def test_universe_and_empty():
    assert not BasicSet.universe(("i",)).with_constraint_ge0(
        I).with_constraint_ge0(-I + 3).is_empty()
    assert BasicSet.empty(("i",)).is_empty()


def test_from_bounds_box():
    box = BasicSet.from_bounds(("i", "j"), {"i": (0, 2), "j": (1, 3)})
    points = box.enumerate_points()
    assert len(points) == 9
    assert (0, 1) in points and (2, 3) in points


def test_contains():
    tri = triangle()
    assert tri.contains((0, 0))
    assert tri.contains((2, 4))
    assert not tri.contains((3, 2))
    assert not tri.contains((-1, 0))


def test_contains_arity_check():
    with pytest.raises(ValueError):
        triangle().contains((1,))


def test_lexmin_lexmax():
    tri = triangle()
    assert tri.lexmin() == (0, 0)
    assert tri.lexmax() == (4, 4)
    assert BasicSet.empty(("i",)).lexmin() is None


def test_min_max_of_expression():
    tri = triangle()
    assert tri.min_of(J - I) == 0
    assert tri.max_of(J - I) == 4
    assert tri.max_of(I + J) == 8


def test_sample_member():
    tri = triangle()
    assert tri.contains(tri.sample())
    assert BasicSet.empty(("i", "j")).sample() is None


def test_intersect():
    tri = triangle()
    upper = BasicSet(("i", "j"), ineqs=[I - 2])
    both = tri.intersect(upper)
    assert both.lexmin() == (2, 2)


def test_divs_mod_constraint():
    """Even i within [0, 9]."""
    base = BasicSet.from_bounds(("i",), {"i": (0, 9)})
    with_div, q = base.with_div(I, 2)
    even = with_div.with_constraint_eq0(I - LinExpr.var(q) * 2)
    assert [p[0] for p in even.enumerate_points()] == [0, 2, 4, 6, 8]


def test_div_membership_fast_path():
    base = BasicSet.from_bounds(("i",), {"i": (0, 9)})
    with_div, q = base.with_div(I, 3)
    multiple = with_div.with_constraint_eq0(I - LinExpr.var(q) * 3)
    assert multiple.contains((6,))
    assert not multiple.contains((7,))


def test_negate_box():
    box = BasicSet.from_bounds(("i",), {"i": (2, 4)})
    complement = box.negate()
    assert not complement.contains((2,))
    assert not complement.contains((4,))
    assert complement.contains((1,))
    assert complement.contains((5,))


def test_negate_with_divs():
    base = BasicSet.universe(("i",))
    with_div, q = base.with_div(I, 2)
    even = with_div.with_constraint_eq0(I - LinExpr.var(q) * 2)
    odd = even.negate()
    assert odd.contains((3,))
    assert not odd.contains((4,))


def test_negate_rejects_existentials():
    hidden = triangle().project_to_exists(["j"])
    with pytest.raises(ValueError):
        hidden.negate()


def test_projection_via_exists():
    projected = triangle().project_to_exists(["j"])
    assert projected.dims == ("i",)
    assert projected.contains((4,))
    assert not projected.contains((5,))


def test_set_union_subtract():
    tri = Set.from_basic(triangle())
    strip = Set.from_basic(BasicSet(("i", "j"), ineqs=[I - 1, -I + 2]))
    diff = tri.subtract(strip)
    expected = sorted(
        p for p in triangle().enumerate_points() if not 1 <= p[0] <= 2
    )
    assert diff.enumerate_points() == expected
    total = diff.union(tri.intersect(strip))
    assert total.enumerate_points() == triangle().enumerate_points()


def test_set_lex_optima():
    pieces = Set(("i",), [
        BasicSet.from_bounds(("i",), {"i": (5, 7)}),
        BasicSet.from_bounds(("i",), {"i": (-2, 0)}),
    ])
    assert pieces.lexmin() == (-2,)
    assert pieces.lexmax() == (7,)
    assert pieces.min_of(I) == -2
    assert pieces.max_of(I) == 7


def test_rename_dims_keeps_points():
    """Schedule transforms rename loop dims; the renamed set holds the
    same points under the new names."""
    tri = BasicSet(("i", "j"), ineqs=[I, J, I - J, -I + 4])
    renamed = tri.rename_dims({"i": "t", "j": "u"})
    assert renamed.dims == ("t", "u")
    assert renamed.enumerate_points() == tri.enumerate_points()
    T = LinExpr.var("t")
    assert renamed.max_of(T) == tri.max_of(I) == 4


def test_with_constraint_eq0_fixes_a_coordinate():
    """Fixing the outer dims of a domain (as the SCoP model does for
    an iterator prefix) leaves the inner loop's range."""
    tri = BasicSet(("i", "j"), ineqs=[I, J, I - J, -I + 9])
    fixed = tri.with_constraint_eq0(I - 4)
    assert fixed.range_of(J) == (0, 4)
    assert fixed.lexmin() == (4, 0) and fixed.lexmax() == (4, 4)
    assert tri.with_constraint_eq0(I - 12).is_empty()


def test_range_of_matches_enumeration():
    tri = BasicSet(("i", "j"), ineqs=[I, J - 1, I - J, -I + 6])
    points = tri.enumerate_points()
    for expr in (I, J, 3 * I - 2 * J + 5, J - I):
        values = [expr.evaluate(dict(zip(("i", "j"), p))) for p in points]
        assert tri.range_of(expr) == (min(values), max(values)), expr


def test_range_of_empty_set_is_none():
    empty = BasicSet(("i",), ineqs=[I - 3, -I + 2])
    assert empty.range_of(I) is None
    assert Set(("i",), [empty]).range_of(I) is None


def test_enumerate_limit():
    big = BasicSet.from_bounds(("i", "j"),
                               {"i": (0, 4000), "j": (0, 4000)})
    with pytest.raises(ValueError):
        big.enumerate_points(limit=1000)


@settings(deadline=None, max_examples=40)
@given(
    a=st.integers(-3, 3), b=st.integers(-3, 3), c=st.integers(-6, 6),
    d=st.integers(-3, 3), e=st.integers(-3, 3), f=st.integers(-6, 6),
)
def test_random_polygon_matches_brute_force(a, b, c, d, e, f):
    """lexmin/lexmax/emptiness agree with enumeration on random polygons."""
    box = BasicSet.from_bounds(("i", "j"), {"i": (-4, 4), "j": (-4, 4)})
    poly = box.with_constraint_ge0(a * I + b * J + c)
    poly = poly.with_constraint_ge0(d * I + e * J + f)
    brute = [
        (i, j)
        for i in range(-4, 5)
        for j in range(-4, 5)
        if a * i + b * j + c >= 0 and d * i + e * j + f >= 0
    ]
    if not brute:
        assert poly.is_empty()
    else:
        assert poly.lexmin() == min(brute)
        assert poly.lexmax() == max(brute)

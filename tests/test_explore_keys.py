"""Regression pins for repro.explore store content keys.

Sweep stores are content-addressed by ``SweepPoint.key()`` (SHA-256
over the point's canonical JSON form).  Interrupted campaigns resume by
key, so *any* drift in the canonical form silently orphans every stored
result.  These tests pin the exact digests of representative 1/2/3-
level points: if one fails, the serialisation changed in a way that
breaks resume compatibility — either restore the old canonical form or
ship an explicit store migration.
"""

from repro.explore.spec import SweepPoint

PINNED = {
    # single-level L1 point (the PR-1 era schema)
    "8aceff54b1c6822b4a9ca1743ccc3a1b996d4f4bf3662f0c68563f961d13ad46":
        SweepPoint(kernel="gemm", size="MINI", l1_size=32 * 1024,
                   l1_assoc=8, l1_policy="plru", block_size=64),
    # two-level hierarchy point
    "ddcc8124eaf78a08820813066dc60fcbf740937129dd7fb69cb636a0fa8a34b0":
        SweepPoint(kernel="atax", size="SMALL", l1_size=32 * 1024,
                   l1_assoc=8, l1_policy="plru", block_size=64,
                   l2_size=1024 * 1024, l2_assoc=16, l2_policy="qlru"),
    # three-level inclusive hierarchy point (the PR-2 axes)
    "4982a53b3b21dd106bee1766ec9627cc318c2ab51bae059e7b94ad28f67fcc97":
        SweepPoint(kernel="jacobi-2d", size="MINI", l1_size=2048,
                   l1_assoc=8, l1_policy="plru", block_size=32,
                   l2_size=16 * 1024, l2_assoc=16, l2_policy="qlru",
                   l3_size=128 * 1024, l3_assoc=16, l3_policy="qlru",
                   inclusion="inclusive"),
    # explicit-dict problem size
    "4a150c132260db4177bda77c696b8db1b4c9eb8fffb9b6ecff70f6a28885d468":
        SweepPoint(kernel="mvt", size={"N": 24}, l1_size=1024,
                   l1_assoc=4, l1_policy="lru", block_size=16),
    # transformed point (the PR-3 axis)
    "b1435690f92b7f076e38a1d0490519e6573c654bce3ad7393bceddc7e2ac64a9":
        SweepPoint(kernel="mvt", size="MINI", l1_size=2048, l1_assoc=8,
                   l1_policy="plru", block_size=64,
                   transform="tile(i,j:8x8)"),
}


def test_content_keys_are_pinned():
    for expected, point in PINNED.items():
        assert point.key() == expected, point


def test_keys_survive_json_roundtrip():
    for expected, point in PINNED.items():
        assert SweepPoint.from_dict(point.to_dict()).key() == expected


def test_default_transform_leaves_key_unchanged():
    """The transforms axis must not leak into untransformed points:
    their canonical form (hence key) predates the axis."""
    point = SweepPoint(kernel="gemm", size="MINI", l1_size=32 * 1024,
                       l1_assoc=8, l1_policy="plru", block_size=64)
    assert "transform" not in point.to_dict()
    assert point.key() == \
        "8aceff54b1c6822b4a9ca1743ccc3a1b996d4f4bf3662f0c68563f961d13ad46"


def test_computed_record_carries_phases_but_keeps_its_key():
    """The PR-5 observability payload (phases/counters in the
    *result* section) must never leak into the content key: keys hash
    the point dict only, so profiled stores stay resume-compatible."""
    from repro.explore.runner import run_point

    point = SweepPoint(kernel="mvt", size={"N": 24}, l1_size=1024,
                       l1_assoc=4, l1_policy="lru", block_size=16)
    record = run_point(point.to_dict())
    assert record["key"] == \
        "4a150c132260db4177bda77c696b8db1b4c9eb8fffb9b6ecff70f6a28885d468"
    assert record["status"] == "ok"
    result = record["result"]
    assert "phases" in result and "counters" in result
    # And the phase payload itself must not perturb the key either.
    assert point.key() == record["key"]


def test_transform_spelling_does_not_change_key():
    """Pipelines are canonicalised before hashing, so equivalent
    spellings address the same stored result."""
    variants = [
        "tile(i,j:8x8)",
        " TILE ( i , j : 8 x 8 ) ; ",
        "tile(i,j:8)",
    ]
    keys = {
        SweepPoint(kernel="mvt", size="MINI", l1_size=2048, l1_assoc=8,
                   l1_policy="plru", block_size=64,
                   transform=spelling).key()
        for spelling in variants
    }
    assert keys == {
        "b1435690f92b7f076e38a1d0490519e6573c654bce3ad7393bceddc7e2ac64a9"
    }

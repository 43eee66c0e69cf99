"""Tests for N-level hierarchies end to end: config validation,
concrete three-level semantics, per-level results, sweep-spec depth
dimensions, lN objectives, and the generic CLI level specs."""

import json
import random

import pytest

from repro.cache.config import CacheConfig, HierarchyConfig, InclusionPolicy
from repro.cache.config import test_system_hierarchy as paper_hierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.cli import main, parse_level_spec, parse_size
from repro.explore.frontier import pareto_frontier, resolve_objective
from repro.explore.spec import SweepPoint, SweepSpec
from repro.simulation.result import (LevelStats, SimulationResult,
                                     result_payload)


def three_level(inclusion=InclusionPolicy.NINE, policies=("lru",) * 3):
    return HierarchyConfig(
        levels=(CacheConfig(256, 2, 16, policies[0], name="L1"),
                CacheConfig(1024, 4, 16, policies[1], name="L2"),
                CacheConfig(4096, 4, 16, policies[2], name="L3")),
        inclusion=inclusion,
    )


# ------------------------------------------------------------- config


def test_legacy_constructors_still_work():
    a = HierarchyConfig(CacheConfig(256, 2, 16), CacheConfig(1024, 4, 16))
    b = HierarchyConfig(l1=CacheConfig(256, 2, 16),
                        l2=CacheConfig(1024, 4, 16))
    assert a == b
    assert a.depth == 2
    assert a.l1.size_bytes == 256 and a.l2.size_bytes == 1024
    assert a.inclusion is InclusionPolicy.NINE


def test_three_positional_levels():
    config = HierarchyConfig(CacheConfig(256, 2, 16),
                             CacheConfig(1024, 4, 16),
                             CacheConfig(4096, 4, 16))
    assert config.depth == 3
    assert [cfg.size_bytes for cfg in config] == [256, 1024, 4096]


def test_levels_keyword_and_inclusion_string():
    config = HierarchyConfig(
        levels=(CacheConfig(256, 2, 16), CacheConfig(1024, 4, 16)),
        inclusion="exclusive")
    assert config.inclusion is InclusionPolicy.EXCLUSIVE


def test_rotation_symmetry_validated_per_adjacent_pair():
    # L3 has fewer sets than L2: 1024B/4w/16B = 16 sets vs 64 sets.
    with pytest.raises(ValueError, match="multiple of the L2 set count"):
        HierarchyConfig(CacheConfig(256, 2, 16),      # 8 sets
                        CacheConfig(4096, 4, 16),     # 64 sets
                        CacheConfig(1024, 4, 16))     # 16 sets


def test_block_size_validated_across_all_levels():
    with pytest.raises(ValueError, match="share a block size"):
        HierarchyConfig(CacheConfig(256, 2, 16),
                        CacheConfig(1024, 4, 16),
                        CacheConfig(4096, 4, 32))


def test_at_least_two_levels():
    with pytest.raises(ValueError, match="at least two levels"):
        HierarchyConfig(levels=(CacheConfig(256, 2, 16),))


def test_inclusion_parse_rejects_unknown():
    with pytest.raises(ValueError, match="unknown inclusion policy"):
        InclusionPolicy.parse("mostly-inclusive")


def test_paper_style_three_level_test_system():
    config = paper_hierarchy(depth=3)
    assert config.depth == 3
    assert [cfg.name for cfg in config] == ["L1", "L2", "L3"]
    assert config.levels[2].size_bytes == 8 * 1024 * 1024
    assert config.block_size == 64


# --------------------------------------------------- concrete hierarchy


def test_three_level_nine_only_misses_descend():
    h = CacheHierarchy(three_level())
    outcome = h.access(0)
    assert outcome == (False, False, False)
    assert h.access(0) == (True, None, None)
    assert h.levels[1].accesses == 1 and h.levels[2].accesses == 1


def test_three_level_counters_cascade():
    rng = random.Random(11)
    h = CacheHierarchy(three_level())
    n = 500
    for _ in range(n):
        h.access(rng.randrange(0, 120))
    l1, l2, l3 = h.levels
    assert l1.hits + l1.misses == n
    assert l2.hits + l2.misses == l1.misses
    assert l3.hits + l3.misses == l2.misses
    assert h.level_misses == (l1.misses, l2.misses, l3.misses)


def test_three_level_inclusive_subset_invariant():
    rng = random.Random(5)
    h = CacheHierarchy(three_level(InclusionPolicy.INCLUSIVE))
    for _ in range(600):
        h.access(rng.randrange(0, 400), rng.random() < 0.3)
        blocks = [
            {b for s in cache.sets for b in s.lines if b is not None}
            for cache in h.levels
        ]
        assert blocks[0] <= blocks[1] <= blocks[2]


def test_three_level_exclusive_no_duplication():
    rng = random.Random(6)
    h = CacheHierarchy(three_level(InclusionPolicy.EXCLUSIVE))
    for _ in range(600):
        h.access(rng.randrange(0, 400), rng.random() < 0.3)
        blocks = [
            {b for s in cache.sets for b in s.lines if b is not None}
            for cache in h.levels
        ]
        assert not (blocks[0] & blocks[1])
        assert not (blocks[0] & blocks[2])
        assert not (blocks[1] & blocks[2])


@pytest.mark.parametrize("inclusion", list(InclusionPolicy))
def test_three_level_data_independence(inclusion):
    """Corollary 5 at depth 3: block shifts commute with updates."""
    rng = random.Random(21)
    trace = [(rng.randrange(0, 128), rng.random() < 0.25)
             for _ in range(400)]
    shift = 16
    a = CacheHierarchy(three_level(inclusion))
    for block, is_write in trace:
        a.access(block, is_write)
    b = CacheHierarchy(three_level(inclusion))
    for block, is_write in trace:
        b.access(block + shift, is_write)
    assert a.level_misses == b.level_misses
    assert a.apply_bijection(lambda blk: blk + shift).state_key() \
        == b.state_key()


# ------------------------------------------------------------- results


def test_result_legacy_kwargs_and_properties():
    result = SimulationResult(scop_name="x", accesses=10, l1_hits=7,
                              l1_misses=3, l2_hits=2, l2_misses=1)
    assert result.depth == 2
    assert result.l1_misses == 3 and result.l2_misses == 1
    assert result.misses == 3
    result.l2_misses = 5
    assert result.levels[1].misses == 5


def test_result_single_level_l2_reads_as_zero():
    result = SimulationResult(scop_name="x", accesses=4, l1_hits=2,
                              l1_misses=2)
    assert result.depth == 1
    assert result.l2_hits == 0 and result.l2_misses == 0


def test_result_payload_three_levels():
    result = SimulationResult(
        scop_name="k", accesses=100,
        levels=[LevelStats("L1", 60, 40), LevelStats("L2", 30, 10),
                LevelStats("L3", 0, 10)])
    payload = result_payload(result)
    assert payload["l1_misses"] == 40
    assert payload["l2_misses"] == 10
    assert payload["l3_hits"] == 0 and payload["l3_misses"] == 10


def test_merge_counts_match_per_level():
    a = SimulationResult("k", accesses=10,
                         levels=[LevelStats("L1", 5, 5),
                                 LevelStats("L2", 3, 2),
                                 LevelStats("L3", 1, 1)])
    b = SimulationResult("k", accesses=10,
                         levels=[LevelStats("L1", 5, 5),
                                 LevelStats("L2", 3, 2),
                                 LevelStats("L3", 1, 1)])
    assert a.merge_counts_match(b)
    b.levels[2].misses = 2
    assert not a.merge_counts_match(b)


# ---------------------------------------------------------- sweep spec


def test_point_content_key_stable_without_l3():
    """Adding the depth axes must not change existing content keys."""
    point = SweepPoint("mvt", "MINI", 512, 4, "lru", 16,
                       l2_size=2048, l2_assoc=4, l2_policy="lru")
    payload = point.to_dict()
    assert "l3_size" not in payload and "inclusion" not in payload
    round_tripped = SweepPoint.from_dict(payload)
    assert round_tripped.key() == point.key()


def test_point_three_level_config_and_capacity():
    point = SweepPoint("mvt", "MINI", 512, 4, "lru", 16,
                       l2_size=2048, l2_assoc=4, l2_policy="lru",
                       l3_size=8192, l3_assoc=4, l3_policy="lru",
                       inclusion="inclusive")
    config = point.cache_config()
    assert isinstance(config, HierarchyConfig)
    assert config.depth == 3
    assert config.inclusion is InclusionPolicy.INCLUSIVE
    assert point.capacity == 512 + 2048 + 8192
    assert point.depth == 3
    assert SweepPoint.from_dict(point.to_dict()).key() == point.key()


def test_point_l3_requires_l2():
    with pytest.raises(ValueError, match="needs an L2"):
        SweepPoint("mvt", "MINI", 512, 4, "lru", 16, l3_size=8192)


def test_point_rejects_unknown_inclusion():
    with pytest.raises(ValueError, match="unknown inclusion"):
        SweepPoint("mvt", "MINI", 512, 4, "lru", 16,
                   l2_size=2048, inclusion="sometimes")


def test_spec_l3_and_inclusion_axes_gated_by_l2():
    spec = SweepSpec(kernels=["mvt"], l1_sizes=[512], l1_assocs=[4],
                     l1_policies=["lru"], block_sizes=[16],
                     l2_sizes=[0, 2048], l2_assocs=[4],
                     l2_policies=["lru"],
                     l3_sizes=[0, 8192], l3_assocs=[4],
                     l3_policies=["lru"],
                     inclusions=["nine", "exclusive"])
    points = spec.expand()
    # l2=0 contributes exactly one single-level point; l2=2048 crosses
    # inclusion x l3 in {0, 8192}: 2 * 2 = 4 hierarchy points.
    assert len(points) == 1 + 4
    depths = sorted(p.depth for p in points)
    assert depths == [1, 2, 2, 3, 3]
    assert {p.inclusion for p in points if p.depth > 1} \
        == {"nine", "exclusive"}
    assert spec.grid_size() == len(points)


def test_spec_rejects_l3_or_inclusion_without_any_l2():
    """The depth axes must not be silently dropped: a grid that can
    never have an L2 rejects l3/inclusion requests outright."""
    with pytest.raises(ValueError, match="an L3 needs an L2"):
        SweepSpec(kernels=["mvt"], l1_sizes=[512], l3_sizes=[8192])
    with pytest.raises(ValueError, match="need a hierarchy"):
        SweepSpec(kernels=["mvt"], l1_sizes=[512],
                  inclusions=["exclusive"])
    # A mixed grid (some points with an L2) is fine.
    spec = SweepSpec(kernels=["mvt"], l1_sizes=[512], l1_assocs=[4],
                     l1_policies=["lru"], block_sizes=[16],
                     l2_sizes=[0, 2048], l2_assocs=[4],
                     l2_policies=["lru"], l3_sizes=[0, 8192],
                     l3_assocs=[4], l3_policies=["lru"],
                     inclusions=["exclusive"])
    assert {p.depth for p in spec.expand()} == {1, 2, 3}


def test_spec_from_dict_accepts_depth_fields():
    spec = SweepSpec.from_dict({
        "kernels": ["mvt"], "l1_sizes": [512], "l1_assocs": [4],
        "l1_policies": ["lru"], "block_sizes": [16],
        "l2_sizes": [2048], "l2_assocs": [4], "l2_policies": ["lru"],
        "l3_sizes": [8192], "l3_assocs": [4], "l3_policies": ["lru"],
        "inclusions": ["inclusive"],
    })
    points = spec.expand()
    assert len(points) == 1 and points[0].depth == 3
    assert spec.to_dict()["inclusions"] == ["inclusive"]


# ----------------------------------------------------------- frontier


def _record(kernel, l1, l2, l3, misses):
    point = {"kernel": kernel, "size": "MINI", "l1_size": l1,
             "l1_assoc": 4, "l1_policy": "lru", "block_size": 16,
             "engine": "warping", "write_allocate": True}
    result = {"program": kernel, "accesses": 1000,
              "l1_hits": 1000 - misses[0], "l1_misses": misses[0],
              "wall_time_s": 0.1}
    if l2:
        point.update(l2_size=l2, l2_assoc=4, l2_policy="lru")
        result.update(l2_hits=misses[0] - misses[1],
                      l2_misses=misses[1])
    if l3:
        point.update(l3_size=l3, l3_assoc=4, l3_policy="lru")
        result.update(l3_hits=misses[1] - misses[2],
                      l3_misses=misses[2])
    return {"key": f"{kernel}-{l1}-{l2}-{l3}", "point": point,
            "status": "ok", "result": result, "error": None}


def test_l3_misses_objective():
    records = [
        _record("mvt", 512, 2048, 8192, (100, 50, 25)),
        _record("mvt", 512, 2048, 16384, (100, 50, 10)),
    ]
    frontier = pareto_frontier(records,
                               objectives=["capacity", "l3_misses"])
    assert len(frontier) == 2  # neither dominates the other


def test_lN_objective_rejects_shallow_records():
    records = [_record("mvt", 512, 2048, 0, (100, 50, 0))]
    with pytest.raises(ValueError, match="has no L3"):
        pareto_frontier(records, objectives=["l3_misses"])


def test_resolve_objective_unknown_name():
    with pytest.raises(ValueError, match="unknown objective"):
        resolve_objective("l0_misses")
    with pytest.raises(ValueError, match="unknown objective"):
        resolve_objective("throughput")
    assert resolve_objective("l7_misses") is not None


# ---------------------------------------------------------------- CLI


def test_parse_size_suffixes():
    assert parse_size("32768") == 32768
    assert parse_size("32KiB") == 32 * 1024
    assert parse_size("1M") == 1024 * 1024
    assert parse_size("2mib") == 2 * 1024 * 1024
    with pytest.raises(ValueError):
        parse_size("32xb")


def test_parse_level_spec():
    assert parse_level_spec("L1:32KiB:8:plru") == (1, 32 * 1024, 8,
                                                   "plru")
    assert parse_level_spec("l3:8MiB") == (3, 8 * 1024 * 1024, 8, "lru")
    with pytest.raises(ValueError, match="invalid level name"):
        parse_level_spec("LL:512")
    with pytest.raises(ValueError, match="unknown policy"):
        parse_level_spec("L1:512:4:mru")


def run_cli(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_cli_three_level_simulate_json(capsys):
    """Acceptance: a three-level NINE simulation through
    ``repro simulate --json`` reports per-level stats for all levels."""
    out = run_cli(capsys, [
        "simulate", "--kernel", "gemm", "--size",
        '{"NI": 10, "NJ": 12, "NK": 14}',
        "--cache", "L1:512:2:lru", "--cache", "L2:2KiB:4:lru",
        "--cache", "L3:8KiB:4:lru", "--block-size", "16", "--json",
    ])
    payload = json.loads(out)
    for level in (1, 2, 3):
        assert f"l{level}_hits" in payload
        assert f"l{level}_misses" in payload
    assert payload["l3_misses"] <= payload["l2_misses"] \
        <= payload["l1_misses"]
    assert payload["l1_hits"] + payload["l1_misses"] \
        == payload["accesses"]


def test_cli_cache_specs_must_be_contiguous():
    with pytest.raises(SystemExit, match="contiguous"):
        main(["simulate", "--kernel", "mvt", "--size", '{"N": 8}',
              "--cache", "L1:512:4:lru", "--cache", "L3:8KiB:4:lru",
              "--block-size", "16", "--json"])


def test_cli_cache_spec_bad_geometry_clean_error():
    with pytest.raises(SystemExit, match="--cache"):
        main(["simulate", "--kernel", "mvt", "--size", '{"N": 8}',
              "--cache", "L1:500:4:lru", "--block-size", "16"])


def test_cli_inclusion_rejected_without_hierarchy():
    """Like the sweep spec, the CLI must not silently ignore an
    inclusion policy on a single-level configuration."""
    for argv in (
        ["simulate", "--kernel", "mvt", "--size", '{"N": 8}',
         "--l1-size", "512", "--l1-assoc", "4", "--inclusion",
         "exclusive", "--block-size", "16"],
        ["simulate", "--kernel", "mvt", "--size", '{"N": 8}',
         "--cache", "L1:512:4:lru", "--inclusion", "inclusive",
         "--block-size", "16"],
    ):
        with pytest.raises(SystemExit, match="need a hierarchy"):
            main(argv)


def test_cli_legacy_flags_with_inclusion(capsys):
    out = run_cli(capsys, [
        "simulate", "--kernel", "mvt", "--size", '{"N": 16}',
        "--l1-size", "512", "--l1-assoc", "4", "--l1-policy", "lru",
        "--l2-size", "2048", "--l2-assoc", "4", "--l2-policy", "lru",
        "--inclusion", "exclusive", "--block-size", "16", "--json",
    ])
    payload = json.loads(out)
    assert "l2_misses" in payload


def test_cli_frontier_rejects_unknown_objective(tmp_path, capsys):
    store = str(tmp_path / "s.jsonl")
    run_cli(capsys, ["sweep", "--kernels", "mvt", "--sizes", "MINI",
                     "--l1-sizes", "512", "--l1-assocs", "4",
                     "--l1-policies", "lru", "--block-sizes", "16",
                     "--store", store])
    with pytest.raises(SystemExit, match="unknown objective"):
        main(["frontier", "--store", store,
              "--objectives", "capacity,bogus"])
    # Dynamic lN names validate fine (they may still reject shallow
    # records later, with a clear message).
    with pytest.raises(SystemExit, match="has no L2"):
        main(["frontier", "--store", store, "--objectives", "l2_misses"])


def test_cli_three_level_sweep_and_l3_frontier(tmp_path, capsys):
    store = str(tmp_path / "depth.jsonl")
    run_cli(capsys, [
        "sweep", "--kernels", "mvt", "--sizes", "MINI",
        "--l1-sizes", "512", "--l1-assocs", "4", "--l1-policies", "lru",
        "--l2-sizes", "2048", "--l2-assocs", "4", "--l2-policies", "lru",
        "--l3-sizes", "8192,16384", "--l3-assocs", "4",
        "--l3-policies", "lru", "--inclusions", "nine,inclusive",
        "--block-sizes", "16", "--store", store, "--json",
    ])
    out = run_cli(capsys, ["frontier", "--store", store,
                           "--objectives", "capacity,l3_misses",
                           "--json"])
    frontier = json.loads(out)
    assert frontier
    assert all("l3_size" in row["point"] for row in frontier)

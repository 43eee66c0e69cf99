"""Differential tests: set-sharded simulation == sequential, bit for bit.

The acceptance bar of the sharded engine: per-level hits and misses of
the merged shard results must be exactly equal to the sequential
engines' on every PolyBench kernel at hierarchy depths 1-3.  Shards run
serially in-process here (``workers=1``) so failures are deterministic
and debuggable; one test exercises the process-pool path end to end.
"""

import pytest

from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    IndexFunction,
    ShardedCacheConfig,
    shard_target_config,
    shardable_ways,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.perf.sharding import shard_simulate
from repro.polybench import all_kernel_names, build_kernel
from repro.simulation import simulate_nonwarping, simulate_warping

ALL_KERNELS = all_kernel_names()

#: Depth 2-3 warping subset: the warp-friendly stencils plus
#: triangular/guarded nests that stress the applicability analyses.
WARP_SUBSET = ["jacobi-1d", "jacobi-2d", "seidel-2d", "fdtd-2d",
               "trisolv", "lu", "gemm", "durbin"]

#: Size overrides for the warping differential: floyd-warshall at MINI
#: (N=60, ~650k accesses) is warp-hostile — tiny shard states match on
#: almost every iteration and each match runs the full (failing)
#: applicability analysis, making the MINI run take minutes without
#: adding coverage over a smaller instance of the same access pattern.
WARP_SIZES = {"floyd-warshall": {"N": 18}}


def _l1() -> CacheConfig:
    return CacheConfig(1024, 4, 32, "plru", name="L1")


def _config(depth: int):
    l1 = _l1()
    l2 = CacheConfig(4096, 8, 32, "qlru", name="L2")
    l3 = CacheConfig(16 * 1024, 8, 32, "qlru", name="L3")
    if depth == 1:
        return l1
    if depth == 2:
        return HierarchyConfig(l1, l2)
    return HierarchyConfig(levels=(l1, l2, l3))


def _sequential(scop, config):
    target = (CacheHierarchy(config)
              if isinstance(config, HierarchyConfig) else Cache(config))
    return simulate_nonwarping(scop, target)


def _assert_equal(merged, sequential, context):
    assert merged.accesses == sequential.accesses, context
    assert len(merged.levels) == len(sequential.levels), context
    for mine, theirs in zip(merged.levels, sequential.levels):
        assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses), \
            (context, mine.name)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_sharded_tree_equals_sequential(kernel, depth):
    scop = build_kernel(kernel, "MINI")
    config = _config(depth)
    sequential = _sequential(scop, config)
    merged = shard_simulate(scop, config, engine="tree",
                            shards=4, workers=1)
    assert merged.extra["shards"] == 4
    _assert_equal(merged, sequential, (kernel, depth, "tree"))


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_sharded_warping_equals_sequential_depth1(kernel):
    scop = build_kernel(kernel, WARP_SIZES.get(kernel, "MINI"))
    config = _config(1)
    sequential = _sequential(scop, config)
    merged = shard_simulate(scop, config, engine="warping",
                            shards=4, workers=1)
    _assert_equal(merged, sequential, (kernel, 1, "warping"))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("kernel", WARP_SUBSET)
def test_sharded_warping_equals_sequential_hierarchy(kernel, depth):
    scop = build_kernel(kernel, "MINI")
    config = _config(depth)
    sequential = _sequential(scop, config)
    merged = shard_simulate(scop, config, engine="warping",
                            shards=4, workers=1)
    _assert_equal(merged, sequential, (kernel, depth, "warping"))


@pytest.mark.parametrize("inclusion", ["inclusive", "exclusive"])
def test_sharded_inclusion_policies(inclusion):
    scop = build_kernel("jacobi-2d", "MINI")
    config = HierarchyConfig(
        _l1(), CacheConfig(4096, 8, 32, "lru", name="L2"),
        inclusion=inclusion)
    sequential = _sequential(scop, config)
    for engine in ("tree", "warping"):
        merged = shard_simulate(scop, config, engine=engine,
                                shards=4, workers=1)
        _assert_equal(merged, sequential, (inclusion, engine))


def test_shard_pool_workers_match_serial():
    """The process-pool path merges to the same counts as serial."""
    scop = build_kernel("mvt", "MINI")
    config = _config(2)
    sequential = _sequential(scop, config)
    for engine in ("tree", "warping"):
        merged = shard_simulate(scop, config, engine=engine,
                                shards=4, workers=2)
        _assert_equal(merged, sequential, ("pool", engine))
        assert merged.extra["workers"] == 2
        assert len(merged.extra["shard_cpu_s"]) == 4
        assert merged.extra["critical_path_s"] > 0


def test_shard_counts_sum_per_shard():
    """Each access is owned by exactly one shard."""
    scop = build_kernel("gemm", "MINI")
    config = _l1()
    sequential = _sequential(scop, config)
    total = 0
    for residue in range(4):
        sharded = shard_target_config(config, 4, residue)
        shard = simulate_nonwarping(scop, Cache(sharded))
        assert shard.accesses == shard.l1_hits + shard.l1_misses
        total += shard.accesses
    assert total == sequential.accesses


def test_warm_state_not_reset_by_plan():
    """Sequential fallback (k == 1) still produces correct results."""
    scop = build_kernel("mvt", "MINI")
    config = CacheConfig(128, 4, 32, "lru")  # a single set: no sharding
    sequential = _sequential(scop, config)
    merged = shard_simulate(scop, config, engine="tree",
                            shards=4, workers=1)
    assert merged.extra["shards"] == 1
    _assert_equal(merged, sequential, "fallback")


class TestShardPlanning:
    def test_shardable_ways_divides_set_count(self):
        config = CacheConfig(1024, 4, 32)  # 8 sets
        assert shardable_ways(config, 4) == 4
        assert shardable_ways(config, 8) == 8
        assert shardable_ways(config, 16) == 8
        assert shardable_ways(config, 3) == 2
        assert shardable_ways(config, 1) == 1

    def test_shardable_ways_hierarchy_uses_innermost(self):
        config = HierarchyConfig(
            CacheConfig(1024, 4, 32, name="L1"),     # 8 sets
            CacheConfig(4096, 4, 32, name="L2"))     # 32 sets
        assert shardable_ways(config, 8) == 8

    def test_xor_fold_not_shardable(self):
        config = CacheConfig(1024, 4, 32,
                             index_function=IndexFunction.XOR_FOLD)
        assert shardable_ways(config, 4) == 1

    def test_shard_of_shard_refused(self):
        config = ShardedCacheConfig.of(CacheConfig(1024, 4, 32), 4, 0)
        assert shardable_ways(config, 4) == 1

    def test_sharded_config_geometry(self):
        config = ShardedCacheConfig.of(CacheConfig(1024, 4, 32), 4, 1)
        assert config.num_sets == 2
        # Owned blocks: block % 4 == 1 -> shard sets alternate.
        assert config.index_of(1) == 0
        assert config.index_of(5) == 1
        assert config.index_of(9) == 0
        # The representative maps back to its set.
        for index in range(config.num_sets):
            rep = config.representative_block(index)
            assert rep % 4 == 1
            assert config.index_of(rep) == index

    def test_sharded_config_validates(self):
        with pytest.raises(ValueError):
            ShardedCacheConfig.of(CacheConfig(1024, 4, 32), 3, 0)
        with pytest.raises(ValueError):
            ShardedCacheConfig.of(CacheConfig(1024, 4, 32), 4, 4)
        with pytest.raises(ValueError):
            ShardedCacheConfig.of(
                CacheConfig(1024, 4, 32,
                            index_function=IndexFunction.XOR_FOLD), 4, 0)

    def test_engine_validation(self):
        scop = build_kernel("mvt", "MINI")
        with pytest.raises(ValueError):
            shard_simulate(scop, _l1(), engine="dinero", shards=2)


def test_sharded_set_partition_matches_full_cache():
    """Shard set ``i`` replays full-cache set ``residue + K*i``."""
    config = CacheConfig(1024, 4, 32)  # 8 sets
    full = Cache(config)
    shards = [Cache(shard_target_config(config, 4, residue))
              for residue in range(4)]
    blocks = [3, 11, 19, 3, 7, 15, 23, 7, 1, 9, 3, 11, 2, 10, 18, 2]
    for block in blocks:
        full.access(block)
        shards[block % 4].access(block)
    assert full.hits == sum(s.hits for s in shards)
    assert full.misses == sum(s.misses for s in shards)
    for residue, shard in enumerate(shards):
        for index, set_state in enumerate(shard.sets):
            mirror = full.sets[residue + 4 * index]
            assert set_state.lines == mirror.lines
            assert set_state.policy_state == mirror.policy_state

"""Set-sharded parallel cache simulation (repro.perf).

Cache sets never interact: an access to memory block ``b`` touches set
``b mod S`` at every (modulo-placed) level, and replacement decisions
are per-set.  Partitioning the block space into ``K`` residue classes
(``b mod K``, with ``K`` dividing every level's set count) therefore
splits one simulation into ``K`` completely independent simulations —
shard ``r`` owns every ``K``-th cache set of every level and exactly
the accesses that map to them.  Each shard's per-set access sequences
are identical to the full simulation's, so summing per-level hit/miss
counters over the shards reproduces the sequential counts *bit for
bit* (this is pinned by differential tests over all PolyBench kernels
at hierarchy depths 1-3).

:func:`shard_simulate` plans the shard count
(:func:`repro.cache.config.shardable_ways`), fans the shards out over
the pool machinery shared with sweep campaigns
(:func:`repro.explore.runner.map_parallel`), and merges the per-shard
:class:`LevelStats` into one :class:`SimulationResult`.  Both the
concrete ("tree") and the warping engine are supported: warping runs
per shard on the shard's own rotation symmetry (block shifts must
additionally be multiples of the shard modulus — see
:mod:`repro.simulation.warping`).

Speedup model: every shard walks the full iteration space (it must
evaluate each access's address to decide ownership) but performs only
``1/K`` of the cache work, which dominates the sequential engine's
runtime.  Both engines filter the access stream in the innermost-loop
executor they share (:mod:`repro.simulation.executor`), which reads the
shard from the sharded level configs.  On a machine with
``>= K`` cores the wall-clock speedup approaches the critical-path
speedup ``t_seq / max_shard_time``; ``repro bench`` records both.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Union

from repro import obs
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    shard_target_config,
    shardable_ways,
)
from repro.explore.runner import map_parallel
from repro.polyhedral.model import Scop
from repro.simulation.dispatch import run_engine
from repro.simulation.result import LevelStats, SimulationResult

TargetConfig = Union[CacheConfig, HierarchyConfig]

#: Engines that can be sharded (the Dinero-style baseline replays a
#: trace and is kept sequential on purpose).
SHARDABLE_ENGINES = ("tree", "warping")


def _run_shard_task(task: dict) -> dict:
    """Worker: simulate one shard; returns a plain-dict shard record.

    Never raises — failures come back as ``{"error": ...}`` records so
    one bad shard cannot hang the merge.
    """
    try:
        return _run_shard(task)
    except Exception as exc:  # noqa: BLE001 — reported to the merger
        return {"shard": task["residue"], "error": repr(exc)}


def _run_shard(task: dict) -> dict:
    scop: Scop = task["scop"]
    config: TargetConfig = task["config"]
    modulus: int = task["modulus"]
    residue: int = task["residue"]
    engine: str = task["engine"]
    sharded = shard_target_config(config, modulus, residue)
    # Pool workers do not inherit the parent's tracer: when the parent
    # was profiling ("profile" in the task), collect locally and ship
    # an aggregate snapshot home in the record.  Inline execution
    # (workers=1) sees the parent tracer directly and nests as usual.
    local = None
    if task.get("profile") and not obs.is_enabled():
        local = obs.enable()
    try:
        cpu0 = time.process_time()
        with obs.Stopwatch(f"shard[{residue}]") as watch:
            # A target built from sharded configs performs (and counts)
            # only the accesses the shard owns, on either engine.
            result = run_engine(scop, sharded, engine,
                                enable_warping=task["enable_warping"])
        cpu_s = time.process_time() - cpu0
    finally:
        if local is not None:
            obs.disable()
    record = {
        "shard": residue,
        "levels": [(s.name, s.hits, s.misses) for s in result.levels],
        "accesses": result.accesses,
        "explicit_accesses": result.simulated_accesses,
        "warp_count": result.warp_count,
        "warp_attempts": result.warp_attempts,
        "cpu_s": cpu_s,
        "wall_s": watch.elapsed,
    }
    if local is not None:
        record["obs"] = local.snapshot()
    return record


def shard_simulate(scop: Scop, config: TargetConfig,
                   engine: str = "tree",
                   shards: Optional[int] = None,
                   workers: Optional[int] = None,
                   enable_warping: bool = True) -> SimulationResult:
    """Simulate ``scop`` on ``config`` sharded by cache set.

    Args:
        scop: the program (any :class:`~repro.polyhedral.model.Scop`).
        config: a cache or hierarchy config (modulo placement).
        engine: ``"tree"`` (concrete) or ``"warping"``.
        shards: shard count to aim for; defaults to ``workers``.  The
            effective count is the largest feasible divisor of the
            innermost level's set count (1 = sequential fallback).
        workers: worker processes; ``None`` uses one per shard, ``1``
            runs the shards serially in-process (deterministic, no
            fork — what the differential tests use).
        enable_warping: ablation switch for the warping engine.

    Returns:
        A merged :class:`SimulationResult` whose per-level hit/miss
        counts are bit-identical to the sequential engines'.
        ``result.extra`` records the shard plan and per-shard CPU/wall
        times (``shards``, ``workers``, ``shard_cpu_s``,
        ``shard_wall_s``, ``critical_path_s``).

    >>> from repro import CacheConfig, build_kernel
    >>> scop = build_kernel("mvt", "MINI")
    >>> config = CacheConfig(1024, 4, 32, "lru")
    >>> merged = shard_simulate(scop, config, shards=4, workers=1)
    >>> from repro import Cache, simulate_nonwarping
    >>> sequential = simulate_nonwarping(scop, Cache(config))
    >>> (merged.l1_hits, merged.l1_misses) == (
    ...     sequential.l1_hits, sequential.l1_misses)
    True
    """
    if engine not in SHARDABLE_ENGINES:
        raise ValueError(
            f"engine {engine!r} is not shardable; "
            f"use one of {SHARDABLE_ENGINES}")
    requested = shards if shards is not None else (workers or 1)
    k = shardable_ways(config, requested)
    if k == 1:
        result = run_engine(scop, config, engine,
                            enable_warping=enable_warping)
        result.extra.setdefault("shards", 1)
        result.extra.setdefault("workers", 1)
        return result

    tasks = [
        {"scop": scop, "config": config, "engine": engine,
         "modulus": k, "residue": residue,
         "enable_warping": enable_warping,
         "profile": obs.is_enabled()}
        for residue in range(k)
    ]
    records: Dict[int, dict] = {}
    pool_workers = k if workers is None else workers
    with obs.Stopwatch("shard.simulate") as watch:
        map_parallel(_run_shard_task, tasks, pool_workers,
                     lambda record: records.__setitem__(record["shard"],
                                                        record))
        failed = [r for r in records.values() if "error" in r]
        if failed:
            raise RuntimeError(
                f"shard simulation failed: {failed[0]['error']}")
        # Worker snapshots graft their shard[r] spans under this span.
        # Shards run concurrently, so their summed time exceeds the
        # span's wall time by design (see Tracer.merge_snapshot).
        tracer = obs.current()
        if tracer is not None:
            for record in records.values():
                snapshot = record.pop("obs", None)
                if snapshot:
                    tracer.merge_snapshot(snapshot)

    ordered = [records[residue] for residue in range(k)]
    depth = len(ordered[0]["levels"])
    levels: List[LevelStats] = []
    for index in range(depth):
        name = ordered[0]["levels"][index][0]
        hits = sum(r["levels"][index][1] for r in ordered)
        misses = sum(r["levels"][index][2] for r in ordered)
        levels.append(LevelStats(name, hits, misses))

    result = SimulationResult(
        scop_name=scop.name,
        levels=levels,
        wall_time=watch.elapsed,
    )
    result.accesses = sum(r["accesses"] for r in ordered)
    result.simulated_accesses = sum(r["explicit_accesses"]
                                    for r in ordered)
    result.warped_accesses = result.accesses - result.simulated_accesses
    result.warp_count = sum(r["warp_count"] for r in ordered)
    result.warp_attempts = sum(r["warp_attempts"] for r in ordered)
    result.extra.update({
        "shards": k,
        "workers": pool_workers,
        "shard_cpu_s": [round(r["cpu_s"], 6) for r in ordered],
        "shard_wall_s": [round(r["wall_s"], 6) for r in ordered],
        "critical_path_s": round(max(r["cpu_s"] for r in ordered), 6),
    })
    return result

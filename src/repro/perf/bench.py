"""The ``repro bench`` harness: a persistent performance trajectory.

Runs the benchmark suite (the figure harness's scaled-L workloads, see
:mod:`repro.perf.workloads`) under a stable regimen — GC disabled
around timed sections, best-of-``repeat`` timing, deterministic
scenario order — and writes a schema'd ``BENCH_PR<n>.json``
(:mod:`repro.perf.schema`) so every PR's performance claims are
reproducible from one command:

.. code-block:: text

    repro bench --workers 4            # full suite -> BENCH_PR10.json
    repro bench --quick                # CI smoke subset
    repro bench --quick --compare BENCH_PR4.json,BENCH_PR8.json

Measured per kernel:

* the sequential concrete engine (the baseline of Fig. 6),
* the set-sharded concrete engine (per-shard CPU times, critical-path
  and end-to-end speedups — see :mod:`repro.perf.schema` for the exact
  semantics),
* the warping engine's speedup over the concrete baseline,

plus one decision-cache scenario (a cold vs a warm canonical-form
decision cache of :mod:`repro.isl.sets`), and one *profiled* warping
run per kernel whose span breakdown lands in the payload's ``phases``
section (see :func:`repro.obs.profile.phases_payload`) — the timed
scenarios themselves always run with tracing disabled.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import platform
import time
from statistics import median
from typing import Dict, List, Optional

from repro import obs
from repro.cache.cache import Cache
from repro.obs.profile import phases_payload
from repro.perf.schema import SCHEMA_NAME, validate_bench
from repro.perf.sharding import shard_simulate
from repro.perf.workloads import SCALED_L, scaled_l1

#: Fig. 6 kernels measured by the full suite: the warp-friendly
#: stencils plus linear-algebra kernels that stress the concrete walk.
BENCH_KERNELS = ["jacobi-2d", "seidel-2d", "heat-3d",
                 "gemm", "atax", "trisolv"]

#: CI smoke subset.
QUICK_KERNELS = ["jacobi-2d", "atax"]

#: Least number of rounds behind a sharded scenario's critical path,
#: whatever ``repeat`` is (see :func:`_critical_path`).
CRITICAL_PATH_ROUNDS = 9


def _timed(fn, repeat: int, setup=None):
    """Best-of-``repeat`` wall time of ``fn()`` with GC parked.

    ``setup()``, when given, runs before every repetition, outside the
    timed region.
    """
    best = None
    result = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeat)):
            if setup is not None:
                setup()
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if enabled:
            gc.enable()
    return result, best


def _critical_path(scop, config, shards: int, rounds: int):
    """CPU seconds of the sequential tree run and of each of its
    ``shards`` set shards, measured over ``rounds`` paired rounds.

    Every round runs the sequential engine and each shard in this
    process, one after another, the sequential run first in even rounds
    and last in odd ones.  A shard's cost is its median fraction of the
    sequential run of the same round, times the median sequential time.
    A pool worker lands on whichever CPU is free: on a 2-vCPU VM the
    same sequential run took 44 ms of CPU on one vCPU and 82 ms on the
    other, so a worker's CPU time says as much about its vCPU as about
    its shard.  Within one round both sides of the ratio run on one CPU
    at about the same time, and the median over rounds keeps a scenario
    of a few milliseconds from being decided by one sample.
    """
    from repro.simulation import simulate_nonwarping

    def sequential():
        start = time.process_time()
        simulate_nonwarping(scop, Cache(config))
        return time.process_time() - start

    def sharded():
        return shard_simulate(scop, config, engine="tree", shards=shards,
                              workers=1).extra["shard_cpu_s"]

    seq_times = []
    fractions = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(max(1, rounds)):
            if index % 2:
                shard_cpu = sharded()
                seq_cpu = sequential()
            else:
                seq_cpu = sequential()
                shard_cpu = sharded()
            seq_times.append(seq_cpu)
            fractions.append([cpu / max(seq_cpu, 1e-9) for cpu in shard_cpu])
    finally:
        if enabled:
            gc.enable()
    seq_cpu = median(seq_times)
    return seq_cpu, [seq_cpu * median(shard) for shard in zip(*fractions)]


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))


def _machine_info() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": multiprocessing.cpu_count(),
    }


def _lp_scenario(repeat: int) -> Dict[str, object]:
    """Certified-LP-core mini-scenario: decision cache cold vs warm.

    Times the same (kernel, config) warping simulation cold and warm
    in one process.  Each of the ``repeat`` cold runs starts from an
    empty canonical-form decision cache (cleared outside the timed
    region), so every one pays its own ILP solves; the cold counters
    sum over those runs.  The warm run — as sweeps over structurally
    identical SCoPs do — answers every set query from the cache, so its
    ILP count drops to zero.  Counters come from the certified core
    (``ilp.warm_starts``, ``ilp.pivots``) and the decision cache
    (``isl.memo_hits`` / ``isl.memo_misses``).
    """
    from repro.isl.sets import clear_decision_cache, decision_cache_size
    from repro.polybench import build_kernel
    from repro.simulation import simulate_warping

    kernel = "lu"  # asks ILP questions at SCALED_L
    size = SCALED_L[kernel]
    config = scaled_l1()
    with obs.collect() as cold:
        scop = build_kernel(kernel, size)
        _, cold_s = _timed(lambda: simulate_warping(scop, config), repeat,
                           setup=clear_decision_cache)
    with obs.collect() as warm:
        scop = build_kernel(kernel, size)
        _, warm_s = _timed(lambda: simulate_warping(scop, config), 1)
    hits = warm.counters.get("isl.memo_hits", 0)
    misses = warm.counters.get("isl.memo_misses", 0)
    total = hits + misses
    return {
        "kernel": kernel,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / max(warm_s, 1e-9), 3),
        "memo_hits": hits,
        "memo_misses": misses,
        "hit_rate": round(hits / total, 4) if total else 0.0,
        "cache_entries": decision_cache_size(),
        "cold_runs": max(1, repeat),
        "ilp_solves_cold": cold.counters.get("ilp.solves", 0),
        "ilp_solves_warm": warm.counters.get("ilp.solves", 0),
        "warm_starts": cold.counters.get("ilp.warm_starts", 0),
        "pivots": cold.counters.get("ilp.pivots", 0),
    }


def run_bench(workers: int = 4, shards: Optional[int] = None,
              quick: bool = False, repeat: int = 1,
              pr: int = 10) -> dict:
    """Run the bench suite and return the (validated) payload."""
    from repro.polybench import build_kernel
    from repro.simulation import simulate_nonwarping, simulate_warping

    kernels = QUICK_KERNELS if quick else BENCH_KERNELS
    shards = shards or workers
    config = scaled_l1()
    scenarios: List[dict] = []
    phases: List[dict] = []
    tree_speedups: List[float] = []
    warp_speedups: List[float] = []

    for kernel in kernels:
        size = SCALED_L[kernel]
        scop = build_kernel(kernel, size)

        sequential, seq_s = _timed(
            lambda: simulate_nonwarping(scop, Cache(config)), repeat)
        scenarios.append({
            "kernel": kernel, "size": size, "engine": "tree",
            "mode": "sequential",
            "accesses": sequential.accesses,
            "l1_misses": sequential.l1_misses,
            "wall_s": round(seq_s, 6),
            "accesses_per_s": round(sequential.accesses / seq_s, 1),
        })

        sharded, par_s = _timed(
            lambda: shard_simulate(scop, config, engine="tree",
                                   shards=shards, workers=workers),
            repeat)
        if (sharded.l1_hits, sharded.l1_misses, sharded.accesses) != (
                sequential.l1_hits, sequential.l1_misses,
                sequential.accesses):
            raise AssertionError(
                f"bench: sharded run diverged from sequential on "
                f"{kernel} — refusing to record")
        # The pool run above gives the wall time; the critical path is
        # timed in this process (see _critical_path).  A degenerate
        # plan (1 shard: --workers 1, or a single-set cache) falls back
        # to the sequential engine, whose extra carries no per-shard
        # data — record it as its own critical path so the scenario
        # stays schema-complete.
        shards_run = sharded.extra.get("shards", 1)
        if shards_run > 1:
            seq_cpu, shard_cpu = _critical_path(
                scop, config, shards,
                max(repeat, CRITICAL_PATH_ROUNDS))
            shard_cpu = [round(value, 6) for value in shard_cpu]
            critical = max(shard_cpu)
        else:
            seq_cpu, critical = seq_s, par_s
            shard_cpu = [round(par_s, 6)]
        speedup = seq_cpu / max(critical, 1e-9)
        tree_speedups.append(speedup)
        scenarios.append({
            "kernel": kernel, "size": size, "engine": "tree",
            "mode": "sharded",
            "accesses": sharded.accesses,
            "l1_misses": sharded.l1_misses,
            "wall_s": round(par_s, 6),
            "accesses_per_s": round(sharded.accesses
                                    / max(critical, 1e-9), 1),
            "shards": shards_run,
            "workers": sharded.extra.get("workers", 1),
            "shard_cpu_s": shard_cpu,
            "sequential_cpu_s": round(seq_cpu, 6),
            "critical_path_s": critical,
            "speedup_vs_sequential": round(speedup, 3),
            "wall_speedup": round(seq_s / max(par_s, 1e-9), 3),
        })

        warped, warp_s = _timed(
            lambda: simulate_warping(scop, config), repeat)
        if warped.l1_misses != sequential.l1_misses:
            raise AssertionError(
                f"bench: warping diverged from sequential on {kernel}")
        warp_speedups.append(seq_s / max(warp_s, 1e-9))
        scenarios.append({
            "kernel": kernel, "size": size, "engine": "warping",
            "mode": "sequential",
            "accesses": warped.accesses,
            "l1_misses": warped.l1_misses,
            "wall_s": round(warp_s, 6),
            "accesses_per_s": round(warped.accesses / warp_s, 1),
            "speedup_vs_sequential": round(seq_s / max(warp_s, 1e-9), 3),
        })

        # One separately profiled run per kernel (the timed runs above
        # stay untraced so tracing overhead never taints the numbers):
        # the CI smoke asserts attributed_s covers wall_s within 5%.
        with obs.collect() as tracer:
            _, prof_s = _timed(
                lambda: simulate_warping(scop, config), 1)
        phases.append(phases_payload(tracer, prof_s, kernel=kernel,
                                     engine="warping"))

    payload = {
        "schema": SCHEMA_NAME,
        "pr": pr,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
        "suite": "quick" if quick else "full",
        "workers": workers,
        "shards": shards,
        "machine": _machine_info(),
        "scenarios": scenarios,
        "phases": phases,
        "summary": {
            "sharded_tree_speedup_min": round(min(tree_speedups), 3),
            "sharded_tree_speedup_geomean": round(
                _geomean(tree_speedups), 3),
            "warping_speedup_geomean": round(
                _geomean(warp_speedups), 3),
            "lp": _lp_scenario(repeat),
        },
    }
    validate_bench(payload)
    return payload


def write_bench(payload: dict, path: str) -> None:
    """Validate and write a bench payload to ``path``."""
    validate_bench(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def bench_summary(payload: dict) -> str:
    """Human-readable one-screen summary of a bench payload."""
    lines = [
        f"bench {payload['suite']} suite — PR {payload['pr']}, "
        f"{payload['workers']} workers x {payload['shards']} shards, "
        f"{payload['machine']['cpu_count']} cpu(s)",
    ]
    for scenario in payload["scenarios"]:
        tag = f"{scenario['kernel']:14s} {scenario['engine']:7s} " \
              f"{scenario['mode']:10s}"
        extra = ""
        if "speedup_vs_sequential" in scenario:
            extra = f"  speedup {scenario['speedup_vs_sequential']:6.2f}x"
            if "wall_speedup" in scenario:
                extra += f" (wall {scenario['wall_speedup']:.2f}x)"
        lines.append(
            f"  {tag} {scenario['wall_s']:8.3f}s "
            f"{scenario['accesses_per_s']:12.0f} acc/s{extra}")
    summary = payload["summary"]
    lines.append(
        f"  sharded tree speedup: min "
        f"{summary['sharded_tree_speedup_min']:.2f}x, geomean "
        f"{summary['sharded_tree_speedup_geomean']:.2f}x "
        f"(critical path); warping geomean "
        f"{summary['warping_speedup_geomean']:.2f}x")
    lp = summary.get("lp")
    if lp:
        lines.append(
            f"  decision cache: {lp.get('cold_runs', 1)} cold run(s) "
            f"{lp['ilp_solves_cold']} ilp solves -> warm "
            f"{lp['ilp_solves_warm']} "
            f"({lp['memo_hits']} hits / {lp['memo_misses']} misses, "
            f"hit rate {100.0 * lp['hit_rate']:.0f}%)")
    if payload.get("phases"):
        lines.append(
            "  phase coverage (warping): " + ", ".join(
                f"{entry['kernel']} {entry['coverage']:.2f}"
                for entry in payload["phases"]))
    return "\n".join(lines)

"""Layered benchmark of the warping cache simulator.

    python3 perfbench/run.py --workload stencil-warp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it simulates with the sources under
``src/``.  Workloads are defined in ``workloads.py`` and the measurement
passes in ``measure.py``; ``README.md`` explains every metric.

``--trace 0`` times untraced rounds and reports the end-to-end metrics
declared in ``BENCHMARK.json``; ``--trace 1`` adds one traced pass and one
sharded pass and reports the per-layer metrics instead, writing a Chrome
trace and a per-point layer report under ``perfbench/out/``.  The seed
picks the order of the simulations in each round and the point of the
``repro simulate`` run; the programs and caches are fixed, so every output
can be checked against ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, without that line, when the sources are missing or a
self-check of the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class SelfCheckError(Exception):
    """The benchmark itself is broken; no result may be reported."""


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def slope(xs, ys) -> float:
    """Least-squares slope of ys on xs (0 when xs do not vary)."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(m, workload, rounds, setup) -> dict:
    return {
        "warping_s": rounds.total_s("warping", workload.warping),
        "symbolic_s": rounds.total_s("symbolic", workload.compare),
        "tree_s": rounds.total_s("tree", workload.compare),
        # 0 only when every sweep raised (the run is then incorrect).
        "points_per_s": median([s.points_per_s for s in rounds.sweeps]
                               or [0.0]),
        "setup_s": median(setup),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _span_total(tracer, name: str, under: str) -> float:
    """Total time of spans ``name`` below root span ``under`` (outermost
    occurrence only, so recursion is not double counted)."""
    return sum(stats.total_s for path, stats in tracer.stats.items()
               if path[0] == under and path[-1] == name
               and name not in path[:-1])


def per_point(m, workload, rounds, shard_times) -> dict:
    """Per-point medians, gains and sharding ratios (the layer report)."""
    report = {}
    for p in workload.points():
        key = m.point_key(p)
        engines = ("warping", "symbolic", "tree")
        entry = {engine: rounds.median_s(engine, key) for engine in engines}
        entry["host_s"] = {
            engine: median(rounds.host[engine][key]) for engine in engines
            if rounds.host.get(engine, {}).get(key)}
        results = [rounds.results[(engine, key)] for engine in engines
                   if (engine, key) in rounds.results]
        if results:
            entry["accesses"] = results[0].accesses
        warped = rounds.results.get(("warping", key))
        if warped is not None:
            entry.update(warp_attempts=warped.warp_attempts,
                         warps=warped.warp_count,
                         warped_share=ratio(warped.warped_accesses,
                                            warped.accesses))
        if entry["warping"] and entry["symbolic"]:
            entry["warp_gain"] = entry["symbolic"] / entry["warping"]
        if entry["symbolic"] and entry["tree"]:
            entry["impl_gain"] = entry["tree"] / entry["symbolic"]
        if key in shard_times:
            fastest = min((entry[e] for e in engines if entry[e]),
                          default=0.0)
            entry["shard_s"] = shard_times[key]
            entry["shard_wall_ratio"] = ratio(shard_times[key], fastest)
        report[key] = {k: v for k, v in entry.items() if v is not None}
    return report


def size_scaling(m, workload, points: dict) -> list:
    """Warping time at the larger size over the smaller one, beside the
    access-count ratio, for every kernel timed at two sizes."""
    by_kernel = {}
    for p in workload.warping:
        by_kernel.setdefault(p.kernel, []).append(points[m.point_key(p)])
    rows = []
    for kernel, entries in by_kernel.items():
        if len(entries) != 2 or not all(
                e.get("warping") and e.get("accesses") for e in entries):
            continue
        small, large = sorted(entries, key=lambda e: e["accesses"])
        rows.append({"kernel": kernel,
                     "time_ratio": ratio(large["warping"], small["warping"]),
                     "access_ratio": ratio(large["accesses"],
                                           small["accesses"])})
    return rows


def per_layer(m, workload, rounds, traced, points, cli_s, checker) -> dict:
    tracer = traced.tracer
    warp = traced.warp_counters
    after = tracer.counters
    swept = {k: after.get(k, 0) - warp.get(k, 0) for k in after}
    # The untraced results of the timed rounds: the traced counters must
    # agree with their warp_attempts and warp_count.
    results = [rounds.results[("warping", m.point_key(p))]
               for p in workload.warping
               if ("warping", m.point_key(p)) in rounds.results]
    attempts = sum(r.warp_attempts for r in results)
    hits = sum(r.warp_count for r in results)
    if (warp.get("warp.attempts", 0), warp.get("warp.hits", 0)) != (
            attempts, hits):
        checker.error("trace-counters", workload.name,
                      f"traced warp.attempts/hits "
                      f"{warp.get('warp.attempts', 0)}/"
                      f"{warp.get('warp.hits', 0)} != untraced "
                      f"warp_attempts/warp_count {attempts}/{hits}")
    accesses = sum(r.accesses for r in results)

    compare = [points[m.point_key(p)] for p in workload.compare]
    tree_acc = sum(e["accesses"] for e in compare if e.get("tree"))
    sym_acc = sum(e["accesses"] for e in compare if e.get("symbolic"))
    timed = [(points[m.point_key(w[0])], w[3]) for w in traced.warped]
    untraced = sum(e["warping"] for e, _ in timed if e.get("warping"))
    sizes = [(math.log(e["accesses"]), math.log(e["warping"]))
             for e in (points[m.point_key(p)] for p in workload.warping)
             if e.get("warping") and e.get("accesses")]
    sweep_records = traced.sweep.records if traced.sweep else []
    memo = [r["result"].get("memo") or {} for r in sweep_records
            if r.get("status") == "ok"]
    value_hits = sum(d.get("value_hits", 0) for d in memo)
    value_lookups = value_hits + sum(d.get("value_misses", 0) for d in memo)

    def under_warping(name):
        return _span_total(tracer, name, "bench.warping")

    def hit_rate(counters):
        h = counters.get("isl.memo_hits", 0)
        return ratio(h, h + counters.get("isl.memo_misses", 0))

    return {
        "polybench.build_s": _span_total(tracer, "bench.build_kernel",
                                         "bench.build_kernel"),
        "cache.tree_accesses_per_s": ratio(
            tree_acc, sum(e["tree"] for e in compare if e.get("tree"))),
        "symbolic.accesses_per_s": ratio(
            sym_acc, sum(e["symbolic"] for e in compare
                         if e.get("symbolic"))),
        "sym.access_s": under_warping("sym.access"),
        "sym.snapshot_keys": warp.get("sym.snapshot_keys", 0),
        "sym.rotations": warp.get("sym.rotations", 0),
        "warp.bookkeeping_s": under_warping("warp.bookkeeping"),
        "warp.analysis_s": under_warping("warp.analysis"),
        "warp.apply_s": under_warping("warp.apply"),
        "warp.attempts": attempts,
        "warp.hits": hits,
        "warp.hit_rate": ratio(hits, attempts),
        "warp.warped_share": ratio(
            sum(r.warped_accesses for r in results), accesses),
        "warp.explicit_accesses": sum(r.simulated_accesses
                                      for r in results),
        "warp.warp_gain": geomean(e.get("warp_gain", 0) for e in compare),
        "warp.impl_gain": geomean(e.get("impl_gain", 0) for e in compare),
        "warp.size_exponent": slope([x for x, _ in sizes],
                                    [y for _, y in sizes])
        if len(sizes) > 1 else 0.0,
        "isl.sets_s": under_warping("isl.sets"),
        "isl.ilp_s": under_warping("isl.ilp"),
        "ilp.solves": warp.get("ilp.solves", 0),
        "ilp.pivots": warp.get("ilp.pivots", 0),
        "ilp.bnb_nodes": warp.get("ilp.bnb_nodes", 0),
        "isl.memo_hit_rate": hit_rate(warp),
        "explore.isl_memo_hit_rate": hit_rate(swept),
        "memo.value_hit_rate": ratio(value_hits, value_lookups),
        "shard.wall_ratio": geomean(e.get("shard_wall_ratio", 0)
                                    for e in compare),
        "explore.store_put_s": _span_total(tracer, "bench.store_put",
                                           "bench.run_sweep"),
        "explore.runner_overhead_s": median(
            [s.runner_overhead_s for s in rounds.sweeps] or [0.0]),
        "obs.trace_overhead": ratio(sum(s for _, s in timed), untraced),
        "obs.coverage": tracer.child_coverage(
            ("bench.warping", "engine.warping")) or 0.0,
        "cli.simulate_s": cli_s,
    }


def declared(trace: bool) -> dict:
    """Metric name -> unit for this mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def self_checks(m, checker, metrics: dict, units: dict, peaks) -> None:
    """The benchmark's own checks; any failure raises SelfCheckError."""
    bad = [name for name in list(metrics) + list(units)
           if not NAME.fullmatch(name)]
    if bad:
        raise SelfCheckError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
    if set(metrics) != set(units):
        raise SelfCheckError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}")
    # A reference count off by one must be caught as a failed operation.
    checked = [o for o in checker.outputs if o[0] in checker.reference]
    if not checked:
        raise SelfCheckError("no output was checked against the reference")
    perturbed = json.loads(json.dumps(checker.reference))
    perturbed[checked[0][0]]["levels"][0][1] += 1
    if all(m.matches(perturbed, *o) for o in checked):
        raise SelfCheckError("a perturbed reference went unnoticed")
    cpus = os.cpu_count() or 1
    over = [p for p in peaks if p is not None and p > cpus]
    if over:
        raise SelfCheckError(
            f"{max(over)} child processes alive at once on {cpus} CPUs")
    if os.path.isdir("/proc/self") and m._children():
        raise SelfCheckError("child processes still alive at exit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure as m
    from workloads import CLI_POINTS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; use one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared(trace)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        checker = m.Checker(json.load(f)["points"])
    rng = random.Random(args.seed)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    peaks = []
    try:
        with m.ChildWatch() as watch:
            setup = [] if trace else m.setup_times(workload)
            cli_s = m.cli_run(rng.choice(CLI_POINTS), checker)
        peaks.append(watch.peak)
        rounds = m.timed_rounds(workload, args.seconds, rng, checker,
                                scratch)
        if trace:
            traced = m.traced_pass(workload, checker, scratch)
            cpus = os.cpu_count() or 1
            with m.ChildWatch() as watch:
                shard_times = m.shard_pass(workload, checker, cpus)
            peaks.append(watch.peak)
            points = per_point(m, workload, rounds, shard_times)
            metrics = per_layer(m, workload, rounds, traced, points, cli_s,
                                checker)
            write_layer_report(m, workload, traced, points, metrics,
                               args.seed)
        else:
            metrics = end_to_end(m, workload, rounds, setup)
        self_checks(m, checker, metrics, units, peaks)
    except SelfCheckError as exc:
        print(f"perfbench: self-check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in checker.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{workload.name}: {rounds.count} rounds, {checker.attempted} "
          f"operations, {checker.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def write_layer_report(m, workload, traced, points, metrics, seed) -> None:
    """Chrome trace and per-point report of the traced pass."""
    from repro.obs.profile import write_chrome_trace

    stem = os.path.join(OUT, workload.name)
    write_chrome_trace(traced.tracer, stem + ".trace.json")
    report = {
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "points": points,
        "size_scaling": size_scaling(m, workload, points),
        "phases": traced.tracer.phase_totals(),
        "counters": dict(sorted(traced.tracer.counters.items())),
    }
    with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for key, entry in points.items():
        gains = " ".join(f"{name} {entry[name]:.3f}" for name in (
            "warp_gain", "impl_gain", "shard_wall_ratio") if name in entry)
        if gains:
            print(f"  {key}: {gains}")


if __name__ == "__main__":
    sys.exit(main())

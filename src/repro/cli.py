"""Command-line interface, mirroring the paper's tool.

The paper describes its artifact as "a cache simulation tool which takes
as input the cache parameters and a C program, and outputs cache access
and miss counts".  This module provides exactly that, plus the
design-space exploration engine of :mod:`repro.explore`:

    python -m repro simulate --source kernel.c \\
        --l1-size 32768 --l1-assoc 8 --l1-policy plru

    python -m repro simulate --kernel jacobi-2d --size MINI \\
        --l1-size 2048 --l1-assoc 8 --block-size 32 --no-warping

    python -m repro simulate --kernel gemm --size MINI \\
        --cache L1:32KiB:8:plru --cache L2:1MiB:16:qlru \\
        --cache L3:8MiB:16:qlru --inclusion nine --json

    python -m repro compare --kernel atax --size MINI \\
        --l1-size 2048 --l1-assoc 8

    python -m repro profile --kernel gemm --size MINI \\
        --l1-size 2048 --l1-assoc 8 --trace-out trace.json

    python -m repro simulate --kernel mvt --size MINI \\
        --transform 'tile(i,j:32x32)' --l1-size 2048 --l1-assoc 8

    python -m repro transform --kernel mvt --size MINI \\
        --transform 'tile(i,j:32x32); interchange(jj,i)'

    python -m repro sweep --kernels gemm,atax --sizes MINI \\
        --l1-sizes 1024,2048,4096 --l1-policies lru,plru \\
        --block-sizes 32 --store campaign.jsonl --workers 4

    python -m repro sweep --kernels mvt --sizes MINI --l1-sizes 2048 \\
        --transform '' --transform 'tile(i,j:8x8)' \\
        --transform 'tile(i,j:32x32)' --store tiles.jsonl

    python -m repro frontier --store campaign.jsonl

    python -m repro monitor campaign.jsonl --once

    python -m repro bench --quick --compare BENCH_PR4.json

    python -m repro list-kernels --json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

# Each cmd_* function imports what only its subcommand needs, so a run
# loads the modules of its own subcommand and no others.
from repro import obs
from repro.obs.log import configure as configure_logging, get_logger
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.cache.policies import POLICIES
from repro.explore.spec import ENGINES, INCLUSIONS, SweepSpec

if TYPE_CHECKING:
    from repro.polyhedral.model import Scop

DEFAULT_STORE = "sweep_results.jsonl"

_LOG = get_logger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Warping cache simulation of polyhedral programs "
                    "(PLDI 2022 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    _add_verbosity_args(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="simulate one program on one cache (the "
                         "paper's tool)")
    _add_program_args(simulate)
    _add_cache_args(simulate)
    _add_engine_args(simulate, default_engine="warping")
    simulate.add_argument(
        "--workers", type=int, default=1,
        help="set-shard the simulation across this many worker "
             "processes (tree/warping engines; results are "
             "bit-identical to --workers 1)")
    simulate.add_argument("--profile", action="store_true",
                          help="trace the run and print a phase/counter "
                               "profile to stderr")
    simulate.add_argument("--json", action="store_true",
                          help="machine-readable output")

    compare = sub.add_parser(
        "compare", help="run every model on the same program/cache")
    _add_program_args(compare)
    _add_cache_args(compare)
    _add_engine_args(compare, default_engine=None)
    compare.add_argument("--profile", action="store_true",
                         help="trace all runs and print a combined "
                              "phase/counter profile to stderr")
    compare.add_argument("--json", action="store_true")

    profile = sub.add_parser(
        "profile", help="simulate one program under the span tracer "
                        "and print the phase-attribution profile")
    _add_program_args(profile)
    _add_cache_args(profile)
    _add_engine_args(profile, default_engine="warping")
    profile.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="also write the raw span events as Chrome trace-event "
             "JSON (open in chrome://tracing or Perfetto)")
    profile.add_argument(
        "--collapsed", metavar="FILE", default=None,
        help="also write flamegraph-collapsed stacks "
             "('path;to;span <self-us>' lines for flamegraph.pl or "
             "speedscope)")
    profile.add_argument("--json", action="store_true",
                         help="emit the phases payload (spans, "
                              "counters, coverage) plus the "
                              "simulation result")

    transform = sub.add_parser(
        "transform", help="pretty-print a program's (transformed) "
                          "loop nest without simulating it")
    _add_program_args(transform)
    transform.add_argument("--counts", action="store_true",
                           help="also compute exact per-array access "
                                "counts (enumerates the iteration "
                                "space)")
    transform.add_argument("--json", action="store_true")

    sweep = sub.add_parser(
        "sweep", help="run a design-space sweep (kernels x caches x "
                      "policies x transforms x engines) with a "
                      "persistent store")
    _add_sweep_args(sweep)

    frontier = sub.add_parser(
        "frontier", help="analyse a stored sweep: Pareto frontier, "
                         "policy sensitivity, cross-engine deltas")
    frontier.add_argument("--store", default=DEFAULT_STORE,
                          help=f"result store path (default "
                               f"{DEFAULT_STORE})")
    frontier.add_argument(
        "--objectives", default=None,
        help="comma-separated minimised objectives (default "
             "'capacity,l1_misses'; also: l1_size, miss_rate, "
             "wall_time, and lN_misses/lN_hits for any hierarchy "
             "level N, e.g. l3_misses)")
    frontier.add_argument("--per-kernel", action="store_true",
                          help="compute the frontier per kernel")
    frontier.add_argument("--sensitivity", action="store_true",
                          help="print the policy-sensitivity table "
                               "instead of the frontier")
    frontier.add_argument("--deltas", action="store_true",
                          help="print cross-engine accuracy deltas "
                               "instead of the frontier")
    frontier.add_argument("--json", action="store_true")

    monitor = sub.add_parser(
        "monitor", help="watch a sweep campaign live: progress, ETA, "
                        "per-worker heartbeats, stragglers, failures "
                        "(needs a sweep running with --heartbeat or "
                        "--live)")
    monitor.add_argument("store", nargs="?", default=DEFAULT_STORE,
                         help=f"result store path (default "
                              f"{DEFAULT_STORE})")
    monitor.add_argument("--once", action="store_true",
                         help="print one snapshot and exit instead of "
                              "following until the campaign completes")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="refresh interval in seconds (default 2)")
    monitor.add_argument("--export-prom", metavar="FILE", default=None,
                         help="also write the campaign metrics in "
                              "Prometheus text exposition format "
                              "(rewritten on every refresh; '-' for "
                              "stdout)")
    monitor.add_argument("--export-jsonl", metavar="FILE", default=None,
                         help="also append one scrape of the campaign "
                              "metrics per refresh to this JSONL "
                              "time-series file")
    monitor.add_argument("--json", action="store_true",
                         help="emit the status snapshot(s) as JSON")

    bench = sub.add_parser(
        "bench", help="run the benchmark suite under a stable harness "
                      "and write a schema'd BENCH_PR*.json")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke subset (two kernels)")
    bench.add_argument("--workers", type=int, default=4,
                       help="worker processes for the sharded "
                            "scenarios (default 4)")
    bench.add_argument("--shards", type=int, default=None,
                       help="shard count (default: same as --workers)")
    bench.add_argument("--repeat", type=int, default=1,
                       help="best-of-N timing repeats (default 1)")
    bench.add_argument("--pr", type=int, default=10,
                       help="PR number recorded in the payload and "
                            "the default output name (default 10)")
    bench.add_argument("--output", metavar="FILE", default=None,
                       help="output path (default BENCH_PR<pr>.json)")
    bench.add_argument(
        "--compare", metavar="OLD.json[,OLD2.json]", type=_comma_list,
        default=None,
        help="regression gate: diff this run against committed "
             "BENCH_PR*.json baselines and exit non-zero if any "
             "metric regressed past --threshold (wall-clock metrics "
             "are gated only against same-machine baselines; "
             "dimensionless speedups always)")
    bench.add_argument(
        "--threshold", type=float, default=None,
        help="slowdown ratio that fails the gate (default 1.5 = 50%% "
             "worse; only meaningful with --compare)")
    bench.add_argument(
        "--inject-slowdown", type=float, default=None, metavar="FACTOR",
        help="scale the fresh run's wall-clock metrics by FACTOR "
             "before comparing (the gate's own CI self-test; the "
             "written payload is NOT scaled)")
    bench.add_argument("--json", action="store_true",
                       help="print the full payload instead of the "
                            "summary table")

    lister = sub.add_parser("list-kernels",
                            help="list the PolyBench kernels")
    lister.add_argument("--json", action="store_true",
                        help="emit name, category, parameters and "
                             "per-size footprint/access counts")
    lister.add_argument(
        "--counts", type=_comma_list, default=["MINI"], metavar="SIZES",
        help="size classes to compute exact access counts for in the "
             "--json output (counting enumerates the outer iteration "
             "space; default MINI, pass '' to disable)")
    for subparser in (simulate, compare, profile, transform, sweep,
                      frontier, monitor, bench, lister):
        _add_verbosity_args(subparser)
    return parser


def _add_verbosity_args(parser: argparse.ArgumentParser,
                        top: bool = False) -> None:
    """``-v``/``-q`` flags, accepted before and after the subcommand.

    The top-level parser carries the real defaults; subparser copies
    use ``SUPPRESS`` so an unused flag never clobbers a value parsed
    before the subcommand (``repro -v sweep ...``).
    """
    default = 0 if top else argparse.SUPPRESS
    parser.add_argument(
        "-v", "--verbose", action="count", default=default,
        help="more diagnostics on stderr (-v: per-point/per-shard "
             "DEBUG detail)")
    parser.add_argument(
        "-q", "--quiet", action="count", default=default,
        help="fewer diagnostics on stderr (-q: warnings and errors "
             "only, -qq: errors only)")


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--source", metavar="FILE",
                       help="C source file (mini-C SCoP subset)")
    group.add_argument("--kernel", metavar="NAME",
                       help="PolyBench kernel name")
    parser.add_argument(
        "--size", default="MINI",
        help="PolyBench size class (MINI/SMALL/MEDIUM/LARGE/EXTRALARGE) "
             "or JSON dict of parameters, e.g. '{\"N\": 64}'")
    parser.add_argument(
        "--transform", metavar="SPEC", default=None,
        help="schedule-transformation pipeline applied to the program, "
             "e.g. 'tile(i,j:32x32); interchange(jj,i)' (ops: tile, "
             "strip_mine, interchange, reverse, fuse, distribute)")


POLICY_CHOICES = list(POLICIES)

_SIZE_SUFFIXES = {
    "": 1, "b": 1,
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3, "gib": 1024 ** 3,
}


def parse_size(text: str) -> int:
    """Parse a capacity like '32768', '32KiB' or '1M' into bytes."""
    match = re.fullmatch(r"\s*(\d+)\s*([a-zA-Z]*)\s*", str(text))
    if not match or match.group(2).lower() not in _SIZE_SUFFIXES:
        raise ValueError(
            f"invalid size {text!r}; use bytes or a KiB/MiB/GiB suffix")
    return int(match.group(1)) * _SIZE_SUFFIXES[match.group(2).lower()]


def parse_level_spec(text: str) -> Tuple[int, int, int, str]:
    """Parse one ``--cache`` level spec into (level, size, assoc, policy).

    The format is ``LEVEL:SIZE[:ASSOC[:POLICY]]``, e.g. ``L1:32KiB:8:plru``
    or ``L3:8MiB:16:qlru``; assoc defaults to 8 and policy to ``lru``.
    """
    parts = [part.strip() for part in str(text).split(":")]
    if not 2 <= len(parts) <= 4:
        raise ValueError(
            f"invalid level spec {text!r}; expected "
            f"LEVEL:SIZE[:ASSOC[:POLICY]], e.g. L2:1MiB:16:qlru")
    match = re.fullmatch(r"[lL](\d+)", parts[0])
    if not match:
        raise ValueError(
            f"invalid level name {parts[0]!r} in {text!r}; use L1, L2, ...")
    level = int(match.group(1))
    size = parse_size(parts[1])
    assoc = int(parts[2]) if len(parts) > 2 else 8
    policy = parts[3].lower() if len(parts) > 3 else "lru"
    if policy not in POLICY_CHOICES:
        raise ValueError(
            f"unknown policy {policy!r} in {text!r}; "
            f"use one of {POLICY_CHOICES}")
    return level, size, assoc, policy


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", metavar="SPEC", action="append", default=None,
        help="generic repeatable cache level spec "
             "LEVEL:SIZE[:ASSOC[:POLICY]], e.g. "
             "--cache L1:32KiB:8:plru --cache L2:1MiB:16:qlru "
             "--cache L3:8MiB:16:qlru; overrides the --l1-*/--l2-* "
             "flags and supports any hierarchy depth")
    parser.add_argument("--l1-size", type=int, default=32 * 1024,
                        help="L1 capacity in bytes (default 32768)")
    parser.add_argument("--l1-assoc", type=int, default=8)
    parser.add_argument("--l1-policy", default="plru",
                        choices=POLICY_CHOICES)
    parser.add_argument("--l2-size", type=int, default=0,
                        help="L2 capacity in bytes (0 = no L2)")
    parser.add_argument("--l2-assoc", type=int, default=16)
    parser.add_argument("--l2-policy", default="qlru",
                        choices=POLICY_CHOICES)
    parser.add_argument("--inclusion", default="nine",
                        choices=list(INCLUSIONS),
                        help="hierarchy inclusion policy (default nine)")
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--no-write-allocate", action="store_true",
                        help="write misses do not allocate")


def _add_engine_args(parser: argparse.ArgumentParser,
                     default_engine: Optional[str]) -> None:
    parser.add_argument(
        "--no-warping", action="store_true",
        help="disable warping (Algorithm 1 semantics)")
    engine_help = ("simulation engine (default: warping)"
                   if default_engine else
                   "restrict the comparison to one simulation engine "
                   "(default: all)")
    parser.add_argument("--engine", choices=list(ENGINES),
                        default=default_engine, help=engine_help)


def _comma_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _comma_ints(text: str) -> List[int]:
    return [int(item) for item in _comma_list(text)]


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", metavar="FILE",
        help="JSON sweep spec (an object or a list of objects, see "
             "repro.explore.spec); overrides the grid flags below")
    parser.add_argument("--kernels", type=_comma_list, default=None,
                        help="comma-separated kernel names, or 'all'")
    parser.add_argument("--sizes", type=_comma_list, default=["MINI"],
                        help="comma-separated size classes")
    parser.add_argument("--l1-sizes", type=_comma_ints,
                        default=[32 * 1024],
                        help="comma-separated L1 capacities in bytes")
    parser.add_argument("--l1-assocs", type=_comma_ints, default=[8])
    parser.add_argument("--l1-policies", type=_comma_list,
                        default=["plru"])
    parser.add_argument("--block-sizes", type=_comma_ints, default=[64])
    parser.add_argument("--l2-sizes", type=_comma_ints, default=[0],
                        help="comma-separated L2 capacities (0 = none)")
    parser.add_argument("--l2-assocs", type=_comma_ints, default=[16])
    parser.add_argument("--l2-policies", type=_comma_list,
                        default=["qlru"])
    parser.add_argument("--l3-sizes", type=_comma_ints, default=[0],
                        help="comma-separated L3 capacities (0 = none; "
                             "an L3 needs an L2)")
    parser.add_argument("--l3-assocs", type=_comma_ints, default=[16])
    parser.add_argument("--l3-policies", type=_comma_list,
                        default=["qlru"])
    parser.add_argument("--inclusions", type=_comma_list,
                        default=["nine"],
                        help="comma-separated inclusion policies "
                             "(nine, inclusive, exclusive); only "
                             "crossed for hierarchies (l2_size > 0)")
    parser.add_argument("--engines", type=_comma_list,
                        default=["warping"],
                        help="comma-separated engines "
                             "(warping, tree, dinero)")
    parser.add_argument(
        "--transform", metavar="SPEC", action="append",
        dest="transforms", default=None,
        help="schedule-transformation pipeline to add as a grid "
             "dimension (repeatable; '' is the untransformed "
             "schedule; default: untransformed only)")
    parser.add_argument("--no-write-allocate", action="store_true")
    parser.add_argument("--store", default=DEFAULT_STORE,
                        help=f"persistent result store "
                             f"(default {DEFAULT_STORE}; .sqlite/.db "
                             f"suffix selects the SQLite backend)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1 = serial)")
    parser.add_argument("--point-workers", type=int, default=1,
                        help="set-shard each point across this many "
                             "workers (most useful with --workers 1 "
                             "and a few large points)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in seconds")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-simulate points already in the store")
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="write per-worker heartbeat records into the store every "
             "SECONDS so 'repro monitor' can watch the campaign "
             "(default: off)")
    parser.add_argument(
        "--live", action="store_true",
        help="render live progress (throughput, ETA, errors) on "
             "stderr while the sweep runs; implies --heartbeat 2")
    parser.add_argument("--table", action="store_true",
                        help="print the per-point result table")
    parser.add_argument("--profile", action="store_true",
                        help="print a phase/counter profile aggregated "
                             "over all successful points (including "
                             "points loaded from the store) to stderr")
    parser.add_argument("--json", action="store_true")


def load_program(args) -> Scop:
    """The ``--kernel``/``--size`` or ``--source`` program with its
    ``--transform`` applied; a bad value of any of these flags exits
    with one line naming the flag."""
    scop = _load_kernel(args) if args.kernel else _load_source(args)
    transform = getattr(args, "transform", None)
    if not transform:
        return scop
    from repro.transform import TransformError, apply_pipeline

    try:
        return apply_pipeline(scop, transform)
    except TransformError as exc:
        raise SystemExit(f"--transform: {exc}")


def _load_kernel(args) -> Scop:
    from repro.polybench import get_kernel

    try:
        spec = get_kernel(args.kernel)
    except ValueError as exc:
        raise SystemExit(f"--kernel: {exc}")
    try:
        size = args.size
        if size.strip().startswith("{"):
            size = json.loads(size)
        params = spec.size_dict(size)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--size: {exc}")
    return spec.builder(**params)


def _load_source(args) -> Scop:
    from repro.frontend import parse_scop

    name = args.source.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        with open(args.source) as handle:
            return parse_scop(handle.read(), name=name)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--source: {exc}")


def load_config(args):
    write_policy = (WritePolicy.NO_WRITE_ALLOCATE
                    if args.no_write_allocate
                    else WritePolicy.WRITE_ALLOCATE)
    if args.cache:
        return _config_from_level_specs(args, write_policy)
    l1 = CacheConfig(args.l1_size, args.l1_assoc, args.block_size,
                     args.l1_policy, write_policy=write_policy,
                     name="L1")
    if not args.l2_size:
        _reject_single_level_inclusion(args)
        return l1
    l2 = CacheConfig(args.l2_size, args.l2_assoc, args.block_size,
                     args.l2_policy, write_policy=write_policy,
                     name="L2")
    return HierarchyConfig(l1, l2, inclusion=args.inclusion)


def _reject_single_level_inclusion(args) -> None:
    """A non-default --inclusion on a single-level config is a mistake,
    not a no-op: error out instead of silently ignoring it."""
    if args.inclusion != "nine":
        raise SystemExit(
            f"--inclusion {args.inclusion}: inclusion policies need a "
            f"hierarchy (add an L2 level)")


def _config_from_level_specs(args, write_policy):
    """Build a cache/hierarchy config from repeated ``--cache`` specs."""
    try:
        specs = sorted(parse_level_spec(text) for text in args.cache)
    except ValueError as exc:
        raise SystemExit(f"--cache: {exc}")
    numbers = [level for level, *_ in specs]
    if numbers != list(range(1, len(numbers) + 1)):
        raise SystemExit(
            f"--cache: level numbers must be contiguous from L1 "
            f"(got {['L%d' % n for n in numbers]})")
    try:
        levels = tuple(
            CacheConfig(size, assoc, args.block_size, policy,
                        write_policy=write_policy, name=f"L{level}")
            for level, size, assoc, policy in specs
        )
        if len(levels) == 1:
            _reject_single_level_inclusion(args)
            return levels[0]
        return HierarchyConfig(levels=levels, inclusion=args.inclusion)
    except ValueError as exc:
        raise SystemExit(f"--cache: {exc}")


def result_dict(result, has_l2: Optional[bool] = None) -> dict:
    """JSON payload for a simulation result.

    Emits one ``lN_hits``/``lN_misses`` pair per configured hierarchy
    level — even when a level's counters are zero — so downstream
    schemas (sweep stores, scripts) stay stable.  ``has_l2`` only
    adjusts results predating per-level stats (see
    :func:`repro.simulation.result.result_payload`).
    """
    from repro.simulation.result import result_payload

    return result_payload(result, has_l2=has_l2)


def _print_profile(tracer, title: str,
                   wall_s: Optional[float] = None) -> None:
    """Render a ``--profile`` report on stderr (stdout stays clean
    for ``--json`` payloads and result tables)."""
    from repro.obs.profile import render_profile

    print(render_profile(tracer, title=title, wall_s=wall_s),
          file=sys.stderr)


def cmd_simulate(args) -> int:
    from repro.simulation.dispatch import run_engine

    scop = load_program(args)
    config = load_config(args)

    def run():
        if args.workers > 1 and args.engine in ("tree", "warping"):
            from repro.perf.sharding import shard_simulate

            return shard_simulate(scop, config, engine=args.engine,
                                  workers=args.workers,
                                  enable_warping=not args.no_warping)
        return run_engine(scop, config, args.engine,
                          enable_warping=not args.no_warping)

    if args.profile:
        with obs.collect() as tracer:
            result = run()
        _print_profile(tracer, f"{scop.name} phase attribution",
                       wall_s=result.wall_time)
    else:
        result = run()
    if args.json:
        payload = result_dict(result)
        if args.transform:
            from repro.transform import canonical_spec

            payload["transform"] = canonical_spec(args.transform)
        print(json.dumps(payload, indent=2))
    else:
        print(result)
    return 0


def cmd_transform(args) -> int:
    from repro.transform import canonical_spec, render_scop

    scop = load_program(args)
    pipeline_spec = canonical_spec(args.transform) if args.transform \
        else ""
    if args.json:
        payload = {
            "program": scop.name,
            "transform": pipeline_spec,
            "arrays": {
                name: {"extents": list(array.extents),
                       "size_bytes": array.size_bytes}
                for name, array in scop.layout.arrays.items()
            },
            "footprint_bytes": scop.footprint_bytes(),
            "loops": sum(1 for _ in scop.loop_nodes()),
            "access_nodes": sum(1 for _ in scop.access_nodes()),
            "nest": render_scop(scop),
        }
        if args.counts:
            payload["accesses_by_array"] = scop.count_accesses_by_array()
            payload["accesses"] = sum(
                payload["accesses_by_array"].values())
        print(json.dumps(payload, indent=2))
        return 0
    header = scop.name
    if pipeline_spec:
        header += f"  [{pipeline_spec}]"
    print(header)
    print("arrays: " + "  ".join(
        f"{name}[{']['.join(str(e) for e in array.extents)}]"
        for name, array in scop.layout.arrays.items())
        + f"  ({scop.footprint_bytes()} bytes)")
    print()
    print(render_scop(scop))
    if args.counts:
        counts = scop.count_accesses_by_array()
        print()
        print(f"accesses: {sum(counts.values())}  ("
              + ", ".join(f"{name}: {count}"
                          for name, count in counts.items()) + ")")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import haystack_misses, polycache_misses
    from repro.simulation.dispatch import run_engine

    scop = load_program(args)
    config = load_config(args)
    is_hierarchy = isinstance(config, HierarchyConfig)
    l1 = config.l1 if is_hierarchy else config
    engines = [args.engine] if args.engine else list(ENGINES)
    tracer = obs.enable() if args.profile else None
    try:
        rows = []
        for engine in engines:
            name = engine
            if engine == "warping" and args.no_warping:
                # Mark the ablation so timings are never misattributed.
                name = "warping (warping off)"
            rows.append((name,
                         run_engine(scop, config, engine,
                                    enable_warping=not args.no_warping)))
        # HayStack models a single FA L1 only, so its result carries no
        # outer-level counters in a hierarchy comparison.
        rows.append(("haystack (FA LRU)", haystack_misses(scop, l1)))
        # PolyCache models NINE LRU only — at every level of the
        # hierarchy.
        all_lru = (l1.policy == "lru" if not is_hierarchy
                   else all(cfg.policy == "lru" for cfg in config.levels))
        if all_lru and (not is_hierarchy
                        or config.inclusion is InclusionPolicy.NINE):
            rows.append(("polycache", polycache_misses(scop, config)))
    finally:
        if tracer is not None:
            obs.disable()
    if tracer is not None:
        # Every engine's root span sits side by side in one table, so
        # the denominator is the sum of root spans, not one wall time.
        _print_profile(tracer, f"{scop.name} phase attribution "
                               f"(all engines)")
    if args.json:
        print(json.dumps({name: result_dict(result)
                          for name, result in rows}, indent=2))
    else:
        for name, result in rows:
            print(f"{name:18s} L1 misses {result.l1_misses:10d}  "
                  f"({result.wall_time * 1000:8.1f} ms)")
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import (
        phases_payload,
        render_profile,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.simulation.dispatch import run_engine

    scop = load_program(args)
    config = load_config(args)
    with obs.collect() as tracer:
        result = run_engine(scop, config, args.engine,
                            enable_warping=not args.no_warping)
    if args.trace_out:
        trace = write_chrome_trace(tracer, args.trace_out)
        validate_chrome_trace(trace)
    if args.collapsed:
        collapsed = tracer.to_collapsed()
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(collapsed + ("\n" if collapsed else ""))
    if args.json:
        payload = phases_payload(tracer, result.wall_time,
                                 kernel=scop.name, engine=args.engine)
        payload["result"] = result_dict(result)
        print(json.dumps(payload, indent=2))
        return 0
    engine_label = args.engine
    if args.engine == "warping" and args.no_warping:
        engine_label = "warping, warping off"
    print(f"{scop.name}: {result.accesses} accesses, "
          f"{result.l1_misses} L1 misses, "
          f"{result.wall_time * 1000:.1f} ms ({engine_label})")
    print()
    print(render_profile(tracer,
                         title=f"{scop.name} phase attribution",
                         wall_s=result.wall_time))
    for path, label in ((args.trace_out, "Chrome trace"),
                        (args.collapsed, "collapsed stacks")):
        if path:
            print(f"wrote {label} to {path}")
    return 0


def _sweep_from_args(args):
    from repro.polybench import all_kernel_names

    if args.spec:
        return SweepSpec.from_file(args.spec)
    if not args.kernels:
        raise SystemExit("sweep: provide --spec FILE or --kernels "
                         "(comma-separated, or 'all')")
    kernels = (all_kernel_names() if args.kernels == ["all"]
               else args.kernels)
    return SweepSpec(
        kernels=kernels,
        sizes=args.sizes,
        l1_sizes=args.l1_sizes,
        l1_assocs=args.l1_assocs,
        l1_policies=args.l1_policies,
        block_sizes=args.block_sizes,
        l2_sizes=args.l2_sizes,
        l2_assocs=args.l2_assocs,
        l2_policies=args.l2_policies,
        l3_sizes=args.l3_sizes,
        l3_assocs=args.l3_assocs,
        l3_policies=args.l3_policies,
        inclusions=args.inclusions,
        engines=args.engines,
        transforms=(args.transforms if args.transforms else [""]),
        write_allocate=not args.no_write_allocate,
    )


def cmd_sweep(args) -> int:
    from repro.explore.report import sweep_summary, sweep_table
    from repro.explore.runner import run_sweep
    from repro.explore.store import open_store

    stats: dict = {}
    try:
        spec = _sweep_from_args(args)
        points = spec.expand(stats=stats)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"sweep: {exc}")
    if not points:
        raise SystemExit(
            f"sweep: the grid expands to 0 valid points "
            f"({stats.get('invalid', 0)} of {stats.get('raw', 0)} "
            f"combinations have invalid cache geometry, e.g. a "
            f"capacity not divisible by assoc * block_size)")
    if stats.get("invalid"):
        _LOG.warning(
            "sweep: note: dropped %d of %d grid combinations with "
            "invalid cache geometry", stats["invalid"], stats["raw"])
    heartbeat = args.heartbeat
    if args.live and not heartbeat:
        heartbeat = 2.0
    live = None
    progress = None
    if args.live:
        from repro.explore.monitor import LiveProgress

        known = {point.key() for point in points}
        live = LiveProgress(total=len(known), loaded=0)
        progress = live.update
    with open_store(args.store) as store:
        if live is not None and not args.no_resume:
            live.loaded = len(store.completed_keys() & known)
        try:
            outcome = run_sweep(
                points, store=store, workers=args.workers,
                timeout=args.timeout, resume=not args.no_resume,
                point_workers=args.point_workers,
                heartbeat=heartbeat, progress=progress)
        except KeyboardInterrupt:
            done = len(store.completed_keys())
            _LOG.warning(
                "sweep interrupted: %d points in %s; re-run the same "
                "command to resume", done, args.store)
            return 130
        finally:
            if live is not None:
                live.close()
    if args.profile:
        _print_profile(
            _aggregate_sweep_tracer(outcome.ok_records),
            f"sweep phase attribution "
            f"({len(outcome.ok_records)} points)")
    if args.json:
        payload = outcome.to_dict()
        payload["store"] = args.store
        payload["records"] = outcome.records
        print(json.dumps(payload, indent=2))
    else:
        print(sweep_summary(outcome, store_path=args.store))
        if args.table:
            print()
            print(sweep_table(outcome.ok_records))
    return 1 if outcome.errors else 0


def _aggregate_sweep_tracer(records):
    """Sum the persisted per-point ``phases``/``counters`` sections of
    successful sweep records into one tracer for reporting."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    for record in records:
        result = record.get("result") or {}
        tracer.merge_phase_totals(result.get("phases") or {})
        for name, value in (result.get("counters") or {}).items():
            tracer.count(name, value)
    return tracer


def cmd_frontier(args) -> int:
    from repro.explore.frontier import (
        DEFAULT_OBJECTIVES,
        OBJECTIVES,
        engine_deltas,
        pareto_frontier,
        policy_sensitivity,
        resolve_objective,
    )
    from repro.explore.report import (
        deltas_table,
        failures_table,
        frontier_table,
        sensitivity_table,
        store_metrics_summary,
    )
    from repro.explore.store import open_store

    # Validate objective names up front — before any store I/O — so a
    # typo yields a clear message instead of a traceback mid-analysis.
    objectives = (list(DEFAULT_OBJECTIVES) if args.objectives is None
                  else _comma_list(args.objectives))
    if not objectives:
        raise SystemExit("frontier: --objectives must name at least "
                         "one objective")
    for name in objectives:
        try:
            resolve_objective(name)
        except ValueError:
            raise SystemExit(
                f"frontier: unknown objective {name!r}; available: "
                f"{', '.join(sorted(OBJECTIVES))}, plus lN_misses/"
                f"lN_hits for any hierarchy level N (e.g. l3_misses)")
    if not os.path.exists(args.store):
        # frontier is read-only: do not create an empty store file.
        raise SystemExit(f"frontier: store {args.store!r} does not "
                         f"exist (run 'repro sweep' first)")
    with open_store(args.store) as store:
        records = store.ok_records()
        failed = [] if args.json else [
            record for record in store.point_records()
            if record.get("status") != "ok"]
    if not records:
        raise SystemExit(f"frontier: no results in store {args.store!r} "
                         f"(run 'repro sweep' first)")
    if args.sensitivity:
        rows = policy_sensitivity(records)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(sensitivity_table(rows))
        return 0
    if args.deltas:
        rows = engine_deltas(records)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(deltas_table(rows))
        return 0
    try:
        frontier = pareto_frontier(records, objectives,
                                   group_by_kernel=args.per_kernel)
    except ValueError as exc:
        raise SystemExit(f"frontier: {exc}")
    if args.json:
        print(json.dumps(frontier, indent=2))
    else:
        print(frontier_table(frontier, objectives))
        # Store-backed metrics ride in every record — surface the
        # aggregate (decision-cache reuse, ILP pressure) without a flag.
        print()
        print(store_metrics_summary(records))
        if failed:
            print()
            print(failures_table(failed))
    return 0


def cmd_monitor(args) -> int:
    import time

    from repro.explore.monitor import (
        campaign_registry,
        campaign_status,
        monitor_json,
    )
    from repro.explore.report import monitor_view
    from repro.explore.store import open_store
    from repro.obs.export import append_series, to_prometheus

    if not os.path.exists(args.store):
        raise SystemExit(f"monitor: store {args.store!r} does not "
                         f"exist (run 'repro sweep' first)")
    if args.interval <= 0:
        raise SystemExit("monitor: --interval must be > 0")

    def render_once() -> dict:
        # Reopened per refresh: a JSONL store indexes the file at open,
        # so a long-lived handle would never see the workers' appends.
        with open_store(args.store) as store:
            status = campaign_status(store)
            exporting = args.export_prom or args.export_jsonl
            registry = (campaign_registry(store, status)
                        if exporting else None)
        if registry is not None and args.export_prom:
            text = to_prometheus(registry)
            if args.export_prom == "-":
                print(text, end="")
            else:
                with open(args.export_prom, "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
        if registry is not None and args.export_jsonl:
            append_series(args.export_jsonl, registry, status["now"])
        if args.json:
            print(monitor_json(status))
        elif args.export_prom != "-":
            print(monitor_view(status))
        return status

    status = render_once()
    while not args.once and not status["complete"]:
        time.sleep(args.interval)
        if not args.json and args.export_prom != "-" \
                and sys.stdout.isatty():
            # Clear and redraw on terminals; plain appends elsewhere.
            print("\x1b[2J\x1b[H", end="")
        else:
            print()
        status = render_once()
    return 0


def cmd_bench(args) -> int:
    from repro.perf.bench import bench_summary, run_bench, write_bench

    if args.workers < 1:
        raise SystemExit("bench: --workers must be >= 1")
    for flag, name in ((args.threshold, "--threshold"),
                       (args.inject_slowdown, "--inject-slowdown")):
        if flag is not None and not args.compare:
            raise SystemExit(f"bench: {name} requires --compare")
    payload = run_bench(workers=args.workers, shards=args.shards,
                        quick=args.quick, repeat=args.repeat,
                        pr=args.pr)
    report = None
    if args.compare:
        from repro.perf.regress import (
            DEFAULT_THRESHOLD,
            compare_payloads,
            inject_slowdown,
        )
        from repro.perf.schema import BenchSchemaError, load_and_validate

        try:
            baselines = [load_and_validate(path)
                         for path in args.compare]
        except (OSError, json.JSONDecodeError,
                BenchSchemaError) as exc:
            raise SystemExit(f"bench: --compare: {exc}")
        fresh = payload
        if args.inject_slowdown is not None:
            try:
                fresh = inject_slowdown(payload, args.inject_slowdown)
            except ValueError as exc:
                raise SystemExit(f"bench: {exc}")
        try:
            report = compare_payloads(
                fresh, baselines,
                threshold=(args.threshold if args.threshold is not None
                           else DEFAULT_THRESHOLD))
        except ValueError as exc:
            raise SystemExit(f"bench: --compare: {exc}")
        # The gate's verdict travels with the payload (optional
        # section of repro-bench/1, see repro.perf.schema).
        payload["compare"] = report
    output = args.output or f"BENCH_PR{args.pr}.json"
    write_bench(payload, output)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(bench_summary(payload))
        if report is not None:
            from repro.perf.regress import regression_table

            print()
            print(regression_table(report))
        print(f"wrote {output}")
    if report is not None and not report["ok"]:
        return 1
    return 0


def cmd_list_kernels(args) -> int:
    from repro.polybench import SIZE_CLASSES, all_kernel_names, get_kernel

    names = all_kernel_names()
    # Validate up front so a typo'd --counts errors in text mode too,
    # instead of being silently ignored.
    count_classes = {cls.upper() for cls in args.counts}
    unknown = count_classes - set(SIZE_CLASSES)
    if unknown:
        raise SystemExit(
            f"list-kernels: unknown size classes in --counts: "
            f"{sorted(unknown)}; use a subset of "
            f"{list(SIZE_CLASSES)}")
    if args.json:
        payload = {}
        for name in names:
            spec = get_kernel(name)
            sizes = {}
            for cls in SIZE_CLASSES:
                scop = spec.build(cls)
                entry = {
                    "params": spec.size_dict(cls),
                    "footprint_bytes": scop.footprint_bytes(),
                }
                if cls in count_classes:
                    entry["accesses"] = scop.count_accesses()
                sizes[cls] = entry
            payload[name] = {
                "category": spec.category,
                "params": list(spec.params),
                "is_stencil": spec.is_stencil,
                "sizes": sizes,
            }
        print(json.dumps(payload, indent=2))
    else:
        for name in names:
            spec = get_kernel(name)
            print(f"{name:16s} {spec.category:26s} "
                  f"params: {', '.join(spec.params)}")
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    verbosity = (getattr(args, "verbose", 0) or 0) \
        - (getattr(args, "quiet", 0) or 0)
    configure_logging(verbosity)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "profile":
            return cmd_profile(args)
        if args.command == "transform":
            return cmd_transform(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "frontier":
            return cmd_frontier(args)
        if args.command == "monitor":
            return cmd_monitor(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_list_kernels(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro frontier | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

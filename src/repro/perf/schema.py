"""Schema of the ``BENCH_PR*.json`` performance trajectory.

Every PR that touches performance appends a ``BENCH_PR<n>.json`` to the
repository root, produced by ``repro bench``.  The files share one
schema (``repro-bench/1``) so the trajectory stays machine-readable
across PRs; :func:`validate_bench` is a dependency-free validator run
by the bench harness before writing, by the test suite over every
committed file, and by CI over a fresh ``--quick`` run.

Speedup semantics (recorded per sharded scenario):

* ``speedup_vs_sequential`` — sequential time divided by the
  *critical path* of the sharded run (the maximum per-shard CPU
  time).  This is the machine-independent figure of merit: on a host
  with at least as many like cores as workers it coincides with the
  end-to-end speedup; on fewer cores the workers time-share and only
  the critical path reflects the engine's parallelism.  In payloads
  that carry ``sequential_cpu_s`` both sides are CPU times measured in
  the bench process over several rounds that each run the sequential
  engine and every shard (``sequential_cpu_s`` is the median
  sequential time, each ``shard_cpu_s`` entry that times the shard's
  median fraction of the sequential run of its round), so that a
  slower vCPU under one pool worker cannot pass for a slower shard;
  older files divide the sequential wall time by pool workers' CPU
  times.
* ``wall_speedup`` — sequential wall time divided by the end-to-end
  wall time of the sharded run on the measuring machine (pool spawn
  and time-sharing included).  ``machine.cpu_count`` says how much
  concurrency that machine could express.

Since PR 5 payloads also carry an optional top-level ``phases`` list —
one span/counter breakdown per profiled warping run (see
:func:`repro.obs.profile.phases_payload`); files from earlier PRs
remain valid without it.

Since PR 8 a payload produced by ``repro bench --compare`` may also
carry an optional top-level ``compare`` section — the regression-gate
report of :func:`repro.perf.regress.compare_payloads` — recording what
the fresh run was compared against and the verdict.  Earlier files
remain valid without it.

Since PR 10 the summary may carry an optional ``lp`` section — the
certified-LP-core mini-scenario (decision-cache cold/warm timings and
memo hit counters, see ``repro.perf.bench._lp_scenario``).  Earlier
files remain valid without it.

Older files also carry a summary ``memo`` section, the cold/warm
timings of a cross-run warp-analysis memo that has since been removed
(the decision cache answers the same queries).  It is no longer
required or checked, so those files stay valid and new files omit it.
"""

from __future__ import annotations

from typing import List

SCHEMA_NAME = "repro-bench/1"

_MACHINE_KEYS = {
    "platform": str,
    "python": str,
    "cpu_count": int,
}

_SCENARIO_COMMON = {
    "kernel": str,
    "size": dict,
    "engine": str,
    "mode": str,
    "accesses": int,
    "l1_misses": int,
    "wall_s": (int, float),
    "accesses_per_s": (int, float),
}

_SCENARIO_SHARDED = {
    "shards": int,
    "workers": int,
    "shard_cpu_s": list,
    "critical_path_s": (int, float),
    "speedup_vs_sequential": (int, float),
    "wall_speedup": (int, float),
}

_SUMMARY_KEYS = {
    "sharded_tree_speedup_min": (int, float),
    "sharded_tree_speedup_geomean": (int, float),
    "warping_speedup_geomean": (int, float),
}

# Optional since PR 5 (files from earlier PRs predate it): one entry
# per profiled warping run, see repro.obs.profile.phases_payload.
_PHASE_KEYS = {
    "kernel": str,
    "engine": str,
    "wall_s": (int, float),
    "attributed_s": (int, float),
    "coverage": (int, float),
    "spans": dict,
    "counters": dict,
}

_ENGINES = ("tree", "warping")
_MODES = ("sequential", "sharded")


class BenchSchemaError(ValueError):
    """A bench payload violating ``repro-bench/1``."""


def _require(payload: dict, key: str, types, where: str) -> object:
    if key not in payload:
        raise BenchSchemaError(f"{where}: missing key {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise BenchSchemaError(
            f"{where}.{key}: expected {types}, got {type(value).__name__}")
    if types is int and isinstance(value, bool):
        raise BenchSchemaError(f"{where}.{key}: expected int, got bool")
    return value


def validate_bench(payload: dict) -> List[dict]:
    """Validate a bench payload; returns its scenario list.

    Raises :class:`BenchSchemaError` on the first violation.

    >>> validate_bench({"schema": "wrong"})
    Traceback (most recent call last):
        ...
    repro.perf.schema.BenchSchemaError: bench: schema 'wrong' != 'repro-bench/1'
    """
    if not isinstance(payload, dict):
        raise BenchSchemaError("bench: payload must be an object")
    if payload.get("schema") != SCHEMA_NAME:
        raise BenchSchemaError(
            f"bench: schema {payload.get('schema')!r} != {SCHEMA_NAME!r}")
    _require(payload, "pr", int, "bench")
    _require(payload, "created_utc", str, "bench")
    suite = _require(payload, "suite", str, "bench")
    if suite not in ("full", "quick"):
        raise BenchSchemaError(f"bench.suite: unknown suite {suite!r}")
    _require(payload, "workers", int, "bench")
    _require(payload, "shards", int, "bench")
    machine = _require(payload, "machine", dict, "bench")
    for key, types in _MACHINE_KEYS.items():
        _require(machine, key, types, "bench.machine")
    scenarios = _require(payload, "scenarios", list, "bench")
    if not scenarios:
        raise BenchSchemaError("bench.scenarios: must not be empty")
    for index, scenario in enumerate(scenarios):
        where = f"bench.scenarios[{index}]"
        if not isinstance(scenario, dict):
            raise BenchSchemaError(f"{where}: must be an object")
        for key, types in _SCENARIO_COMMON.items():
            _require(scenario, key, types, where)
        if scenario["engine"] not in _ENGINES:
            raise BenchSchemaError(
                f"{where}.engine: unknown engine {scenario['engine']!r}")
        if scenario["mode"] not in _MODES:
            raise BenchSchemaError(
                f"{where}.mode: unknown mode {scenario['mode']!r}")
        if scenario["mode"] == "sharded":
            for key, types in _SCENARIO_SHARDED.items():
                _require(scenario, key, types, where)
            if len(scenario["shard_cpu_s"]) != scenario["shards"]:
                raise BenchSchemaError(
                    f"{where}.shard_cpu_s: expected one entry per shard")
    phases = payload.get("phases")
    if phases is not None:
        if not isinstance(phases, list):
            raise BenchSchemaError("bench.phases: expected a list")
        for index, entry in enumerate(phases):
            where = f"bench.phases[{index}]"
            if not isinstance(entry, dict):
                raise BenchSchemaError(f"{where}: must be an object")
            for key, types in _PHASE_KEYS.items():
                _require(entry, key, types, where)
            for name, stats in entry["spans"].items():
                if not isinstance(stats, dict):
                    raise BenchSchemaError(
                        f"{where}.spans[{name!r}]: must be an object")
    summary = _require(payload, "summary", dict, "bench")
    for key, types in _SUMMARY_KEYS.items():
        _require(summary, key, types, "bench.summary")
    lp = summary.get("lp")
    if lp is not None:
        if not isinstance(lp, dict):
            raise BenchSchemaError("bench.summary.lp: expected an object")
        for key in ("cold_s", "warm_s", "speedup", "hit_rate"):
            _require(lp, key, (int, float), "bench.summary.lp")
        for key in ("memo_hits", "memo_misses", "ilp_solves_cold",
                    "ilp_solves_warm"):
            _require(lp, key, int, "bench.summary.lp")
    compare = payload.get("compare")
    if compare is not None:
        if not isinstance(compare, dict):
            raise BenchSchemaError("bench.compare: expected an object")
        _require(compare, "threshold", (int, float), "bench.compare")
        _require(compare, "ok", bool, "bench.compare")
        rows = _require(compare, "rows", list, "bench.compare")
        regressions = _require(compare, "regressions", list,
                               "bench.compare")
        for name, entries in (("rows", rows),
                              ("regressions", regressions)):
            for index, row in enumerate(entries):
                where = f"bench.compare.{name}[{index}]"
                if not isinstance(row, dict):
                    raise BenchSchemaError(f"{where}: must be an object")
                for key, types in (("metric", str),
                                   ("ratio", (int, float)),
                                   ("gated", bool)):
                    _require(row, key, types, where)
    return scenarios


def load_and_validate(path: str) -> dict:
    """Read a ``BENCH_PR*.json`` file and validate it."""
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_bench(payload)
    return payload

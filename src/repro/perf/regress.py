"""Performance-regression gate over the ``BENCH_PR*.json`` trajectory.

:func:`compare_payloads` diffs a fresh ``repro bench`` payload against
one or more committed baseline payloads and flags slowdowns past a
configurable threshold; ``repro bench --compare OLD.json[,OLD2.json]``
runs it and exits non-zero on any regression, which is what CI wires
into the regression-gate job.

Benchmarks are noisy and the trajectory spans machines, so the gate is
deliberately conservative about what it compares:

* **Wall-clock metrics** (``wall_s``) are gated only when the fresh run
  and the baseline share a machine fingerprint (platform string and
  CPU count) — comparing seconds across hosts is meaningless.  Tiny
  scenarios (below ``min_wall_s``) are skipped outright: a 20 ms
  measurement regressing to 35 ms is timer noise, not a finding.
* **Dimensionless speedups** (``speedup_vs_sequential`` and the
  summary geomeans) are ratios of two timings taken on
  the *same* host in the *same* run, so they transfer across machines
  and are always gated.
* With several baselines, each metric is compared against its **most
  favourable** baseline (the minimum regression ratio): one noisy
  historical file must not fail the gate when a later baseline shows
  the speed was never really there.

A regression ratio is always oriented so that > 1 means "worse":
``new/old`` for lower-is-better metrics, ``old/new`` for
higher-is-better ones.

>>> base = {"machine": {"platform": "p", "cpu_count": 4},
...         "pr": 4,
...         "scenarios": [{"kernel": "atax", "engine": "tree",
...                        "mode": "sequential", "wall_s": 1.0}],
...         "summary": {}}
>>> slow = inject_slowdown(base, 2.0)
>>> report = compare_payloads(slow, [base], threshold=1.5)
>>> (report["ok"], len(report["regressions"]))
(False, 1)
>>> report["regressions"][0]["ratio"]
2.0
>>> compare_payloads(base, [base], threshold=1.5)["ok"]
True
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

#: A metric must be at least this much worse than the baseline before
#: the gate fails (1.5 = 50% slower).
DEFAULT_THRESHOLD = 1.5

#: Wall-clock scenarios faster than this are never gated (timer noise).
DEFAULT_MIN_WALL_S = 0.05

#: Wall-clock fields scaled by :func:`inject_slowdown`.
_WALL_FIELDS = ("wall_s", "critical_path_s")


def machine_fingerprint(payload: dict) -> Tuple[str, int]:
    """(platform, cpu_count) — the identity wall-clock times live on."""
    machine = payload.get("machine") or {}
    return (str(machine.get("platform", "")),
            int(machine.get("cpu_count", 0)))


def same_machine(a: dict, b: dict) -> bool:
    """True when two payloads share a machine fingerprint."""
    fp_a, fp_b = machine_fingerprint(a), machine_fingerprint(b)
    return fp_a == fp_b and fp_a != ("", 0)


def inject_slowdown(payload: dict, factor: float) -> dict:
    """Return a copy of ``payload`` uniformly slowed by ``factor``.

    Test hook for the gate itself (CI runs a self-test: a 2x injected
    slowdown against a just-written same-machine baseline *must* fail).
    Scales every wall-clock field by ``factor`` and throughput by
    ``1/factor``; dimensionless speedups are left alone — a uniform
    slowdown does not change them, and the self-test exercises exactly
    the same-machine wall-clock path.
    """
    if factor <= 0:
        raise ValueError(f"inject_slowdown: factor must be > 0, "
                         f"got {factor}")
    slowed = copy.deepcopy(payload)
    for scenario in slowed.get("scenarios", ()):
        for fieldname in _WALL_FIELDS:
            if fieldname in scenario:
                scenario[fieldname] = round(
                    scenario[fieldname] * factor, 6)
        if "shard_cpu_s" in scenario:
            scenario["shard_cpu_s"] = [
                round(value * factor, 6)
                for value in scenario["shard_cpu_s"]]
        if "accesses_per_s" in scenario:
            scenario["accesses_per_s"] = round(
                scenario["accesses_per_s"] / factor, 1)
    return slowed


def _scenario_index(payload: dict) -> Dict[Tuple, dict]:
    return {(s.get("kernel"), s.get("engine"), s.get("mode")): s
            for s in payload.get("scenarios", ())}


def _metric_rows(new: dict, baseline: dict,
                 min_wall_s: float) -> List[dict]:
    """All comparable (scenario, metric) pairs against one baseline.

    Each row carries ``ratio`` oriented worse-is-greater and ``gated``
    saying whether the gate may act on it (False for cross-machine
    wall clocks and sub-noise-floor scenarios — they are still shown,
    greyed out, so the report explains *why* nothing fired).
    """
    comparable_walls = same_machine(new, baseline)
    old_index = _scenario_index(baseline)
    rows = []
    for key, scenario in _scenario_index(new).items():
        old = old_index.get(key)
        if old is None:
            continue
        label = {"kernel": key[0], "engine": key[1], "mode": key[2]}
        old_wall, new_wall = old.get("wall_s"), scenario.get("wall_s")
        if old_wall and new_wall:
            rows.append(dict(
                label, metric="wall_s",
                new=new_wall, old=old_wall,
                ratio=round(new_wall / old_wall, 3),
                gated=(comparable_walls
                       and min(old_wall, new_wall) >= min_wall_s)))
        old_sp = old.get("speedup_vs_sequential")
        new_sp = scenario.get("speedup_vs_sequential")
        if old_sp and new_sp:
            rows.append(dict(
                label, metric="speedup_vs_sequential",
                new=new_sp, old=old_sp,
                ratio=round(old_sp / new_sp, 3), gated=True))

    new_summary = new.get("summary") or {}
    old_summary = baseline.get("summary") or {}
    for metric in ("sharded_tree_speedup_geomean",
                   "warping_speedup_geomean"):
        old_value = old_summary.get(metric)
        new_value = new_summary.get(metric)
        if old_value and new_value:
            rows.append({
                "kernel": "-", "engine": "-", "mode": "summary",
                "metric": metric, "new": new_value, "old": old_value,
                "ratio": round(old_value / new_value, 3), "gated": True,
            })
    return rows


def compare_payloads(new: dict, baselines: Sequence[dict],
                     threshold: float = DEFAULT_THRESHOLD,
                     min_wall_s: float = DEFAULT_MIN_WALL_S) -> dict:
    """Gate a fresh bench payload against committed baselines.

    Returns a JSON-clean report: per-metric ``rows`` (each against its
    most favourable baseline), the subset that regressed, and ``ok``.

    >>> old = {"pr": 4, "machine": {"platform": "p", "cpu_count": 4},
    ...        "scenarios": [{"kernel": "atax", "engine": "tree",
    ...                       "mode": "sequential", "wall_s": 1.0}],
    ...        "summary": {}}
    >>> new = dict(old, pr=8, scenarios=[
    ...     {"kernel": "atax", "engine": "tree",
    ...      "mode": "sequential", "wall_s": 2.2}])
    >>> report = compare_payloads(new, [old])
    >>> (report["ok"], report["regressions"][0]["ratio"])
    (False, 2.2)
    """
    if not baselines:
        raise ValueError("compare_payloads: at least one baseline "
                         "payload is required")
    if threshold <= 1.0:
        raise ValueError(f"compare_payloads: threshold must be > 1.0, "
                         f"got {threshold}")

    # metric identity -> best (lowest-ratio) row across baselines
    best: Dict[Tuple, dict] = {}
    for baseline in baselines:
        pr = baseline.get("pr")
        for row in _metric_rows(new, baseline, min_wall_s):
            row["baseline_pr"] = pr
            key = (row["kernel"], row["engine"], row["mode"],
                   row["metric"])
            kept = best.get(key)
            # A gated comparison always beats an ungated one — "we
            # could compare and it was fine" over "we could not tell".
            if (kept is None
                    or (row["gated"], -row["ratio"])
                    > (kept["gated"], -kept["ratio"])):
                best[key] = row

    rows = [best[key] for key in sorted(best, key=lambda k:
            tuple(str(part) for part in k))]
    regressions = [row for row in rows
                   if row["gated"] and row["ratio"] > threshold]
    return {
        "threshold": threshold,
        "min_wall_s": min_wall_s,
        "baselines": [
            {"pr": baseline.get("pr"),
             "suite": baseline.get("suite"),
             "same_machine": same_machine(new, baseline)}
            for baseline in baselines
        ],
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def regression_table(report: dict) -> str:
    """Render a compare report as an aligned table plus a verdict."""
    from repro.analysis.report import format_table

    rows = []
    for row in report["rows"]:
        flag = ""
        if not row["gated"]:
            flag = "(ungated)"
        elif row["ratio"] > report["threshold"]:
            flag = "REGRESSION"
        rows.append([
            row["kernel"], row["engine"], row["mode"], row["metric"],
            row["old"], row["new"], f"{row['ratio']:.2f}x", flag,
        ])
    table = format_table(
        ["kernel", "engine", "mode", "metric", "baseline", "new",
         "ratio", ""],
        rows,
        title=f"bench compare (threshold {report['threshold']:.2f}x, "
              f"ratio > 1 is worse)")
    baselines = ", ".join(
        f"PR {entry['pr']}"
        + ("" if entry["same_machine"] else " [other machine]")
        for entry in report["baselines"])
    verdict = ("ok: no metric regressed past the threshold"
               if report["ok"] else
               f"FAIL: {len(report['regressions'])} metric(s) "
               f"regressed past {report['threshold']:.2f}x")
    return f"{table}\nbaselines: {baselines}\n{verdict}"

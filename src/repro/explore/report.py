"""Text rendering of sweep outcomes and frontier analyses.

Bridges :mod:`repro.explore` to :func:`repro.analysis.format_table` so
the CLI and examples print the same aligned monospace tables as the
benchmark harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.analysis.report import format_table
from repro.explore.frontier import objective_values

if TYPE_CHECKING:
    from repro.explore.runner import SweepOutcome


def sweep_summary(outcome: SweepOutcome, store_path: str = "") -> str:
    """One-paragraph summary of a sweep invocation."""
    lines = [
        f"sweep: {outcome.total} points, "
        f"{outcome.loaded} loaded from store, "
        f"{outcome.computed} simulated, {outcome.errors} errors "
        f"({outcome.wall_time:.2f}s)"
    ]
    if store_path:
        lines.append(f"store: {store_path}")
    return "\n".join(lines)


def _program_label(point: dict) -> str:
    """Kernel name, tagged with its transform pipeline when present."""
    transform = point.get("transform")
    if transform:
        return f"{point['kernel']} [{transform}]"
    return point["kernel"]


def _point_label(point: dict) -> str:
    parts = [f"{point['l1_size']}B/{point['l1_assoc']}w/"
             f"{point['l1_policy']}"]
    for level in (2, 3):
        if point.get(f"l{level}_size"):
            parts.append(f"{point[f'l{level}_size']}B/"
                         f"{point[f'l{level}_assoc']}w/"
                         f"{point[f'l{level}_policy']}")
    label = " + ".join(parts)
    inclusion = point.get("inclusion", "nine")
    if inclusion != "nine":
        label += f" [{inclusion}]"
    return label


def sweep_table(records: Sequence[dict]) -> str:
    """Per-point result table for a sweep's successful records."""
    rows = []
    for record in records:
        point, result = record["point"], record["result"]
        rate = result["l1_misses"] / max(1, result["accesses"])
        rows.append([
            _program_label(point), _point_label(point), point["engine"],
            result["accesses"], result["l1_misses"],
            f"{100 * rate:.2f}%",
            f"{result['wall_time_s'] * 1000:.1f}",
        ])
    return format_table(
        ["kernel", "cache", "engine", "accesses", "L1 misses",
         "miss rate", "ms"],
        rows, title="sweep results")


def frontier_table(records: Sequence[dict],
                   objectives: Sequence[str]) -> str:
    """Pareto-frontier table (one row per non-dominated point)."""
    rows = []
    for record in records:
        point = record["point"]
        values = objective_values(record, objectives)
        wall_s = record["result"].get("wall_time_s", 0.0)
        rows.append([_program_label(point), _point_label(point),
                     point["engine"], *values,
                     f"{wall_s * 1000:.1f}"])
    return format_table(
        ["kernel", "cache", "engine", *objectives, "ms"], rows,
        title=f"Pareto frontier (minimising {', '.join(objectives)})")


def sensitivity_table(rows: List[dict]) -> str:
    """Replacement-policy sensitivity table."""
    policies = sorted({policy for row in rows for policy in row["policies"]})
    table_rows = []
    for row in rows:
        cells = [row["kernel"]]
        for policy in policies:
            rate = row["policies"].get(policy)
            cells.append("-" if rate is None else f"{100 * rate:.2f}%")
        cells.append(f"{100 * row['spread']:.2f}%")
        cells.append(row["best_policy"])
        table_rows.append(cells)
    return format_table(
        ["kernel", *policies, "spread", "best"], table_rows,
        title="L1 miss rate by replacement policy")


def _fmt_duration(seconds) -> str:
    """Compact human duration: ``42s``, ``3m10s``, ``2h05m``."""
    if seconds is None:
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def monitor_summary(status: dict) -> str:
    """Headline lines of a :func:`~repro.explore.monitor.campaign_status`
    snapshot: progress, throughput, ETA, worker health."""
    points = status["points"]
    parts = [
        f"campaign: {status['done']}/{status['total']} points "
        f"({points['ok']} ok, {points['error']} error, "
        f"{points['timeout']} timeout)"
    ]
    if status["complete"]:
        parts.append("status: complete")
    elif status["rate_per_s"]:
        parts.append(
            f"throughput: {status['rate_per_s']:.2f} points/s, "
            f"eta {_fmt_duration(status['eta_s'])}"
            + (f" (elapsed {_fmt_duration(status['elapsed_s'])})"
               if status["elapsed_s"] is not None else ""))
    if status["workers"]:
        parts.append(
            f"workers: {status['active_workers']}/"
            f"{len(status['workers'])} active"
            + (f", {len(status['stragglers'])} straggling"
               if status["stragglers"] else ""))
    return "\n".join(parts)


def workers_table(workers: Sequence[dict]) -> str:
    """Per-worker heartbeat table for ``repro monitor``."""
    rows = []
    for beat in workers:
        hit_rate = beat.get("decision_hit_rate")
        rows.append([
            beat.get("worker", "?"),
            beat.get("pid", "?"),
            beat.get("points_done", 0),
            beat.get("points_failed", 0) + beat.get("points_timeout", 0),
            beat.get("current_kernel") or "-",
            ("-" if beat.get("current_age_s") is None
             else _fmt_duration(beat["current_age_s"])),
            ("-" if beat.get("rss_kb") is None
             else f"{beat['rss_kb'] / 1024:.0f}"),
            ("-" if beat.get("cpu_s") is None
             else f"{beat['cpu_s']:.1f}"),
            "-" if hit_rate is None else f"{100 * hit_rate:.1f}%",
            "stale" if beat.get("stale") else
            f"{_fmt_duration(beat.get('age_s'))} ago",
        ])
    return format_table(
        ["worker", "pid", "ok", "fail", "running", "for", "rss MB",
         "cpu s", "decision hit", "heartbeat"],
        rows, title="workers")


def failures_table(failures: Sequence[dict]) -> str:
    """Crash-forensics table: one row per failed/timed-out point."""
    rows = []
    for record in failures:
        point = record.get("point", {})
        info = record.get("failure") or {}
        phases = info.get("phases") or {}
        top_phase = "-"
        if phases:
            top_phase = max(phases.items(),
                            key=lambda kv: kv[1].get("total", 0)
                            if isinstance(kv[1], dict) else 0)[0]
        rows.append([
            _program_label(point) if point else "?",
            record.get("status", "?"),
            info.get("type", "-"),
            ("-" if info.get("wall_s") is None
             else f"{info['wall_s']:.2f}"),
            top_phase,
            (record.get("error") or "")[:60],
        ])
    return format_table(
        ["kernel", "status", "type", "wall s", "dominant phase",
         "error"],
        rows, title="failures")


def monitor_view(status: dict) -> str:
    """Full ``repro monitor`` screen for one status snapshot."""
    sections = [monitor_summary(status)]
    if status["workers"]:
        sections.append(workers_table(status["workers"]))
    if status["stragglers"]:
        lines = ["stragglers:"]
        for straggler in status["stragglers"]:
            lines.append(
                f"  {straggler.get('worker')}: "
                f"{straggler.get('kernel') or '?'} running "
                f"{_fmt_duration(straggler.get('age_s'))} "
                f"(median ok point "
                f"{_fmt_duration(straggler.get('median_wall_s'))})")
        sections.append("\n".join(lines))
    if status["failures"]:
        sections.append(failures_table(status["failures"]))
    return "\n\n".join(sections)


def store_metrics_summary(records: Sequence[dict]) -> str:
    """One aggregate metrics line over successful sweep records.

    Surfaces the store-backed per-point metrics (decision-cache reuse
    and ILP solver pressure) in ``repro frontier`` without another
    flag: the data already rides in each record's ``result.counters``.
    """
    hits = misses = solves = 0
    for record in records:
        counters = (record.get("result") or {}).get("counters") or {}
        hits += counters.get("isl.memo_hits", 0)
        misses += counters.get("isl.memo_misses", 0)
        solves += counters.get("ilp.solves", 0)
    lookups = hits + misses
    hit_part = ("decision-cache hit-rate -"
                if not lookups else
                f"decision-cache hit-rate {100 * hits / lookups:.1f}% "
                f"({hits}/{lookups})")
    return (f"metrics: {hit_part}, ilp solves {solves}, "
            f"{len(records)} points")


def deltas_table(rows: List[dict]) -> str:
    """Cross-engine accuracy-delta table."""
    table_rows = [[row["kernel"], row["engine"], row["reference"],
                   row["l1_misses"], row["reference_misses"],
                   row["abs_error"], f"{100 * row['rel_error']:.3f}%"]
                  for row in rows]
    return format_table(
        ["kernel", "engine", "reference", "L1 misses", "ref misses",
         "abs err", "rel err"],
        table_rows, title="cross-engine L1-miss deltas")

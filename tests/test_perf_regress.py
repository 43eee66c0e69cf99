"""Tests for repro.perf.regress — the bench regression gate."""

import copy
import json

import pytest

from repro.perf.regress import (
    DEFAULT_THRESHOLD,
    compare_payloads,
    inject_slowdown,
    machine_fingerprint,
    regression_table,
    same_machine,
)
from repro.perf.schema import BenchSchemaError, validate_bench


def make_payload(pr=4, platform="Linux-test-x86_64", cpu_count=4,
                 wall=1.0, speedup=3.0, geomean=3.0):
    """A minimal, schema-valid bench payload for gate tests."""
    return {
        "schema": "repro-bench/1",
        "pr": pr,
        "created_utc": "2026-01-01T00:00:00Z",
        "suite": "quick",
        "workers": 4,
        "shards": 4,
        "machine": {"platform": platform, "python": "3.11.0",
                    "cpu_count": cpu_count},
        "scenarios": [
            {"kernel": "atax", "size": {"N": 100}, "engine": "tree",
             "mode": "sequential", "accesses": 1000, "l1_misses": 10,
             "wall_s": wall, "accesses_per_s": 1000 / wall},
            {"kernel": "atax", "size": {"N": 100}, "engine": "tree",
             "mode": "sharded", "accesses": 1000, "l1_misses": 10,
             "wall_s": wall / 2, "accesses_per_s": 2000 / wall,
             "shards": 4, "workers": 4,
             "shard_cpu_s": [wall / 4] * 4,
             "critical_path_s": wall / speedup,
             "speedup_vs_sequential": speedup,
             "wall_speedup": 2.0},
            {"kernel": "atax", "size": {"N": 100}, "engine": "warping",
             "mode": "sequential", "accesses": 1000, "l1_misses": 10,
             "wall_s": wall / 10, "accesses_per_s": 10000 / wall,
             "speedup_vs_sequential": 10.0},
        ],
        "summary": {
            "sharded_tree_speedup_min": speedup,
            "sharded_tree_speedup_geomean": geomean,
            "warping_speedup_geomean": 10.0,
        },
    }


def test_payload_fixture_is_schema_valid():
    validate_bench(make_payload())


def _legacy_payload(memo_speedup=2.0, **kwargs):
    """A payload written while ``repro bench`` still timed the removed
    warp memo: its summary carries a ``memo`` section."""
    payload = make_payload(**kwargs)
    payload["summary"]["memo"] = {"kernel": "lu", "cold_s": 1.0,
                                  "warm_s": 1.0 / memo_speedup,
                                  "speedup": memo_speedup}
    return payload


def test_legacy_memo_summary_still_validates():
    validate_bench(_legacy_payload())
    # The section is no longer checked, so its shape cannot fail a file.
    payload = _legacy_payload()
    payload["summary"]["memo"] = {"kernel": "lu"}
    validate_bench(payload)


def test_legacy_memo_baseline_gates_without_a_memo_row():
    """A baseline with a memo section (however fast its memo was) gates
    a fresh payload without one on the remaining metrics only."""
    report = compare_payloads(make_payload(pr=8),
                              [_legacy_payload(memo_speedup=50.0)])
    assert report["ok"] is True
    assert all("memo" not in row["metric"] for row in report["rows"])
    worse = compare_payloads(make_payload(pr=8, speedup=1.2, geomean=1.2),
                             [_legacy_payload()])
    assert {r["metric"] for r in worse["regressions"]} == {
        "speedup_vs_sequential", "sharded_tree_speedup_geomean"}


def test_clean_rerun_passes():
    base = make_payload()
    report = compare_payloads(make_payload(pr=8), [base])
    assert report["ok"] is True
    assert report["regressions"] == []
    assert report["baselines"] == [
        {"pr": 4, "suite": "quick", "same_machine": True}]
    # Every wall metric was actually gated (same machine, above floor).
    walls = [r for r in report["rows"] if r["metric"] == "wall_s"]
    assert walls and all(r["gated"] for r in walls)


def test_two_x_wall_slowdown_fails_same_machine():
    base = make_payload()
    slow = inject_slowdown(make_payload(pr=8), 2.0)
    report = compare_payloads(slow, [base])
    assert report["ok"] is False
    walls = {(r["kernel"], r["mode"]): r for r in report["regressions"]
             if r["metric"] == "wall_s"}
    assert ("atax", "sequential") in walls
    assert walls[("atax", "sequential")]["ratio"] == pytest.approx(2.0)
    # The injected slowdown is uniform, so the dimensionless speedups
    # did not move and must not be among the regressions.
    assert all(r["metric"] == "wall_s" for r in report["regressions"])


def test_cross_machine_wall_clocks_not_gated():
    base = make_payload(platform="Darwin-other-arm64", cpu_count=10)
    slow = inject_slowdown(make_payload(pr=8), 2.0)
    report = compare_payloads(slow, [base])
    assert report["ok"] is True
    walls = [r for r in report["rows"] if r["metric"] == "wall_s"]
    assert walls and not any(r["gated"] for r in walls)
    assert report["baselines"][0]["same_machine"] is False


def test_speedup_drop_gated_even_cross_machine():
    base = make_payload(platform="Darwin-other-arm64",
                        speedup=3.0, geomean=3.0)
    worse = make_payload(pr=8, speedup=1.2, geomean=1.2)
    report = compare_payloads(worse, [base])
    assert report["ok"] is False
    metrics = {r["metric"] for r in report["regressions"]}
    assert "speedup_vs_sequential" in metrics
    assert "sharded_tree_speedup_geomean" in metrics


def test_multi_baseline_takes_most_favourable():
    fast_old = make_payload(pr=3)
    slow_old = inject_slowdown(make_payload(pr=4), 2.5)
    fresh = inject_slowdown(make_payload(pr=8), 2.0)
    # Against the slow baseline alone the fresh run is fine...
    assert compare_payloads(fresh, [slow_old])["ok"] is True
    # ...against the fast one it regressed...
    assert compare_payloads(fresh, [fast_old])["ok"] is False
    # ...and with both, the *most favourable* ratio per metric wins —
    # here that is the slow baseline, so the gate passes.
    report = compare_payloads(fresh, [fast_old, slow_old])
    assert report["ok"] is True
    wall = [r for r in report["rows"]
            if r["metric"] == "wall_s" and r["mode"] == "sequential"][0]
    assert wall["baseline_pr"] == 4
    assert wall["ratio"] == pytest.approx(0.8)


def test_noise_floor_skips_tiny_scenarios():
    base = make_payload(wall=0.02)  # 20 ms: below the 50 ms floor
    slow = inject_slowdown(make_payload(pr=8, wall=0.02), 3.0)
    report = compare_payloads(slow, [base])
    sequential = [r for r in report["rows"]
                  if r["metric"] == "wall_s"
                  and r["mode"] == "sequential"][0]
    assert sequential["gated"] is False
    assert report["ok"] is True


def test_threshold_is_respected():
    base = make_payload()
    mild = inject_slowdown(make_payload(pr=8), 1.3)
    assert compare_payloads(mild, [base],
                            threshold=DEFAULT_THRESHOLD)["ok"] is True
    assert compare_payloads(mild, [base],
                            threshold=1.2)["ok"] is False


def test_input_validation():
    base = make_payload()
    with pytest.raises(ValueError):
        compare_payloads(base, [])
    with pytest.raises(ValueError):
        compare_payloads(base, [base], threshold=1.0)
    with pytest.raises(ValueError):
        inject_slowdown(base, 0)


def test_inject_slowdown_scales_consistently():
    base = make_payload()
    slow = inject_slowdown(base, 2.0)
    assert base["scenarios"][0]["wall_s"] == 1.0  # input untouched
    assert slow["scenarios"][0]["wall_s"] == 2.0
    assert slow["scenarios"][0]["accesses_per_s"] == pytest.approx(500)
    sharded = slow["scenarios"][1]
    assert sharded["critical_path_s"] == pytest.approx(2.0 / 3.0)
    assert sharded["shard_cpu_s"] == [0.5] * 4
    assert sharded["speedup_vs_sequential"] == 3.0  # dimensionless
    validate_bench(slow)


def test_machine_fingerprint():
    base = make_payload()
    assert machine_fingerprint(base) == ("Linux-test-x86_64", 4)
    assert same_machine(base, copy.deepcopy(base))
    assert not same_machine(base, make_payload(cpu_count=8))
    assert not same_machine({}, {})  # unknown never matches unknown


def test_regression_table_renders_verdicts():
    base = make_payload()
    report = compare_payloads(inject_slowdown(make_payload(pr=8), 2.0),
                              [base])
    text = regression_table(report)
    assert "REGRESSION" in text
    assert "FAIL" in text
    assert "PR 4" in text
    clean = compare_payloads(make_payload(pr=8), [base])
    assert "ok: no metric regressed" in regression_table(clean)


def test_schema_accepts_and_checks_compare_section():
    payload = make_payload()
    report = compare_payloads(make_payload(pr=8), [payload])
    payload["compare"] = report
    validate_bench(payload)
    json.dumps(payload)  # the report must be JSON-clean
    broken = copy.deepcopy(payload)
    broken["compare"]["rows"][0].pop("ratio")
    with pytest.raises(BenchSchemaError):
        validate_bench(broken)
    not_a_dict = copy.deepcopy(payload)
    not_a_dict["compare"] = "yes"
    with pytest.raises(BenchSchemaError):
        validate_bench(not_a_dict)

"""The bench harness and the BENCH_PR*.json trajectory schema."""

import glob
import json
import os

import pytest

from repro.perf.bench import bench_summary, run_bench, write_bench
from repro.perf.schema import (
    SCHEMA_NAME,
    BenchSchemaError,
    load_and_validate,
    validate_bench,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def quick_payload():
    return run_bench(workers=2, shards=2, quick=True, repeat=1, pr=999)


class TestHarness:
    def test_quick_payload_validates(self, quick_payload):
        scenarios = validate_bench(quick_payload)
        assert quick_payload["suite"] == "quick"
        assert quick_payload["pr"] == 999
        # Per kernel: tree sequential, tree sharded, warping sequential.
        assert len(scenarios) % 3 == 0

    def test_sharded_scenarios_record_critical_path(self, quick_payload):
        sharded = [s for s in quick_payload["scenarios"]
                   if s["mode"] == "sharded"]
        assert sharded
        for scenario in sharded:
            assert scenario["critical_path_s"] > 0
            assert len(scenario["shard_cpu_s"]) == scenario["shards"]
            assert scenario["speedup_vs_sequential"] > 1.0

    def test_summary_speedups(self, quick_payload):
        summary = quick_payload["summary"]
        assert summary["sharded_tree_speedup_min"] > 1.0
        assert "memo" not in summary

    def test_write_and_reload(self, quick_payload, tmp_path):
        path = str(tmp_path / "bench.json")
        write_bench(quick_payload, path)
        assert load_and_validate(path)["schema"] == SCHEMA_NAME

    def test_summary_renders(self, quick_payload):
        text = bench_summary(quick_payload)
        assert "sharded tree speedup" in text
        assert "decision cache" in text

    def test_degenerate_shard_plan_still_validates(self):
        """--workers 1 degrades to a 1-shard sequential fallback; the
        scenario must stay schema-complete instead of crashing."""
        payload = run_bench(workers=1, shards=1, quick=True, repeat=1,
                            pr=998)
        sharded = [s for s in payload["scenarios"]
                   if s["mode"] == "sharded"]
        assert sharded
        for scenario in sharded:
            assert scenario["shards"] == 1
            assert len(scenario["shard_cpu_s"]) == 1


class TestLpScenario:
    def test_every_cold_repetition_starts_cold(self):
        """The decision cache is cleared before each cold repetition,
        so best-of-``repeat`` never times a warm run as cold: every
        repetition pays the full ILP cost."""
        from repro.perf.bench import _lp_scenario

        once = _lp_scenario(1)
        twice = _lp_scenario(2)
        assert once["ilp_solves_cold"] > 0
        assert twice["ilp_solves_cold"] == 2 * once["ilp_solves_cold"]
        assert twice["ilp_solves_warm"] == 0


class TestTrajectory:
    def test_committed_trajectory_validates(self):
        """Every BENCH_PR*.json in the repo root obeys the schema."""
        files = sorted(glob.glob(os.path.join(REPO_ROOT,
                                              "BENCH_PR*.json")))
        assert files, "the bench trajectory must contain BENCH_PR4.json"
        for path in files:
            payload = load_and_validate(path)
            assert payload["schema"] == SCHEMA_NAME

    def test_pr4_meets_the_bar(self):
        """PR 4's committed run shows >= 2x sharded speedup with 4
        workers on the fig06 scaled-L sizes (critical-path measure;
        machine.cpu_count records how many cores could realise it as
        end-to-end wall clock)."""
        payload = load_and_validate(
            os.path.join(REPO_ROOT, "BENCH_PR4.json"))
        assert payload["pr"] == 4
        assert payload["workers"] == 4
        summary = payload["summary"]
        assert summary["sharded_tree_speedup_min"] >= 2.0
        sharded = [s for s in payload["scenarios"]
                   if s["mode"] == "sharded"]
        assert {s["kernel"] for s in sharded} >= {
            "jacobi-2d", "seidel-2d", "heat-3d", "gemm", "atax",
            "trisolv"}
        for scenario in sharded:
            assert scenario["speedup_vs_sequential"] >= 2.0


class TestSchema:
    def test_rejects_wrong_schema(self):
        with pytest.raises(BenchSchemaError):
            validate_bench({"schema": "nope"})

    def test_rejects_missing_keys(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        del broken["machine"]["cpu_count"]
        with pytest.raises(BenchSchemaError):
            validate_bench(broken)

    def test_rejects_empty_scenarios(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        broken["scenarios"] = []
        with pytest.raises(BenchSchemaError):
            validate_bench(broken)

    def test_rejects_bad_engine(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        broken["scenarios"][0]["engine"] = "quantum"
        with pytest.raises(BenchSchemaError):
            validate_bench(broken)

    def test_rejects_shard_arity_mismatch(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        for scenario in broken["scenarios"]:
            if scenario["mode"] == "sharded":
                scenario["shard_cpu_s"] = scenario["shard_cpu_s"][:-1]
                break
        with pytest.raises(BenchSchemaError):
            validate_bench(broken)

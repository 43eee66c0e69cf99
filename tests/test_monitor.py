"""Tests for repro.explore.monitor: heartbeats, campaign status,
crash forensics, and the `repro monitor` CLI."""

import json
import signal
import time

import pytest

from repro.cli import main
from repro.explore.monitor import (
    CAMPAIGN_KEY,
    WORKER_KEY_PREFIX,
    campaign_record,
    campaign_registry,
    campaign_status,
    failure_info,
    heartbeat_record,
    read_campaign,
    read_heartbeats,
    start_heartbeats,
    stop_heartbeats,
    _blank_state,
)
from repro.explore.spec import SweepSpec
from repro.explore.store import is_monitor_key, open_store
from repro.explore.runner import run_sweep
from repro.obs.export import to_prometheus, validate_prometheus
from repro.obs.tracer import Tracer


def _spec(l1_sizes=(512, 1024), kernel="mvt"):
    return SweepSpec(kernels=[kernel], sizes=["MINI"],
                     l1_sizes=list(l1_sizes), l1_assocs=[4],
                     l1_policies=["lru"], block_sizes=[32])


# -- store-level separation ---------------------------------------------------

def test_monitor_keys_invisible_to_analysis(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    with open_store(path) as store:
        outcome = run_sweep(_spec(), store=store, heartbeat=5.0)
        assert outcome.computed == 2
    with open_store(path) as store:
        # Heartbeat/campaign records exist but never leak into the
        # analysis surfaces or the resume set.
        assert any(is_monitor_key(key) for key in store.keys())
        assert len(store.completed_keys()) == 2
        assert len(store.ok_records()) == 2
        assert all(not is_monitor_key(r["key"])
                   for r in store.point_records())
        assert len(store.monitor_records()) >= 2  # campaign + worker

        # Resuming recomputes nothing despite the extra records.
        second = run_sweep(_spec(), store=store, heartbeat=5.0)
        assert (second.loaded, second.computed) == (2, 0)


def test_monitor_keys_invisible_sqlite(tmp_path):
    path = str(tmp_path / "campaign.sqlite")
    with open_store(path) as store:
        run_sweep(_spec((512,)), store=store, heartbeat=5.0)
        assert len(store.completed_keys()) == 1
        assert read_campaign(store) is not None


# -- heartbeat writer ---------------------------------------------------------

def test_heartbeat_writer_lifecycle(tmp_path):
    path = str(tmp_path / "hb.jsonl")
    open_store(path).put({"key": "seed", "status": "ok",
                          "point": {}, "result": None, "error": None})
    writer = start_heartbeats(path, interval=0.1, worker="w0")
    try:
        time.sleep(0.3)
    finally:
        stop_heartbeats()
    assert not writer.is_alive()
    with open_store(path) as store:
        beats = read_heartbeats(store)
    assert [beat["worker"] for beat in beats] == ["w0"]
    beat = beats[0]
    assert beat["seq"] >= 2  # announce + periodic/final writes
    assert beat["interval_s"] == 0.1
    assert beat["cpu_s"] >= 0
    assert beat["points_done"] == 0


def test_heartbeat_record_fields():
    state = _blank_state()
    state["worker"] = "w1"
    state["done"] = 3
    state["decision_hits"] = 3
    state["decision_misses"] = 1
    record = heartbeat_record(state, interval=2.0)
    assert record["key"] == WORKER_KEY_PREFIX + "w1"
    assert record["status"] == "heartbeat"
    beat = record["heartbeat"]
    assert beat["points_done"] == 3
    assert beat["decision_hit_rate"] == 0.75
    json.dumps(record)  # store-serializable


def test_heartbeat_without_decision_lookups_has_no_hit_rate():
    """A worker whose points asked no set queries (or that has not
    finished a point yet) reports no rate rather than a 0% one."""
    state = _blank_state()
    state["worker"] = "w1"
    beat = heartbeat_record(state, interval=2.0)["heartbeat"]
    assert beat["decision_hit_rate"] is None


def test_point_finished_accumulates_decision_counters(monkeypatch):
    from repro.explore import monitor

    state = _blank_state()
    monkeypatch.setattr(monitor, "_STATE", state)
    monkeypatch.setattr(monitor, "_WRITER", None)
    for hits, misses in ((0, 3), (3, 0), (2, 0)):
        monitor.point_finished({"status": "ok", "result": {
            "wall_s": 0.1,
            "counters": {"isl.memo_hits": hits, "isl.memo_misses": misses,
                         "ilp.solves": misses}}})
    monitor.point_finished({"status": "error", "result": None})
    assert (state["done"], state["failed"]) == (3, 1)
    assert (state["decision_hits"], state["decision_misses"]) == (5, 3)
    assert state["ilp_solves"] == 3
    state["worker"] = "w1"
    beat = heartbeat_record(state, interval=1.0)["heartbeat"]
    assert beat["decision_hit_rate"] == 0.625


def test_workers_table_shows_decision_hit_rate():
    from repro.explore.report import workers_table

    text = workers_table([
        {"worker": "w1", "pid": 11, "points_done": 4,
         "decision_hit_rate": 0.75, "age_s": 1.0},
        {"worker": "w2", "pid": 12, "points_done": 0,
         "decision_hit_rate": None, "age_s": 1.0},
    ])
    assert "decision hit" in text
    rows = {line.split()[0]: line for line in text.splitlines()
            if line.split() and line.split()[0] in ("w1", "w2")}
    assert "75.0%" in rows["w1"]
    assert "%" not in rows["w2"]


# -- structured failures ------------------------------------------------------

def test_timeout_failure_record_has_forensics(tmp_path):
    path = str(tmp_path / "timeouts.jsonl")
    spec = SweepSpec(kernels=["gemm"], sizes=["SMALL"],
                     l1_sizes=[1024], l1_assocs=[4],
                     l1_policies=["lru"], block_sizes=[32],
                     engines=["tree"])
    with open_store(path) as store:
        outcome = run_sweep(spec, store=store, timeout=0.05)
    assert outcome.errors == 1
    record = outcome.records[0]
    assert record["status"] == "timeout"
    info = record["failure"]
    assert info["type"] == "timeout"
    assert info["wall_s"] == pytest.approx(0.05, abs=0.05)
    # Phase totals at the moment the alarm fired: the point died inside
    # the engine, and the tracer still knows that.
    assert "engine.tree" in info["phases"]
    json.dumps(record)


def test_error_failure_record_has_traceback_tail(tmp_path):
    path = str(tmp_path / "errors.jsonl")
    from repro.explore.spec import SweepPoint

    # An unknown kernel crashes inside the worker at build time.
    point = SweepPoint(kernel="no-such-kernel", size="MINI",
                       l1_size=1024, l1_assoc=4, l1_policy="lru",
                       block_size=32)
    with open_store(path) as store:
        outcome = run_sweep([point], store=store)
    record = outcome.records[0]
    assert record["status"] == "error"
    info = record["failure"]
    assert info["type"] == "ValueError"
    assert any("ValueError" in line for line in info["traceback"])
    assert info["wall_s"] >= 0


def test_failure_info_unwound_tracer():
    tracer = Tracer()
    try:
        with tracer.span("phase.a"):
            raise RuntimeError("boom")
    except RuntimeError as exc:
        info = failure_info(exc, "RuntimeError", "boom", tracer=tracer,
                            wall_s=1.0)
    assert "phase.a" in info["phases"]
    assert info["traceback"][-1].strip().endswith("boom")


# -- campaign status ----------------------------------------------------------

def test_campaign_status_complete_campaign(tmp_path):
    path = str(tmp_path / "done.jsonl")
    with open_store(path) as store:
        run_sweep(_spec(), store=store, heartbeat=5.0)
    with open_store(path) as store:
        status = campaign_status(store)
    assert status["total"] == 2
    assert status["points"] == {"ok": 2, "error": 0, "timeout": 0}
    assert status["complete"] is True
    assert status["remaining"] == 0
    assert status["campaign"]["workers"] == 1
    assert len(status["workers"]) == 1
    assert status["workers"][0]["worker"] == "inline"


def test_campaign_status_eta_and_stragglers(tmp_path):
    """Synthetic mid-campaign store: ETA from throughput, a straggler
    from a long-running current point, a stale worker from a dead one."""
    path = str(tmp_path / "mid.jsonl")
    now = 1000.0
    with open_store(path) as store:
        # 10-point campaign started 10s ago, 2 already in the store.
        meta = campaign_record(total=10, pending=8, loaded=2,
                               workers=2, heartbeat_s=1.0)
        meta["campaign"]["started"] = now - 10.0
        store.put(meta)
        ok_walls = [0.5, 0.6, 0.5, 0.7]
        for index, wall in enumerate(ok_walls):
            store.put({"key": f"p{index}", "point": {"kernel": "mvt"},
                       "status": "ok",
                       "result": {"wall_time_s": wall}, "error": None})
        healthy = _blank_state()
        healthy.update(worker="w-live", current_key="p9",
                       current_kernel="adi", current_started=now - 60.0)
        live = heartbeat_record(healthy, interval=1.0)
        live["heartbeat"]["ts"] = now - 0.5
        live["heartbeat"]["current_age_s"] = 60.0
        store.put(live)
        dead = _blank_state()
        dead.update(worker="w-dead")
        stale = heartbeat_record(dead, interval=1.0)
        stale["heartbeat"]["ts"] = now - 300.0
        store.put(stale)

        status = campaign_status(store, now=now)

    assert status["total"] == 10
    assert status["done"] == 4
    assert status["remaining"] == 6
    # 4 terminal - 2 loaded = 2 computed over 10s elapsed.
    assert status["rate_per_s"] == pytest.approx(0.2)
    assert status["eta_s"] == pytest.approx(30.0)
    assert status["active_workers"] == 1
    stale_flags = {w["worker"]: w["stale"] for w in status["workers"]}
    assert stale_flags == {"w-dead": True, "w-live": False}
    # Median ok wall is 0.55s; 60s on one point is a straggler.
    assert [s["worker"] for s in status["stragglers"]] == ["w-live"]
    assert status["stragglers"][0]["kernel"] == "adi"


def test_campaign_status_plain_store_without_monitoring(tmp_path):
    """Stores from pre-monitor sweeps still produce a sane snapshot."""
    path = str(tmp_path / "plain.jsonl")
    with open_store(path) as store:
        run_sweep(_spec((512,)), store=store)  # no heartbeat
    with open_store(path) as store:
        status = campaign_status(store)
    assert status["total"] == 1
    assert status["complete"] is True
    assert status["workers"] == []
    assert status["campaign"] is None
    assert read_campaign(store) is None


def test_pooled_sweep_writes_per_worker_heartbeats(tmp_path):
    path = str(tmp_path / "pooled.jsonl")
    spec = _spec((256, 512, 1024, 2048))
    with open_store(path) as store:
        outcome = run_sweep(spec, store=store, workers=2,
                            heartbeat=0.2)
    assert outcome.computed == 4
    with open_store(path) as store:
        beats = read_heartbeats(store)
        status = campaign_status(store)
    assert len(beats) == 2
    assert sum(b["points_done"] for b in beats) == 4
    assert status["campaign"]["workers"] == 2


def test_pooled_workers_flush_final_heartbeat_on_exit(tmp_path):
    """With an interval far longer than the sweep, the pokes after each
    point are rate-limited away, so the workers' final counts reach the
    store only through the flush that runs when each worker exits."""
    path = str(tmp_path / "flush.jsonl")
    with open_store(path) as store:
        outcome = run_sweep(_spec((256, 512, 1024, 2048)), store=store,
                            workers=2, heartbeat=60.0)
    assert outcome.computed == 4
    with open_store(path) as store:
        beats = read_heartbeats(store)
    assert len(beats) == 2
    assert sum(b["points_done"] for b in beats) == 4


def test_inline_sweep_heartbeat_reports_decision_hit_rate(tmp_path):
    """The heartbeat's decision-cache hit rate is the one the sweep's
    own records imply: the first point fills the cache, later capacity
    points only hit it."""
    from repro.isl.sets import clear_decision_cache

    path = str(tmp_path / "rate.jsonl")
    clear_decision_cache()
    with open_store(path) as store:
        # nussinov still asks ILP questions at MINI (mvt asks none).
        run_sweep(_spec((256, 512, 1024), kernel="nussinov"), store=store,
                  heartbeat=5.0)
    with open_store(path) as store:
        (beat,) = read_heartbeats(store)
        counters = [record["result"]["counters"]
                    for record in store.ok_records()]
    hits = sum(c.get("isl.memo_hits", 0) for c in counters)
    misses = sum(c.get("isl.memo_misses", 0) for c in counters)
    assert hits > 0 and misses > 0
    assert beat["decision_hit_rate"] == round(hits / (hits + misses), 4)


# -- metrics view -------------------------------------------------------------

def test_campaign_registry_exports_clean_prometheus(tmp_path):
    path = str(tmp_path / "reg.jsonl")
    with open_store(path) as store:
        run_sweep(_spec(), store=store, heartbeat=5.0)
    with open_store(path) as store:
        registry = campaign_registry(store)
    text = to_prometheus(registry)
    kinds = validate_prometheus(text)
    assert kinds["repro_points_total"] == "counter"
    assert kinds["repro_point_wall_seconds"] == "histogram"
    assert kinds["repro_worker_up"] == "gauge"
    assert 'repro_points_total{status="ok"} 2' in text
    assert 'repro_worker_up{worker="inline"} 1' in text
    wall = registry.get("repro_point_wall_seconds")
    assert wall.labels().count == 2


# -- CLI ----------------------------------------------------------------------

def test_monitor_cli_once_smoke(tmp_path, capsys):
    store_path = str(tmp_path / "cli.jsonl")
    assert main(["sweep", "--kernels", "mvt", "--sizes", "MINI",
                 "--l1-sizes", "512,1024", "--l1-assocs", "4",
                 "--l1-policies", "lru", "--block-sizes", "32",
                 "--store", store_path, "--heartbeat", "5"]) == 0
    capsys.readouterr()
    assert main(["monitor", store_path, "--once"]) == 0
    out = capsys.readouterr().out
    assert "campaign: 2/2 points" in out
    assert "status: complete" in out
    assert "inline" in out  # the worker table


def test_monitor_cli_json_and_exports(tmp_path, capsys):
    store_path = str(tmp_path / "cli2.jsonl")
    prom_path = str(tmp_path / "metrics.prom")
    series_path = str(tmp_path / "metrics.jsonl")
    assert main(["sweep", "--kernels", "mvt", "--sizes", "MINI",
                 "--l1-sizes", "512", "--l1-assocs", "4",
                 "--l1-policies", "lru", "--block-sizes", "32",
                 "--store", store_path, "--live"]) == 0
    capsys.readouterr()
    assert main(["monitor", store_path, "--once", "--json",
                 "--export-prom", prom_path,
                 "--export-jsonl", series_path]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["complete"] is True
    assert status["points"]["ok"] == 1
    with open(prom_path) as handle:
        validate_prometheus(handle.read())
    from repro.obs.export import validate_series

    assert validate_series(series_path) > 0


def test_monitor_cli_missing_store():
    with pytest.raises(SystemExit):
        main(["monitor", "/nonexistent/store.jsonl", "--once"])


def test_monitor_cli_shows_failures(tmp_path, capsys):
    store_path = str(tmp_path / "cli3.jsonl")
    code = main(["sweep", "--kernels", "gemm", "--sizes", "SMALL",
                 "--engines", "tree",
                 "--l1-sizes", "1024", "--l1-assocs", "4",
                 "--l1-policies", "lru", "--block-sizes", "32",
                 "--store", store_path, "--timeout", "0.05",
                 "--heartbeat", "5"])
    assert code == 1  # sweep reports errors in its exit code
    capsys.readouterr()
    assert main(["monitor", store_path, "--once"]) == 0
    out = capsys.readouterr().out
    assert "failures" in out
    assert "timeout" in out
    assert "engine.tree" in out  # dominant phase at death


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="needs SIGALRM for the timeout scenario")
def test_frontier_shows_metrics_and_failures(tmp_path, capsys):
    store_path = str(tmp_path / "frontier.jsonl")
    assert main(["sweep", "--kernels", "mvt", "--sizes", "MINI",
                 "--l1-sizes", "512,1024", "--l1-assocs", "4",
                 "--l1-policies", "lru", "--block-sizes", "32",
                 "--store", store_path]) == 0
    # Add a timed-out point to the same store.
    main(["sweep", "--kernels", "gemm", "--sizes", "SMALL",
          "--engines", "tree",
          "--l1-sizes", "1024", "--l1-assocs", "4",
          "--l1-policies", "lru", "--block-sizes", "32",
          "--store", store_path, "--timeout", "0.05"])
    capsys.readouterr()
    assert main(["frontier", "--store", store_path]) == 0
    out = capsys.readouterr().out
    assert "metrics: decision-cache hit-rate" in out
    assert "ilp solves" in out
    assert "failures" in out
    # JSON mode stays schema-stable: a list of records, no extras.
    assert main(["frontier", "--store", store_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list)


def test_frontier_metrics_line_aggregates_decision_counters():
    from repro.explore.report import store_metrics_summary

    records = [
        {"result": {"counters": {"isl.memo_misses": 3, "ilp.solves": 5}}},
        {"result": {"counters": {"isl.memo_hits": 3}}},
        {"result": {"counters": {"isl.memo_hits": 3}}},
    ]
    assert store_metrics_summary(records) == (
        "metrics: decision-cache hit-rate 66.7% (6/9), ilp solves 5, "
        "3 points")


def test_frontier_metrics_line_without_lookups():
    from repro.explore.report import store_metrics_summary

    assert store_metrics_summary([{"result": {}}, {"result": None}]) == (
        "metrics: decision-cache hit-rate -, ilp solves 0, 2 points")


def test_monitor_and_frontier_load_stores_with_warp_memo_fields(
        tmp_path, capsys):
    """Stores written while sweep records and heartbeats still carried
    warp-memo sections (``result.memo``, ``memo``/``memo_hit_rate``)
    keep loading in ``repro monitor`` and ``repro frontier``."""
    path = str(tmp_path / "old.jsonl")
    prom_path = str(tmp_path / "old.prom")
    with open_store(path) as store:
        run_sweep(_spec(kernel="nussinov"), store=store, heartbeat=5.0)
    with open_store(path) as store:
        for record in store.ok_records():
            record["result"]["memo"] = {
                "pattern_hits": 1, "pattern_misses": 1, "value_hits": 3,
                "value_misses": 1, "value_hit_rate": 0.75}
            store.put(record)
        beat = dict(read_heartbeats(store)[0])
        beat.pop("decision_hit_rate")
        beat.update(memo={"value_hits": 3, "value_misses": 1},
                    memo_hit_rate=0.75)
        store.put({"key": WORKER_KEY_PREFIX + beat["worker"],
                   "status": "heartbeat", "heartbeat": beat})
    capsys.readouterr()
    assert main(["monitor", path, "--once",
                 "--export-prom", prom_path]) == 0
    assert "campaign: 2/2 points" in capsys.readouterr().out
    with open(prom_path) as handle:
        kinds = validate_prometheus(handle.read())
    assert "repro_memo_total" not in kinds
    assert kinds["repro_isl_memo_hits_total"] == "counter"
    assert main(["frontier", "--store", path]) == 0
    assert "metrics: decision-cache hit-rate" in capsys.readouterr().out

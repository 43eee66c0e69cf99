"""Parallel, resumable execution of sweep campaigns.

:func:`run_sweep` fans the points of a sweep out over a
``multiprocessing`` pool (or runs them inline with ``workers=1``),
writes every completed point to a :class:`~repro.explore.store.ResultStore`
as soon as it finishes, and skips points whose content key is already in
the store.  Because the simulators are deterministic and the points are
independent, parallel and serial execution produce bit-identical hit and
miss counts — only ``wall_time`` varies.

Per-point timeouts are enforced *inside* each worker via
``signal.setitimer`` (SIGALRM), so a diverging point is recorded as
``status="timeout"`` without killing the pool.  On platforms without
SIGALRM the timeout degrades to best-effort (the point simply runs to
completion).
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.explore import monitor
from repro.explore.spec import SweepPoint, SweepSpec, SweepUnion
from repro.explore.store import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    make_record,
)
from repro.obs.log import get_logger
from repro.obs.tracer import Tracer
from repro.simulation.result import SimulationResult

ProgressFn = Callable[[dict], None]

_LOG = get_logger("repro.explore.runner")


def in_daemon_worker() -> bool:
    """True inside a daemonic pool worker (which cannot fork again)."""
    return multiprocessing.current_process().daemon


def map_parallel(fn: Callable, tasks: Sequence,
                 workers: int, consume: Callable,
                 initializer: Optional[Callable] = None,
                 initargs: Tuple = ()) -> None:
    """Fan ``fn`` over ``tasks`` on a process pool, feeding ``consume``.

    This is the pool machinery shared by sweep campaigns
    (:func:`run_sweep`) and sharded simulation
    (:func:`repro.perf.shard_simulate`): with ``workers > 1``, more
    than one task and a non-daemonic caller, a ``multiprocessing.Pool``
    distributes the work and ``consume`` sees results in *completion*
    order; otherwise everything runs inline, in task order.  ``fn``
    and every task must be picklable; ``fn`` must not raise (workers
    report failures in their return value).  ``initializer`` /
    ``initargs`` are forwarded to the pool (each worker process runs it
    once at start-up); they are *not* invoked on the inline path —
    callers that need per-process setup inline must do it themselves.
    Workers exit normally (``close`` + ``join``) rather than being
    terminated, so their exit finalizers — e.g. a final heartbeat
    flush — run.
    """
    tasks = list(tasks)
    if workers > 1 and len(tasks) > 1 and not in_daemon_worker():
        processes = min(workers, len(tasks))
        with multiprocessing.Pool(processes=processes,
                                  initializer=initializer,
                                  initargs=initargs) as pool:
            for record in pool.imap_unordered(fn, tasks):
                consume(record)
            pool.close()
            pool.join()
    else:
        for task in tasks:
            consume(fn(task))


@dataclass
class SweepOutcome:
    """Summary of one :func:`run_sweep` invocation.

    Attributes:
        total: points in the sweep.
        loaded: points skipped because the store already had them.
        computed: points simulated by this invocation.
        errors: computed points that failed or timed out.
        wall_time: end-to-end campaign time in seconds.
        records: one store record per point, in sweep order.

    >>> from repro import SweepSpec, run_sweep
    >>> outcome = run_sweep(SweepSpec(
    ...     kernels=["mvt"], sizes=["MINI"], l1_sizes=[512],
    ...     l1_assocs=[4], l1_policies=["lru"], block_sizes=[32]))
    >>> (outcome.total, outcome.computed, outcome.errors)
    (1, 1, 0)
    >>> outcome.ok_records[0]["result"]["l1_misses"]
    2598
    """

    total: int = 0
    loaded: int = 0
    computed: int = 0
    errors: int = 0
    wall_time: float = 0.0
    records: List[dict] = field(default_factory=list)

    @property
    def ok_records(self) -> List[dict]:
        return [r for r in self.records if r.get("status") == STATUS_OK]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "loaded": self.loaded,
            "computed": self.computed,
            "errors": self.errors,
            "wall_time_s": round(self.wall_time, 6),
        }


def result_payload(result: SimulationResult,
                   has_l2: Optional[bool] = None) -> dict:
    """Serialise a :class:`SimulationResult` into a stable JSON schema.

    One ``lN_hits``/``lN_misses`` pair is emitted per level the result
    reports on — i.e. per configured hierarchy level, even when a
    level's counters are zero.  ``has_l2`` only adjusts results that
    predate per-level stats: ``True`` pads a missing second level with
    zeros, ``False`` truncates to the first level, ``None`` (default)
    leaves the levels as reported.
    """
    levels = list(result.levels)
    if has_l2 is True and len(levels) < 2:
        from repro.simulation.result import LevelStats

        levels.append(LevelStats("L2"))
    elif has_l2 is False:
        levels = levels[:1]
    payload = {
        "program": result.scop_name,
        "accesses": result.accesses,
    }
    for number, stats in enumerate(levels, start=1):
        payload[f"l{number}_hits"] = stats.hits
        payload[f"l{number}_misses"] = stats.misses
    payload["wall_time_s"] = round(result.wall_time, 6)
    if result.warp_count:
        payload["warps"] = result.warp_count
        payload["warped_accesses"] = result.warped_accesses
    return payload


def run_engine(scop, config, engine: str,
               enable_warping: bool = True) -> SimulationResult:
    """Dispatch one simulation engine on (scop, config).

    The single engine-name -> simulator mapping, shared by the CLI's
    ``simulate``/``compare`` and the sweep workers.  For the ``warping``
    engine, ``enable_warping=False`` runs its ablation mode (symbolic
    simulation without warping — Algorithm 1 semantics, warp machinery
    off); the other engines never warp, so the flag is moot there.
    """
    # Imported lazily so the module stays importable without pulling
    # every engine in.  The baselines package is imported only for the
    # engine that needs it: a set-shard worker times its run_engine call,
    # and importing it there would charge each worker several ms.
    from repro.simulation import simulate_nonwarping, simulate_warping

    if engine == "dinero":
        from repro.baselines import simulate_dinero

        return simulate_dinero(scop, config)
    if engine == "tree":
        target = (CacheHierarchy(config)
                  if isinstance(config, HierarchyConfig)
                  else Cache(config))
        return simulate_nonwarping(scop, target)
    return simulate_warping(scop, config, enable_warping=enable_warping)


def simulate_point(point: SweepPoint,
                   workers: int = 1) -> SimulationResult:
    """Run one sweep point with its configured engine (no timeout).

    With ``workers > 1`` the concrete and warping engines run
    set-sharded across a worker pool (see
    :func:`repro.perf.shard_simulate`); results are bit-identical to
    the sequential run.  A sweep revisiting the same access pattern
    (e.g. many cache sizes for one kernel and transform) answers its
    warp analyses' set queries from the process-wide decision cache of
    :mod:`repro.isl.sets`.
    """
    from repro.polybench import build_kernel

    scop = build_kernel(point.kernel, point.size_spec,
                        transform=point.transform or None)
    config = point.cache_config()
    if workers > 1 and point.engine in ("tree", "warping"):
        from repro.perf.sharding import shard_simulate

        return shard_simulate(scop, config, engine=point.engine,
                              workers=workers)
    return run_engine(scop, config, point.engine)


class _PointTimeout(Exception):
    pass


# True only while a point is running under a deadline.  The signal can
# be delivered late — Python may invoke the handler one bytecode after
# the timer was disarmed — so the handler must ignore stale alarms
# instead of raising into unrelated code.
_ALARM_ARMED = False


def _alarm_handler(signum, frame):
    if _ALARM_ARMED:
        raise _PointTimeout()


def _arm_alarm(timeout: float):
    global _ALARM_ARMED
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    _ALARM_ARMED = True
    # The interval makes the timer re-fire: Python discards exceptions
    # raised inside GC callbacks and similar unraisable contexts, so a
    # single alarm can be swallowed silently.
    signal.setitimer(signal.ITIMER_REAL, timeout, timeout)
    return previous


def _disarm_alarm() -> None:
    global _ALARM_ARMED
    _ALARM_ARMED = False
    if hasattr(signal, "ITIMER_REAL"):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_point(point_dict: dict,
              timeout: Optional[float] = None,
              workers: int = 1) -> dict:
    """Execute one point (given as a dict) and return its store record.

    This is the worker function: it never raises — failures and
    timeouts come back as records with the corresponding status, so one
    bad point cannot take down a campaign.  ``workers`` requests
    set-sharded per-point parallelism (degrading to a serial shard loop
    inside daemonic pool workers, which cannot fork again).
    """
    point = SweepPoint.from_dict(point_dict)
    try:
        return _run_point_guarded(point, timeout, workers)
    except _PointTimeout:
        # An alarm escaped the guarded region (e.g. fired while the
        # record was being built) — still a timeout, not a crash.
        _disarm_alarm()
        detail = f"timed out after {timeout}s"
        return make_record(point, STATUS_TIMEOUT, error=detail,
                           failure=monitor.failure_info(
                               None, "timeout", detail))


def _run_point_guarded(point: SweepPoint,
                       timeout: Optional[float],
                       workers: int = 1) -> dict:
    use_alarm = (timeout is not None and timeout > 0
                 and hasattr(signal, "SIGALRM"))
    previous = None
    # The tracer is created *before* the guarded region so the except
    # clauses can still read it: spans unwind as the exception
    # propagates, but phase_totals()/counters keep the aggregates up to
    # the moment of death — exactly the forensics a failure record
    # wants ("where had the time gone when this point died?").
    tracer = Tracer()
    # Import the kernel modules before the deadline is armed: a point's
    # deadline covers its own build and simulation, not the one-off
    # registry load of a fresh worker process.
    from repro.polybench import all_kernel_names
    all_kernel_names()
    start = time.perf_counter()
    try:
        # Armed inside the try so an alarm that fires immediately (tiny
        # timeout under load) is still caught as a timeout record.
        if use_alarm:
            try:
                previous = _arm_alarm(timeout)
            except ValueError:
                # signal.signal only works in the main thread of the
                # main interpreter; degrade to best-effort (no
                # deadline) as documented instead of erroring out.
                use_alarm = False
        # Every point is profiled with its own tracer: the per-point
        # phase/counter breakdown rides along in the store record (the
        # content key hashes only the point itself, so old stores still
        # resume).  An enclosing tracer — e.g. `repro sweep --profile`
        # running inline — receives the aggregates via merge.
        parent = obs.current()
        with obs.collect(tracer):
            result = simulate_point(point, workers=workers)
        if parent is not None:
            parent.merge_snapshot(tracer.snapshot())
        if use_alarm:
            _disarm_alarm()
        payload = result_payload(result)
        payload["phases"] = tracer.phase_totals()
        payload["counters"] = dict(sorted(tracer.counters.items()))
        return make_record(point, STATUS_OK, result=payload)
    except _PointTimeout:
        _disarm_alarm()
        detail = f"timed out after {timeout}s"
        failure = monitor.failure_info(
            None, "timeout", detail, tracer=tracer,
            wall_s=time.perf_counter() - start)
        return make_record(point, STATUS_TIMEOUT, error=detail,
                           failure=failure)
    except Exception as exc:  # noqa: BLE001 — captured into the record
        _disarm_alarm()
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
        failure = monitor.failure_info(
            exc, type(exc).__name__, detail, tracer=tracer,
            wall_s=time.perf_counter() - start)
        return make_record(point, STATUS_ERROR, error=detail,
                           failure=failure)
    finally:
        if use_alarm:
            _disarm_alarm()
        if previous is not None:
            signal.signal(signal.SIGALRM, previous)


def _run_point_task(task: Tuple) -> dict:
    point_dict, timeout, point_workers = task
    # Monitoring hooks: cheap dict updates when no heartbeat writer is
    # running, live per-worker telemetry when one is (see
    # :mod:`repro.explore.monitor`).
    monitor.point_started(point_dict,
                          SweepPoint.from_dict(point_dict).key())
    record = run_point(point_dict, timeout=timeout, workers=point_workers)
    monitor.point_finished(record)
    return record


def _as_points(sweep) -> List[SweepPoint]:
    if isinstance(sweep, (SweepSpec, SweepUnion)):
        return sweep.expand()
    return list(sweep)


def run_sweep(sweep: Union[SweepSpec, SweepUnion, Sequence[SweepPoint]],
              store: Optional[ResultStore] = None,
              workers: int = 1,
              timeout: Optional[float] = None,
              resume: bool = True,
              progress: Optional[ProgressFn] = None,
              point_workers: int = 1,
              heartbeat: Optional[float] = None) -> SweepOutcome:
    """Run a sweep, storing results and skipping already-computed points.

    Args:
        sweep: a spec, a union of specs, or an explicit point list.
        store: persistent result store; ``None`` keeps results only in
            the returned outcome.
        workers: worker processes; ``1`` runs inline (serial).
        timeout: per-point wall-clock limit in seconds.
        resume: when True (default), points whose key is in the store
            with ``status="ok"`` are loaded instead of re-simulated.
            Failed or timed-out records are always retried.
        progress: optional callback invoked with each fresh record.
        point_workers: set-shard each point's simulation across this
            many workers (see :func:`repro.perf.shard_simulate`).
            Most useful with ``workers=1`` and a few large points;
            inside a pool (``workers > 1``) the shards of a point run
            serially in its worker, which still exercises the sharded
            engine but adds no extra processes.
        heartbeat: when set (seconds) and a store is given, a campaign
            metadata record is written at start and every worker
            process writes periodic heartbeat records into the store,
            enabling ``repro monitor`` (see
            :mod:`repro.explore.monitor`).  ``None`` (default) writes
            no monitoring records at all.

    Returns:
        A :class:`SweepOutcome`; ``records`` holds one record per point
        in sweep order, mixing loaded and freshly computed ones.

    >>> from repro import SweepSpec, run_sweep
    >>> spec = SweepSpec(kernels=["mvt"], sizes=["MINI"],
    ...                  l1_sizes=[512, 1024], l1_assocs=[4],
    ...                  l1_policies=["lru"], block_sizes=[32])
    >>> outcome = run_sweep(spec)      # store=None: results in memory
    >>> [r["result"]["l1_misses"] for r in outcome.ok_records]
    [2598, 2252]
    """
    points = _as_points(sweep)
    outcome = SweepOutcome()
    start = time.perf_counter()

    by_key: Dict[str, dict] = {}
    pending: List[SweepPoint] = []
    done = (store.completed_keys()
            if (store is not None and resume) else set())
    # Content keys are SHA-256 over canonical JSON — compute each once.
    ordered_keys: List[str] = []
    seen = set()
    for point in points:
        key = point.key()
        if key in seen:
            continue
        seen.add(key)
        ordered_keys.append(key)
        if key in done and store is not None:
            record = store.get(key)
            if record is not None and record.get("status") == STATUS_OK:
                by_key[key] = record
                outcome.loaded += 1
                continue
        pending.append(point)
    outcome.total = len(seen)

    def consume(record: dict) -> None:
        by_key[record["key"]] = record
        outcome.computed += 1
        status = record.get("status")
        if status != STATUS_OK:
            outcome.errors += 1
            _LOG.warning("sweep point %s: %s (%s)",
                         record.get("key", "?")[:12], status,
                         record.get("error", "no detail"))
        else:
            _LOG.debug("sweep point %s ok (%s/%s computed)",
                       record.get("key", "?")[:12],
                       outcome.computed, len(pending))
        if store is not None:
            store.put(record)
        if progress is not None:
            progress(record)

    heartbeats_on = (heartbeat is not None and heartbeat > 0
                     and store is not None)
    if heartbeats_on:
        store.put(monitor.campaign_record(
            total=outcome.total, pending=len(pending),
            loaded=outcome.loaded, workers=workers,
            heartbeat_s=heartbeat))

    if pending:
        _LOG.debug("sweep: %d points pending (%d loaded, %d workers)",
                   len(pending), outcome.loaded, workers)
        tasks = [(point.to_dict(), timeout, point_workers)
                 for point in pending]
        # Mirrors map_parallel's pooling condition: pooled runs start
        # one heartbeat writer per worker process (pool initializer);
        # the inline path runs a single writer in this process.
        pooled = (workers > 1 and len(tasks) > 1
                  and not in_daemon_worker())
        inline_heartbeats = heartbeats_on and not pooled
        try:
            if inline_heartbeats:
                monitor.start_heartbeats(store.path, heartbeat,
                                         worker="inline")
            map_parallel(
                _run_point_task, tasks, workers, consume,
                initializer=(monitor.pool_worker_init
                             if heartbeats_on and pooled else None),
                initargs=((store.path, heartbeat)
                          if heartbeats_on and pooled else ()))
        finally:
            if inline_heartbeats:
                monitor.stop_heartbeats()

    outcome.records = [by_key[key] for key in ordered_keys
                       if key in by_key]
    outcome.wall_time = time.perf_counter() - start
    return outcome

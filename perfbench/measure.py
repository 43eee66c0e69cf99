"""Measurement passes of the layered benchmark (driven by ``run.py``).

Every pass calls only public entry points: ``repro.polybench.build_kernel``,
``repro.simulation.simulate_warping`` (with and without warping),
``repro.simulation.simulate_nonwarping``, ``repro.explore.run_sweep`` into
a ``JsonlStore``, ``repro.perf.sharding.shard_simulate`` and the
``python -m repro simulate`` command line.  Each output is checked against
the committed tree-engine reference by a :class:`Checker`.

Every timed call starts cold: the decision cache of ``repro.isl.sets`` and
the global ``WarpMemo`` are cleared and the garbage collector has just run
(the same on every engine), so a simulation pays what a fresh
``repro simulate`` pays.  A sweep clears them once, before its first point.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.explore import JsonlStore, run_sweep
from repro.isl.sets import clear_decision_cache
from repro.perf.memo import global_memo
from repro.perf.sharding import shard_simulate
from repro.polybench import build_kernel
from repro.simulation import simulate_nonwarping, simulate_warping

import speed
from workloads import Workload, point_key

HERE = os.path.dirname(os.path.abspath(__file__))

#: Rounds every timed pass runs at least, whatever ``--seconds`` says,
#: so each per-point figure is a median of three or more samples.
MIN_ROUNDS = 3

#: Fresh-interpreter samples behind the median ``setup_s``.
SETUP_REPEATS = 5

#: Limit on any one child process (set-up probe, CLI run).
CHILD_TIMEOUT_S = 120


def _concrete(config):
    if isinstance(config, HierarchyConfig):
        return CacheHierarchy(config)
    return Cache(config)


ENGINES = {
    "warping": lambda scop, config: simulate_warping(scop, config),
    "symbolic": lambda scop, config: simulate_warping(
        scop, config, enable_warping=False),
    "tree": lambda scop, config: simulate_nonwarping(
        scop, _concrete(config)),
}


def build(p):
    """The point's SCoP and cache config, as ``repro simulate`` builds them."""
    scop = build_kernel(p.kernel, p.size_spec, transform=p.transform or None)
    return scop, p.cache_config()


def cold_caches() -> None:
    clear_decision_cache()
    global_memo().clear()


def result_levels(result) -> List[List[int]]:
    return [[s.hits, s.misses] for s in result.levels]


def payload_levels(payload: dict) -> List[List[int]]:
    """Per-level [hits, misses] of a sweep record or ``--json`` payload."""
    levels = []
    while f"l{len(levels) + 1}_hits" in payload:
        n = len(levels) + 1
        levels.append([payload[f"l{n}_hits"], payload[f"l{n}_misses"]])
    return levels


def matches(reference: dict, key: str, accesses: int, levels) -> bool:
    expected = reference.get(key)
    return (expected is not None and expected["accesses"] == accesses
            and expected["levels"] == levels)


class Checker:
    """Counts attempted and failed operations.

    An operation fails when it raises or when its access count or
    per-level hits and misses differ from the reference.  Every checked
    output is kept so the perturbed-reference self-check can replay them.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failures: List[str] = []
        self.outputs: List[Tuple[str, int, List[List[int]]]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, key: str, accesses: int, levels) -> bool:
        self.attempted += 1
        self.outputs.append((key, accesses, levels))
        if matches(self.reference, key, accesses, levels):
            return True
        self.failures.append(f"{what} {key}: got {accesses} accesses, "
                             f"levels {levels}")
        return False

    def error(self, what: str, key: str, detail: str) -> None:
        self.attempted += 1
        self.failures.append(f"{what} {key}: {detail}")


def simulate(engine: str, p, checker: Checker):
    """One cold, timed public simulation call, checked.

    Returns ``(result, host seconds, normalised seconds)``, or ``None``
    when the call failed.
    """
    scop, config = build(p)
    cold_caches()
    gc.collect()
    key = point_key(p)
    def call():
        with obs.span(f"bench.{engine}"):
            return ENGINES[engine](scop, config)

    try:
        result, seconds, normalised = speed.timed(call)
    except Exception as exc:  # noqa: BLE001 — a failed operation
        checker.error(engine, key, repr(exc))
        return None
    if not checker.check(engine, key, result.accesses,
                         result_levels(result)):
        return None
    return result, seconds, normalised


class SpanStore(JsonlStore):
    """A JSONL store whose writes show as ``bench.store_put`` spans."""

    def put(self, record: dict) -> None:
        with obs.span("bench.store_put"):
            super().put(record)


@dataclass
class SweepRun:
    ok_points: int
    #: host time of run_sweep (without the speed brackets of its
    #: segments), and the same normalised
    wall_s: float
    normalised_s: float
    records: List[dict]

    @property
    def points_per_s(self) -> float:
        return self.ok_points / self.normalised_s

    @property
    def runner_overhead_s(self) -> float:
        """Sweep time not spent inside the points' simulations
        (normalised)."""
        inside = sum(r["result"]["wall_time_s"] for r in self.records
                     if r.get("status") == "ok")
        return (self.wall_s - inside) * self.normalised_s / self.wall_s


def sweep(points, directory: str, checker: Checker) -> Optional[SweepRun]:
    """One inline ``run_sweep`` into a fresh JSONL store, checked."""
    path = os.path.join(directory, "sweep.jsonl")
    cold_caches()
    gc.collect()
    store = SpanStore(path)
    clock = speed.SegmentClock()
    try:
        with obs.span("bench.run_sweep"):
            clock.start()
            outcome = run_sweep(list(points), store=store, workers=1,
                                progress=lambda record: clock.split())
            clock.split()
    except Exception as exc:  # noqa: BLE001 — every point failed
        for p in points:
            checker.error("sweep", point_key(p), repr(exc))
        return None
    finally:
        store.close()
        if os.path.exists(path):
            os.remove(path)
    by_key = {record["key"]: record for record in outcome.records}
    ok = 0
    for p in points:
        record = by_key.get(p.key())
        if record is None or record.get("status") != "ok":
            checker.error("sweep", point_key(p), "status " + (
                record.get("status") if record else "missing"))
        elif checker.check("sweep", point_key(p),
                           record["result"]["accesses"],
                           payload_levels(record["result"])):
            ok += 1
    return SweepRun(ok, clock.host_s, clock.normalised_s, outcome.records)


@dataclass
class Rounds:
    """Samples of the timed (untraced) rounds."""

    count: int = 0
    #: engine -> point key -> normalised seconds of every successful call
    seconds: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: the same in host seconds
    host: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: (engine, point key) -> the last successful result
    results: Dict[Tuple[str, str], object] = field(default_factory=dict)
    sweeps: List[SweepRun] = field(default_factory=list)

    def median_s(self, engine: str, key: str) -> Optional[float]:
        samples = self.seconds.get(engine, {}).get(key)
        return median(samples) if samples else None

    def total_s(self, engine: str, points) -> float:
        """Sum over the points of each point's median time."""
        medians = [self.median_s(engine, point_key(p)) for p in points]
        return sum(m for m in medians if m is not None)


def timed_rounds(workload: Workload, seconds: float, rng, checker: Checker,
                 directory: str) -> Rounds:
    """Untraced rounds until ``seconds`` have passed (at least MIN_ROUNDS).

    A round times every warping point with the warping engine, every
    compare point with the symbolic and tree engines, and one sweep, in
    an order the seed shuffles anew each round.
    """
    tasks = ([("warping", p) for p in workload.warping]
             + [("symbolic", p) for p in workload.compare]
             + [("tree", p) for p in workload.compare]
             + [("sweep", None)])
    rounds = Rounds()
    start = time.perf_counter()
    while (rounds.count < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        order = list(tasks)
        rng.shuffle(order)
        for engine, p in order:
            if engine == "sweep":
                run = sweep(workload.sweep, directory, checker)
                if run is not None:
                    rounds.sweeps.append(run)
                continue
            out = simulate(engine, p, checker)
            if out is not None:
                key = point_key(p)
                rounds.host.setdefault(engine, {}).setdefault(
                    key, []).append(out[1])
                rounds.seconds.setdefault(engine, {}).setdefault(
                    key, []).append(out[2])
                rounds.results[(engine, key)] = out[0]
        rounds.count += 1
    return rounds


# -- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(argv: List[str]) -> Tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion (killed and reaped on timeout);
    returns it with its normalised wall time."""
    proc, _, seconds = speed.timed(lambda: subprocess.run(
        argv, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S))
    return proc, seconds


def setup_times(workload: Workload) -> List[float]:
    """Wall time of SETUP_REPEATS fresh interpreters that each import
    repro and build every SCoP and config of the workload."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
            workload.name]
    times = []
    for _ in range(SETUP_REPEATS):
        proc, seconds = _run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(seconds)
    return times


def cli_run(p, checker: Checker) -> float:
    """``python -m repro simulate --json`` on one single-level point."""
    argv = [sys.executable, "-m", "repro", "simulate",
            "--kernel", p.kernel, "--size", json.dumps(p.size_spec),
            "--l1-size", str(p.l1_size), "--l1-assoc", str(p.l1_assoc),
            "--l1-policy", p.l1_policy, "--block-size", str(p.block_size),
            "--json"]
    proc, seconds = _run_child(argv)
    key = point_key(p)
    if proc.returncode != 0:
        checker.error("cli", key, proc.stderr.strip()[-300:])
        return seconds
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        checker.error("cli", key, f"unparsable output: {exc}")
        return seconds
    checker.check("cli", key, payload.get("accesses"),
                  payload_levels(payload))
    return seconds


def _children() -> int:
    """Number of live child processes of this process (Linux ``/proc``)."""
    me = os.getpid()
    count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fd = os.open(f"/proc/{entry}/stat", os.O_RDONLY)
            try:
                stat = os.read(fd, 4096).decode(errors="replace")
            finally:
                os.close(fd)
        except OSError:
            continue  # the process ended while we looked
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            count += 1
    return count


class ChildWatch:
    """Samples the live child-process count while a block runs.

    ``peak`` stays ``None`` where ``/proc`` is unavailable.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak: Optional[int] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            count = _children()
            self.peak = count if self.peak is None else max(self.peak, count)
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "ChildWatch":
        if os.path.isdir("/proc/self"):
            self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        return False


# -- the traced layer pass -----------------------------------------------------

@dataclass
class TracedPass:
    tracer: obs.Tracer
    #: (point, result, host s, normalised s) of every traced warping call
    warped: List[tuple]
    #: counters at the end of the warping part (before the sweep)
    warp_counters: Dict[str, int]
    sweep: Optional[SweepRun]


def traced_pass(workload: Workload, checker: Checker,
                directory: str) -> TracedPass:
    """One traced pass: build everything, run the warping points, then
    one sweep, all under one tracer with bench-level spans around each
    public call."""
    tracer = obs.Tracer()
    warped = []
    with obs.collect(tracer):
        with obs.span("bench.build_kernel"):
            for p in workload.points():
                build(p)
        for p in workload.warping:
            out = simulate("warping", p, checker)
            if out is not None:
                warped.append((p,) + out)
        warp_counters = dict(tracer.counters)
        run = sweep(workload.sweep, directory, checker)
    return TracedPass(tracer, warped, warp_counters, run)


def shard_pass(workload: Workload, checker: Checker,
               workers: int) -> Dict[str, float]:
    """Untraced ``shard_simulate`` (warping engine, ``workers``
    processes) on every compare point; point key -> normalised seconds."""
    times = {}
    for p in workload.compare:
        scop, config = build(p)
        cold_caches()
        gc.collect()
        key = point_key(p)
        try:
            result, _, seconds = speed.timed(lambda: shard_simulate(
                scop, config, engine="warping", workers=workers))
        except Exception as exc:  # noqa: BLE001 — a failed operation
            checker.error("shard", key, repr(exc))
            continue
        if checker.check("shard", key, result.accesses,
                         result_levels(result)):
            times[key] = seconds
    return times

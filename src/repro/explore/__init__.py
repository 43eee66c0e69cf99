"""Design-space exploration: parallel, resumable simulation campaigns.

The paper's headline claim is that warping makes cache simulation fast
enough to sweep whole design spaces.  This package supplies the
machinery: declare a grid, fan it out over worker processes, persist
every point content-addressed, and analyse the result set.

Quickstart::

    from repro.explore import SweepSpec, open_store, run_sweep
    from repro.explore import pareto_frontier

    spec = SweepSpec(
        kernels=["gemm", "atax", "mvt"],
        sizes=["MINI"],
        l1_sizes=[1024, 2048, 4096],
        l1_assocs=[4],
        l1_policies=["lru", "plru"],
        block_sizes=[32],
    )
    with open_store("campaign.jsonl") as store:
        outcome = run_sweep(spec, store=store, workers=4)
        frontier = pareto_frontier(store.ok_records())

Re-running the same sweep loads every point from the store (nothing is
re-simulated); an interrupted campaign resumes from where it stopped.

Modules:

* :mod:`repro.explore.spec` — grid specifications and content-addressed
  sweep points.
* :mod:`repro.explore.runner` — the parallel executor.
* :mod:`repro.explore.store` — JSONL/SQLite persistent result stores.
* :mod:`repro.explore.frontier` — Pareto frontiers, policy sensitivity,
  cross-engine deltas.
* :mod:`repro.explore.monitor` — live campaign monitoring: worker
  heartbeats, crash forensics, :func:`campaign_status` snapshots.
* :mod:`repro.explore.report` — text tables for all of the above.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.explore.frontier": ("DEFAULT_OBJECTIVES", "OBJECTIVES",
                               "engine_deltas", "pareto_frontier",
                               "policy_sensitivity", "resolve_objective"),
    "repro.explore.monitor": ("campaign_status",),
    "repro.explore.runner": ("SweepOutcome", "run_point", "run_sweep",
                             "simulate_point"),
    "repro.explore.spec": ("SweepPoint", "SweepSpec", "SweepUnion",
                           "expand_specs"),
    "repro.explore.store": ("JsonlStore", "ResultStore", "SqliteStore",
                            "load_records", "open_store"),
})

__all__ = [
    "DEFAULT_OBJECTIVES",
    "OBJECTIVES",
    "JsonlStore",
    "ResultStore",
    "SqliteStore",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "SweepUnion",
    "campaign_status",
    "engine_deltas",
    "expand_specs",
    "load_records",
    "open_store",
    "pareto_frontier",
    "policy_sensitivity",
    "resolve_objective",
    "run_point",
    "run_sweep",
    "simulate_point",
]

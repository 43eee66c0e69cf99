"""repro — Warping Cache Simulation of Polyhedral Programs.

A from-scratch Python reproduction of Morelli & Reineke, "Warping Cache
Simulation of Polyhedral Programs" (PLDI 2022).

Quickstart::

    from repro import CacheConfig, build_kernel, simulate_warping

    scop = build_kernel("jacobi-2d", "MINI")
    config = CacheConfig(size_bytes=32 * 1024, assoc=8, block_size=64,
                         policy="plru")
    result = simulate_warping(scop, config)
    print(result)

Package map:

* :mod:`repro.isl` — pure-Python Presburger-lite integer set library.
* :mod:`repro.cache` — policies (LRU/FIFO/PLRU/QLRU), set-associative
  caches, N-level hierarchies (NINE/inclusive/exclusive).
* :mod:`repro.polyhedral` — SCoP trees, arrays, a builder DSL.
* :mod:`repro.frontend` — mini-C parser for SCoPs (pet substitute).
* :mod:`repro.simulation` — Algorithm 1 (concrete) and Algorithm 2
  (warping symbolic) simulation.
* :mod:`repro.baselines` — Dinero-, HayStack-, PolyCache-style baselines
  and a model of hardware measurements (a seeded perturbation of the
  exact simulation; its accuracy against hardware is unmeasured).
* :mod:`repro.polybench` — the 30 PolyBench 4.2.1 kernels as SCoPs.
* :mod:`repro.analysis` — metrics and report tables.
* :mod:`repro.explore` — parallel, resumable design-space exploration
  (sweep specs, result stores, Pareto frontiers, live campaign
  monitoring via worker heartbeats and ``repro monitor``).
* :mod:`repro.transform` — polyhedral schedule transformations
  (tiling, interchange, reversal, fusion, distribution) with a
  composable pipeline grammar.
* :mod:`repro.perf` — the performance layer: set-sharded parallel
  simulation, the ``repro bench`` trajectory harness and its
  regression gate (``repro bench --compare``).
* :mod:`repro.obs` — observability: hierarchical span tracing, named
  counters, phase profiling (``repro profile``), typed metrics
  (counters/gauges/histograms) with Prometheus and JSONL time-series
  exporters, and the package-wide logging setup.

Design-space sweeps::

    from repro import SweepSpec, open_store, run_sweep, pareto_frontier

    spec = SweepSpec(kernels=["gemm", "atax"], sizes=["MINI"],
                     l1_sizes=[1024, 2048, 4096], l1_assocs=[4],
                     l1_policies=["lru", "plru"], block_sizes=[32])
    with open_store("campaign.jsonl") as store:
        outcome = run_sweep(spec, store=store, workers=4)
        frontier = pareto_frontier(store.ok_records())
"""

import sys

#: Single source of the package version: ``setup.py`` parses this
#: assignment and the CLI exposes it as ``repro --version``.
__version__ = "1.4.0"


def lazy_exports(package, table):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    re-exported names import their module on first access.

    ``table`` maps each module to the names taken from it, as the
    ``from module import ...`` statement it replaces would list them
    (``"name as alias"`` renames).  Any other name imports the
    package's submodule of that name, as ``import package.name`` would.
    A resolved name is stored in the package, so only its first access
    reaches ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    sources = {}
    for module, names in table.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            sources[alias or attr] = (module, attr)

    # ``__import__``, not ``importlib.import_module``: only the former
    # shows in ``python -X importtime``.
    def __getattr__(name):
        if name in sources:
            module, attr = sources[name]
            __import__(module)
            value = getattr(sys.modules[module], attr)
        else:
            submodule = f"{package}.{name}"
            try:
                __import__(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
            value = sys.modules[submodule]
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(sources)
                      | set(namespace.get("__all__", ())))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs": ("MetricRegistry", "to_prometheus"),
    "repro.cache": ("Cache", "CacheConfig", "CacheHierarchy",
                    "HierarchyConfig", "InclusionPolicy", "WritePolicy"),
    "repro.explore": ("SweepOutcome", "SweepPoint", "SweepSpec",
                      "campaign_status", "engine_deltas", "open_store",
                      "pareto_frontier", "policy_sensitivity",
                      "run_sweep"),
    "repro.perf": ("compare_payloads", "shard_simulate"),
    "repro.polybench": ("build_kernel", "all_kernel_names"),
    "repro.polyhedral": ("ScopBuilder",),
    "repro.simulation": ("LevelStats", "SimulationResult",
                         "simulate_nonwarping", "simulate_warping"),
    "repro.transform": ("Pipeline", "TransformError", "TransformStep",
                        "apply_pipeline", "render_scop"),
})

__all__ = [
    "obs",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "InclusionPolicy",
    "LevelStats",
    "MetricRegistry",
    "Pipeline",
    "TransformError",
    "TransformStep",
    "WritePolicy",
    "ScopBuilder",
    "SimulationResult",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "apply_pipeline",
    "render_scop",
    "shard_simulate",
    "simulate_nonwarping",
    "simulate_warping",
    "to_prometheus",
    "build_kernel",
    "all_kernel_names",
    "campaign_status",
    "compare_payloads",
    "engine_deltas",
    "open_store",
    "pareto_frontier",
    "policy_sensitivity",
    "run_sweep",
    "__version__",
]

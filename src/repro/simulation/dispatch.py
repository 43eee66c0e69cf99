"""The engine dispatch: one simulator per engine name.

:func:`run_engine` is the single engine-name -> simulator mapping,
shared by the CLI's ``simulate``/``compare``/``profile``, the sweep
workers of :mod:`repro.explore.runner` and the shards of
:mod:`repro.perf.sharding`.  Importing this module imports the tree and
warping engines, so a caller that imports it before it times or
deadlines a run never compiles an engine inside that run.
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.simulation.nonwarping import simulate as simulate_nonwarping
from repro.simulation.result import SimulationResult
from repro.simulation.warping import simulate_warping


def run_engine(scop, config, engine: str,
               enable_warping: bool = True) -> SimulationResult:
    """Dispatch one simulation engine on (scop, config).

    For the ``warping`` engine, ``enable_warping=False`` runs its
    ablation mode (symbolic simulation without warping — Algorithm 1
    semantics, warp machinery off); the other engines never warp, so
    the flag is moot there.
    """
    if engine == "dinero":
        # Imported only for the engine that needs it, so neither
        # ``repro simulate`` nor a set-shard worker loads the baselines.
        from repro.baselines.dinero import simulate_dinero

        return simulate_dinero(scop, config)
    if engine == "tree":
        target = (CacheHierarchy(config)
                  if isinstance(config, HierarchyConfig)
                  else Cache(config))
        return simulate_nonwarping(scop, target)
    return simulate_warping(scop, config, enable_warping=enable_warping)

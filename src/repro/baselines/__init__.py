"""Baseline cache-analysis tools the paper compares against.

* :mod:`repro.baselines.dinero` — a Dinero IV-style trace-driven
  simulator (explicit trace materialisation + per-access simulation).
* :mod:`repro.baselines.haystack` — a HayStack-style analytical model of
  fully-associative LRU caches via exact stack distances.
* :mod:`repro.baselines.polycache` — a PolyCache-style per-set analytical
  model of set-associative LRU caches.
* :mod:`repro.baselines.hardware` — a model standing in for the paper's
  PAPI measurements: the exact simulation plus the effects the
  simulators deliberately ignore (scalar/stack traffic and a seeded
  perturbation for micro-architectural noise).  It measures nothing;
  its accuracy against hardware is unmeasured.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.dinero": ("DineroSimulator", "simulate_dinero"),
    "repro.baselines.haystack": ("haystack_misses",),
    "repro.baselines.polycache": ("polycache_misses",),
    "repro.baselines.hardware": ("measure_hardware",),
})

__all__ = [
    "DineroSimulator",
    "simulate_dinero",
    "haystack_misses",
    "polycache_misses",
    "measure_hardware",
]

"""Cache models: replacement policies, set-associative caches, hierarchies.

This subpackage implements the cache substrate of the paper (Section 2):

* replacement policies — LRU, FIFO, tree-based Pseudo-LRU, and Quad-age LRU
  (:mod:`repro.cache.policies`) — all satisfying the data-independence
  contract (Property 1): policy decisions depend only on line indices and
  policy metadata, never on the identity of cached blocks;
* single cache sets and set-associative caches with modulo placement
  (:mod:`repro.cache.cache`);
* N-level hierarchies under NINE, inclusive, and exclusive inclusion
  policies, with write-back / write-allocate and no-write-allocate
  policies (:mod:`repro.cache.hierarchy`).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache.config": ("CacheConfig", "HierarchyConfig",
                           "InclusionPolicy", "IndexFunction",
                           "WritePolicy", "test_system_hierarchy",
                           "test_system_l1", "test_system_l2",
                           "test_system_l3"),
    "repro.cache.policies": ("ReplacementPolicy", "LRU", "FIFO", "PLRU",
                             "QLRU", "POLICIES", "policy_by_name"),
    "repro.cache.cache": ("CacheSetState", "Cache"),
    "repro.cache.hierarchy": ("CacheHierarchy",),
})

__all__ = [
    "test_system_hierarchy",
    "test_system_l1",
    "test_system_l2",
    "test_system_l3",
    "CacheConfig",
    "IndexFunction",
    "InclusionPolicy",
    "HierarchyConfig",
    "WritePolicy",
    "ReplacementPolicy",
    "LRU",
    "FIFO",
    "PLRU",
    "QLRU",
    "POLICIES",
    "policy_by_name",
    "CacheSetState",
    "Cache",
    "CacheHierarchy",
]

"""Regenerate ``reference.json``: exact per-level hits and misses of every
benchmark point, computed with the concrete tree engine (the repository's
oracle).

    python3 perfbench/make_reference.py

Entries already in the file are kept and only points new to the
workloads are simulated; entries no workload uses are dropped.  Delete
the file to recompute everything (the large stencils take a few
minutes).  The benchmark compares every simulation, sweep point and CLI
run against this file; regenerate it only when the workload definitions
change, never to make a run pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.cache.cache import Cache  # noqa: E402
from repro.cache.config import HierarchyConfig  # noqa: E402
from repro.cache.hierarchy import CacheHierarchy  # noqa: E402
from repro.polybench import build_kernel  # noqa: E402
from repro.simulation import simulate_nonwarping  # noqa: E402
from workloads import all_points, point_key  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main() -> int:
    known = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            known = json.load(handle)["points"]
    reference = {}
    for p in all_points():
        if point_key(p) in known:
            reference[point_key(p)] = known[point_key(p)]
            continue
        config = p.cache_config()
        target = (CacheHierarchy(config)
                  if isinstance(config, HierarchyConfig) else Cache(config))
        start = time.perf_counter()
        result = simulate_nonwarping(
            build_kernel(p.kernel, p.size_spec,
                         transform=p.transform or None), target)
        reference[point_key(p)] = {
            "accesses": result.accesses,
            "levels": [[s.hits, s.misses] for s in result.levels],
        }
        print(f"{point_key(p)}: {result.accesses} accesses, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"engine": "tree", "points": dict(sorted(
            reference.items()))}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

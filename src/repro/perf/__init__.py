"""repro.perf — the performance layer.

Three pieces turn the single-point simulators into a fast engine for
large campaigns:

* :mod:`repro.perf.sharding` — set-sharded parallel simulation:
  partition the cache-set space into K independent shards, simulate
  each in a worker process, merge per-level stats (bit-identical to
  sequential runs).
* :mod:`repro.perf.bench` — the ``repro bench`` harness writing a
  schema'd ``BENCH_PR*.json`` performance trajectory.
* :mod:`repro.perf.regress` — the regression gate diffing a fresh
  bench run against committed trajectory files
  (``repro bench --compare``).
"""

from repro.perf.regress import (
    compare_payloads,
    inject_slowdown,
    regression_table,
)
from repro.perf.sharding import shard_simulate

__all__ = [
    "compare_payloads",
    "inject_slowdown",
    "regression_table",
    "shard_simulate",
]

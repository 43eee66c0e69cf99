"""Shared setup for the experiment harness.

The scaled workload definitions (problem-size tables and the scaled
test-system cache configs) moved to :mod:`repro.perf.workloads` so the
``repro bench`` trajectory and this figure harness always measure the
same workloads; see that module's docstring for the scaling rationale
(docs/baselines.md and docs/frontend.md document the substitutions;
each figure file's docstring states the paper's shape it checks).
This module re-exports the public names so every figure file keeps
importing from ``common``.
"""

from __future__ import annotations

from repro.perf.workloads import (  # noqa: F401 — re-exported for figures
    ALL_KERNELS,
    SCALED_L,
    SCALED_XL,
    STENCILS,
    polycache_scaled_hierarchy,
    scaled_hierarchy,
    scaled_l1,
    scaled_l2,
    scaled_l3,
)

__all__ = [
    "ALL_KERNELS",
    "SCALED_L",
    "SCALED_XL",
    "STENCILS",
    "polycache_scaled_hierarchy",
    "scaled_hierarchy",
    "scaled_l1",
    "scaled_l2",
    "scaled_l3",
]

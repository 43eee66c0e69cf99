"""The three workloads of the layered benchmark.

Every workload is a set of simulation points (``repro.explore.SweepPoint``)
on the scaled test system of :mod:`repro.perf.workloads`: an L1 of 2 KiB
(or 1 or 4 KiB in the sweep grid), 8-way, PLRU, 32-byte blocks, optionally
under a 16 KiB 16-way QLRU L2 with NINE inclusion.  Each workload names
three point lists:

* ``warping`` — timed with the warping engine (``warping_s``);
* ``compare`` — timed with the plain symbolic engine
  (``enable_warping=False``, ``symbolic_s``) and the concrete tree
  engine (``tree_s``);
* ``sweep`` — run as one ``run_sweep`` campaign into a fresh JSONL store
  per round (``points_per_s``).

Every workload reports every metric, so each has all three lists.  The
tree and symbolic engines would take minutes on the large stencil sizes,
so ``stencil-warp`` compares engines, and sweeps, at SCALED_L only; the
sweep of ``warp-hostile`` keeps to its three cheapest points.  Both
choices keep a run near half a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.explore import SweepPoint
from repro.perf.workloads import SCALED_L, SCALED_XL

#: L2 of every hierarchical point: 16 KiB, 16-way, QLRU, NINE inclusion
#: (the SweepPoint default).
L2 = dict(l2_size=16 * 1024, l2_assoc=16, l2_policy="qlru")


def point(kernel: str, size: Dict[str, int], l1_size: int = 2048,
          transform: str = "", hierarchy: bool = False) -> SweepPoint:
    """One warping point on the scaled test system."""
    return SweepPoint(kernel=kernel, size=dict(size), l1_size=l1_size,
                      l1_assoc=8, l1_policy="plru", block_size=32,
                      transform=transform, **(L2 if hierarchy else {}))


def point_key(p: SweepPoint) -> str:
    """Readable identity of a point's program and cache (no engine):
    the key of its entry in ``reference.json``."""
    size = ",".join(f"{name}={value}" for name, value in p.size)
    program = f"{p.kernel}({size})"
    if p.transform:
        program += f"[{p.transform}]"
    cache = f"L1:{p.l1_size}:{p.l1_assoc}:{p.l1_policy}"
    if p.l2_size:
        cache += f"+L2:{p.l2_size}:{p.l2_assoc}:{p.l2_policy}:{p.inclusion}"
    return f"{program} {cache} B{p.block_size}"


@dataclass(frozen=True)
class Workload:
    name: str
    warping: Tuple[SweepPoint, ...]
    compare: Tuple[SweepPoint, ...]
    sweep: Tuple[SweepPoint, ...]

    def points(self) -> List[SweepPoint]:
        """Every distinct point the workload simulates, in first-use order."""
        seen: Dict[str, SweepPoint] = {}
        for p in self.warping + self.compare + self.sweep:
            seen.setdefault(point_key(p), p)
        return list(seen.values())


_STENCILS = ("jacobi-2d", "seidel-2d", "fdtd-2d")
_STENCIL_L = tuple(point(k, SCALED_L[k]) for k in _STENCILS)
_STENCIL_XL = tuple(point(k, SCALED_XL[k]) for k in _STENCILS)
_STENCIL_LARGE = (point("jacobi-2d", dict(TSTEPS=64, N=256)),
                  point("seidel-2d", dict(TSTEPS=64, N=256)),
                  point("fdtd-2d", dict(TMAX=32, NX=96, NY=128)))

_HOSTILE = tuple(point(k, SCALED_XL[k])
                 for k in ("gemm", "atax", "trisolv", "lu")) + (
    point("heat-3d", SCALED_L["heat-3d"]),)

_SWEEP_PROGRAMS = [(k, "") for k in ("jacobi-2d", "seidel-2d", "fdtd-2d",
                                     "lu", "gemm", "mvt")]
_SWEEP_PROGRAMS.append(("mvt", "tile(i,j:8x8)"))
_SWEEP = tuple(point(k, SCALED_L[k], l1_size=l1, transform=t,
                     hierarchy=True)
               for k, t in _SWEEP_PROGRAMS for l1 in (1024, 2048, 4096))
_SWEEP_2K = tuple(p for p in _SWEEP if p.l1_size == 2048)

WORKLOADS: Dict[str, Workload] = {
    # The paper's claim: warping covers 92-99.9% of the accesses, so
    # warp bookkeeping, analysis and apply do most of the work.
    "stencil-warp": Workload(
        "stencil-warp",
        warping=_STENCIL_L + _STENCIL_XL + _STENCIL_LARGE,
        compare=_STENCIL_L,
        sweep=_STENCIL_L),
    # Warping rarely or never pays: the per-access symbolic update and
    # the concrete cache do nearly all the work.
    "warp-hostile": Workload(
        "warp-hostile", warping=_HOSTILE, compare=_HOSTILE,
        sweep=_HOSTILE[:3]),
    # The multi-level generic symbolic path, per-point SCoP rebuilds and
    # transforms, cross-point decision cache and WarpMemo reuse, store
    # writes and per-point tracing.
    "sweep-hier": Workload(
        "sweep-hier", warping=_SWEEP_2K, compare=_SWEEP_2K,
        sweep=_SWEEP),
}

#: Cheap warp-hostile points for the once-per-run ``repro simulate``
#: subprocess; the seed picks one.
CLI_POINTS = _HOSTILE[:3]


def all_points() -> List[SweepPoint]:
    """Every distinct point of every workload (the reference's domain)."""
    seen: Dict[str, SweepPoint] = {}
    for workload in WORKLOADS.values():
        for p in workload.points():
            seen.setdefault(point_key(p), p)
    return list(seen.values())

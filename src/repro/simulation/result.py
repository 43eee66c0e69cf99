"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class LevelStats:
    """Hit/miss classification counts of one cache level.

    >>> from repro import LevelStats
    >>> stats = LevelStats("L1", hits=90, misses=10)
    >>> (stats.accesses, stats.miss_rate)
    (100, 0.1)
    """

    name: str = "L1"
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Accesses that reached this level."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access reaching this level (0.0 when untouched)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


class SimulationResult:
    """Outcome of a cache simulation run.

    Attributes:
        scop_name: the simulated SCoP.
        accesses: total dynamic memory accesses accounted for.
        levels: per-level :class:`LevelStats`, innermost (L1) first —
            one entry per configured hierarchy level.
        warped_accesses: accesses accounted for analytically by warping.
        simulated_accesses: accesses simulated explicitly.
        warp_count: number of successful warp applications.
        warp_attempts: number of matches that triggered a warp check.
        wall_time: seconds spent inside the simulation proper (excludes
            SCoP construction, mirroring the paper's Fig. 6 methodology,
            and the compilation of drains the process had not compiled
            yet, see :meth:`~repro.simulation.executor.LeafExecutor.prepare`).
        extra: free-form per-experiment annotations.

    The legacy two-level fields (``l1_hits`` … ``l2_misses``) remain
    available as read/write properties over ``levels``; the legacy
    constructor keywords are accepted too.

    >>> from repro import LevelStats, SimulationResult
    >>> result = SimulationResult("demo", accesses=100,
    ...                           levels=[LevelStats("L1", 80, 20),
    ...                                   LevelStats("L2", 15, 5)])
    >>> (result.depth, result.l1_misses, result.l2_misses, result.misses)
    (2, 20, 5, 20)
    """

    def __init__(self, scop_name: str, accesses: int = 0,
                 levels: Optional[Sequence[LevelStats]] = None,
                 l1_hits: int = 0, l1_misses: int = 0,
                 l2_hits: int = 0, l2_misses: int = 0,
                 warped_accesses: int = 0, simulated_accesses: int = 0,
                 warp_count: int = 0, warp_attempts: int = 0,
                 wall_time: float = 0.0,
                 extra: Optional[Dict[str, object]] = None):
        self.scop_name = scop_name
        self.accesses = accesses
        if levels is None:
            stats = [LevelStats("L1", l1_hits, l1_misses)]
            # Legacy construction: a second level exists exactly when
            # its counters say something.
            if l2_hits or l2_misses:
                stats.append(LevelStats("L2", l2_hits, l2_misses))
            self.levels: List[LevelStats] = stats
        else:
            self.levels = list(levels)
        self.warped_accesses = warped_accesses
        self.simulated_accesses = simulated_accesses
        self.warp_count = warp_count
        self.warp_attempts = warp_attempts
        self.wall_time = wall_time
        self.extra: Dict[str, object] = extra if extra is not None else {}

    # -- level bookkeeping ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of cache levels this result reports on."""
        return len(self.levels)

    def _ensure_depth(self, depth: int) -> None:
        while len(self.levels) < depth:
            self.levels.append(LevelStats(f"L{len(self.levels) + 1}"))

    def set_levels(self, caches) -> None:
        """Copy per-level counters from simulator cache objects."""
        self.levels = [LevelStats(cache.config.name, cache.hits,
                                  cache.misses)
                       for cache in caches]

    # -- legacy two-level accessors ---------------------------------------------

    @property
    def l1_hits(self) -> int:
        return self.levels[0].hits if self.levels else 0

    @l1_hits.setter
    def l1_hits(self, value: int) -> None:
        self._ensure_depth(1)
        self.levels[0].hits = value

    @property
    def l1_misses(self) -> int:
        return self.levels[0].misses if self.levels else 0

    @l1_misses.setter
    def l1_misses(self, value: int) -> None:
        self._ensure_depth(1)
        self.levels[0].misses = value

    @property
    def l2_hits(self) -> int:
        return self.levels[1].hits if len(self.levels) > 1 else 0

    @l2_hits.setter
    def l2_hits(self, value: int) -> None:
        self._ensure_depth(2)
        self.levels[1].hits = value

    @property
    def l2_misses(self) -> int:
        return self.levels[1].misses if len(self.levels) > 1 else 0

    @l2_misses.setter
    def l2_misses(self, value: int) -> None:
        self._ensure_depth(2)
        self.levels[1].misses = value

    # -- derived figures --------------------------------------------------------

    @property
    def misses(self) -> int:
        """L1 misses (the default figure of merit)."""
        return self.l1_misses

    @property
    def non_warped_share(self) -> float:
        """Fraction of accesses that had to be simulated explicitly."""
        if self.accesses == 0:
            return 0.0
        return self.simulated_accesses / self.accesses

    def merge_counts_match(self, other: "SimulationResult") -> bool:
        """True if hit/miss counts agree (used by equivalence tests)."""
        if self.accesses != other.accesses:
            return False
        depth = max(self.depth, other.depth)
        for index in range(depth):
            mine = (self.levels[index].misses
                    if index < self.depth else 0)
            theirs = (other.levels[index].misses
                      if index < other.depth else 0)
            if mine != theirs:
                return False
        return True

    def __str__(self) -> str:
        parts = [
            f"{self.scop_name}: {self.accesses} accesses",
            f"L1 {self.l1_misses} misses",
        ]
        for stats in self.levels[1:]:
            if stats.hits or stats.misses:
                parts.append(f"{stats.name} {stats.misses} misses")
        if self.warp_count:
            parts.append(
                f"warped {self.warped_accesses} accesses "
                f"in {self.warp_count} warps "
                f"({100 * (1 - self.non_warped_share):.2f}%)"
            )
        parts.append(f"{self.wall_time * 1000:.1f} ms")
        return ", ".join(parts)

    def __repr__(self) -> str:
        level_repr = ", ".join(
            f"{s.name}: {s.hits}h/{s.misses}m" for s in self.levels)
        return (f"SimulationResult({self.scop_name!r}, "
                f"accesses={self.accesses}, {level_repr})")


def result_payload(result: SimulationResult,
                   has_l2: Optional[bool] = None) -> dict:
    """Serialise a :class:`SimulationResult` into a stable JSON schema.

    One ``lN_hits``/``lN_misses`` pair is emitted per level the result
    reports on — i.e. per configured hierarchy level, even when a
    level's counters are zero.  ``has_l2`` only adjusts results that
    predate per-level stats: ``True`` pads a missing second level with
    zeros, ``False`` truncates to the first level, ``None`` (default)
    leaves the levels as reported.
    """
    levels = list(result.levels)
    if has_l2 is True and len(levels) < 2:
        levels.append(LevelStats("L2"))
    elif has_l2 is False:
        levels = levels[:1]
    payload = {
        "program": result.scop_name,
        "accesses": result.accesses,
    }
    for number, stats in enumerate(levels, start=1):
        payload[f"l{number}_hits"] = stats.hits
        payload[f"l{number}_misses"] = stats.misses
    payload["wall_time_s"] = round(result.wall_time, 6)
    if result.warp_count:
        payload["warps"] = result.warp_count
        payload["warped_accesses"] = result.warped_accesses
    return payload

"""Warping symbolic cache simulation (paper Section 5, Algorithm 2).

The simulator walks the SCoP tree like Algorithm 1, but operates on
symbolic cache states and, at the loop iterations a warp can start or
end at, checks whether the current symbolic state matches a previously
recorded one (up to a rotation of the cache sets).  On a match it
applies the polyhedral applicability analysis of ``IterationsToWarp``
and, if successful, fast-forwards the simulation across ``n`` match
periods: iterators, symbolic state, and hit/miss counters are all
advanced analytically (Theorem 4).

Design notes relative to the paper:

* Match detection uses per-loop-execution hash maps over
  rotation-canonical state keys (hashing starts at the most-recently-
  accessed set), as described in Sec. 5.3, in two stages: the map is
  keyed by the state's *fingerprint*, its sets' policy states, and the
  exact key is built only when a fingerprint recurs (see
  ``_WarpingRunner.run_loop``).  Matches compare full exact keys, so
  there are no hash-collision soundness concerns.
* Access functions are affine, hence the byte-address shift of an access
  node under an iterator delta is a *constant*; warping is attempted only
  when every relevant shift is a multiple of the block size, which makes
  the induced block bijection a per-node constant block shift.  The
  loop's unguarded access children alone fix a period that every such
  delta is a multiple of (``_LoopPlan.period``), so keys are taken only
  every period, up to the last iteration a warp can still follow, and
  executions shorter than two periods skip match detection
  (``warp.skipped_executions``), as do the executions of loops whose
  coupled guards rule out every warp (``warp.unwarpable_executions``).
  Symbols are stored only while an execution on the current path
  detects matches; the first one to start after accesses that stored
  none gives every filled way a constant-block symbol
  (:class:`~repro.simulation.symbolic.ConstantBlock`).  Each rejected
  attempt is counted by
  reason: ``warp.reject.short_tail``, ``.align``, ``.rotation``,
  ``.entry_shift``, ``.domains``, ``.overlap`` or ``.cache_agrees``.
* ``FurthestByOverlap``/``FurthestByDomains`` reduce to exact ILP queries
  on Presburger sets built with :mod:`repro.isl`.
* Every explicit access is performed by the innermost-loop executor the
  engines share (:mod:`repro.simulation.executor`): innermost loops
  without match detection drain through it in one call, under match
  detection in one call per key, and other loop bodies run one
  iteration point at a time.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.cache.config import CacheConfig, HierarchyConfig, IndexFunction
from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet
from repro.polyhedral.model import AccessNode, LoopNode, Scop
from repro.simulation.executor import LeafExecutor, collector_paused
from repro.simulation.result import SimulationResult
from repro.simulation.symbolic import (
    ConstantBlock,
    SymbolicCache,
    SymbolicHierarchy,
    exact_key,
    fingerprint,
)

TargetConfig = Union[CacheConfig, HierarchyConfig]


def simulate_warping(scop: Scop, config: TargetConfig,
                     enable_warping: bool = True) -> SimulationResult:
    """Simulate ``scop`` with warping on a cache or hierarchy config.

    Hierarchies of any depth and every inclusion policy are supported;
    ``config.inclusion`` selects the policy.  ``enable_warping=False``
    degrades to plain symbolic simulation, which is useful for ablation
    measurements.

    Passing a :class:`~repro.cache.config.ShardedCacheConfig` (or a
    hierarchy of them, see
    :func:`repro.cache.config.shard_target_config`) simulates one set
    shard: only the accesses owned by the shard are performed and
    counted, and warping operates on the shard's rotation symmetry.

    Warping is exact: hit/miss counts match per-access simulation.

    >>> from repro import (Cache, CacheConfig, build_kernel,
    ...                    simulate_nonwarping, simulate_warping)
    >>> scop = build_kernel("jacobi-1d", "MINI")
    >>> config = CacheConfig(1024, 4, 32, "lru")
    >>> warped = simulate_warping(scop, config)
    >>> baseline = simulate_nonwarping(scop, Cache(config))
    >>> warped.l1_misses == baseline.l1_misses
    True
    >>> warped.warp_count > 0
    True
    """
    target = (SymbolicHierarchy(config)
              if isinstance(config, HierarchyConfig)
              else SymbolicCache(config))
    span_name = "engine.warping" if enable_warping else "engine.symbolic"
    with collector_paused():
        runner = _WarpingRunner(scop, target, enable_warping)
        runner.executor.prepare(scop.roots)
        with obs.Stopwatch(span_name) as watch:
            for root in scop.roots:
                runner.run_node(root, ())

    result = SimulationResult(scop_name=scop.name,
                              wall_time=watch.elapsed)
    result.accesses = runner.accesses
    result.simulated_accesses = runner.executor.accesses
    result.warped_accesses = runner.warped_accesses
    result.warp_count = runner.warp_count
    result.warp_attempts = runner.warp_attempts
    result.set_levels(runner.levels)
    return result


class _WarpingRunner:
    """State and procedures of Algorithm 2."""

    #: Consecutive failed warp attempts after which a loop execution stops
    #: looking for matches (bounds analysis cost on warp-hostile loops).
    max_fail_streak = 8

    #: Executions of a loop node in a row without a single warp after
    #: which that loop node stops match detection altogether.  Loops
    #: whose state pattern never recurs (no symbolically equivalent
    #: states, cf. the paper's Sec. 6.2 discussion), or recurs too late
    #: to warp, pay the hashing overhead on every key otherwise; their
    #: sibling executions behave alike, so a few executions without a
    #: warp are a reliable predictor.  A match that no attempt turns into
    #: a warp does not reset the count.  Executions too short to warp
    #: (see ``_LoopPlan.period``) or of loops that cannot warp
    #: (``_LoopPlan.unwarpable``) skip match detection and do not count.
    #: Sound: skipping match detection never changes simulation results,
    #: only speed.
    max_matchless_executions = 3

    def __init__(self, scop: Scop,
                 target: Union[SymbolicCache, SymbolicHierarchy],
                 enable_warping: bool = True):
        self.scop = scop
        #: Performs every explicit access (and counts them).
        self.executor = LeafExecutor(target)
        self.levels: List[SymbolicCache] = list(self.executor.levels)
        self.block_size = self.levels[0].config.block_size
        # Set sharding: when the target is built from sharded configs
        # (ShardedCacheConfig), the executor performs only the accesses
        # of the shard's residue class, and block shifts must
        # additionally be multiples of the shard modulus to induce a
        # rotation of the shard's sets.
        self.shard_modulus = self.executor.modulus
        #: A node's byte shift must be a multiple of this for its block
        #: shift to be constant (block alignment) AND to stay inside the
        #: shard's residue class (modulus alignment).
        self._shift_unit = self.block_size * self.shard_modulus
        # Warping's match detection relies on the rotation symmetry of
        # modulo placement (paper Sec. 7: hashed/sliced indexing keeps
        # data independence but defeats rotating matches).  Fall back to
        # plain symbolic simulation for non-modulo index functions.
        # (A shard of a modulo-placed cache keeps the symmetry: its sets
        # are every K-th set of the full cache, renumbered.)
        modulo_only = all(
            level.config.index_function is IndexFunction.MODULO
            for level in self.levels
        )
        self.enable_warping = enable_warping and modulo_only
        #: Accesses accounted for analytically by warps.
        self.warped_accesses = 0
        self.warp_count = 0
        self.warp_attempts = 0
        self._last_n = 0
        # Static per-(loop, node) classification for FurthestByDomains.
        self._invariance: Dict[Tuple[int, int], str] = {}
        # Static per-loop facts every warp attempt reuses (_LoopPlan).
        self._plans: Dict[int, _LoopPlan] = {}
        # Per-(loop, node) guard bounds compiled for _interval_conflict
        # and domain/address terms compiled for _touched_hull_fast.
        self._interval_plans: Dict[Tuple[int, int], tuple] = {}
        self._hull_plans: Dict[Tuple[int, int], object] = {}
        # Static pair-level disjointness for FurthestByOverlap.
        self._pair_disjoint: Dict[Tuple[int, int], bool] = {}
        # Per-loop-node count of executions in a row that did not warp.
        self._matchless_runs: Dict[int, int] = {}
        # Symbols are stored only while an execution on the current path
        # detects matches: how many do, the executor's access count when
        # the last one stopped, and the constant-block symbols given to
        # the ways filled since (_detection_starts).
        self._detecting = 0
        self._stores_stopped_at = 0
        self._constants: Dict[int, ConstantBlock] = {}
        if self.enable_warping:
            self.executor.store_symbols(False)

    @property
    def accesses(self) -> int:
        """Accesses so far: performed explicitly plus warped."""
        return self.executor.accesses + self.warped_accesses

    # -- tree walk (Algorithm 2) ------------------------------------------------

    def run_node(self, node, prefix: Tuple[int, ...]) -> None:
        if isinstance(node, AccessNode):
            # AccessNode::WarpingSimulate.  The target encapsulates the
            # inter-level semantics (NINE / inclusive / exclusive
            # descent, victim flow, invalidations).
            self.executor.run_point((node,), prefix)
        else:
            self.run_loop(node, prefix)

    def run_loop(self, loop: LoopNode, prefix: Tuple[int, ...]) -> None:
        """LoopNode::WarpingSimulate."""
        bounds = loop.bounds_at(prefix)
        if bounds is None:
            return
        lo, hi = bounds
        executor = self.executor
        body, leaf = executor.body(loop)
        stride = loop.stride
        matchless = self._matchless_runs.get(id(loop), 0)
        matching = (self.enable_warping and loop._bounds_exact
                    and matchless < self.max_matchless_executions)
        if matching:
            plan = self._plan(loop)
            # Every delta a warp admits is a multiple of the loop's
            # period, and a warp from i0 >= lo at i1 = i0 + delta needs
            # i1 + delta <= hi + stride.  So keys are taken only at the
            # iterations a whole number of periods after lo, up to
            # last_key, and an execution with no two such keys cannot
            # warp at all.
            period = plan.period
            last_key = hi + stride - period
            if plan.unwarpable:
                # No warp can follow any key.  Neither matchless nor
                # skipped: the cut-off below ignores it.
                obs.count("warp.unwarpable_executions")
                matching = False
            elif last_key - lo < period:
                # Skipped, not matchless: the cut-off below ignores it.
                obs.count("warp.skipped_executions")
                matching = False
        if leaf and not matching:
            # Innermost loop without match detection: straight-line
            # access work, drained in one executor call.
            executor.run(loop, prefix, lo, hi)
            return
        detecting = matching
        if detecting:
            self._detection_starts()
        depth = loop.depth
        levels = self.levels
        single = levels[0] if len(levels) == 1 else None
        check_domain = not loop._bounds_exact
        had_warp = False
        # Fingerprint -> the key iterations that had it, oldest first, as
        # [value, counters, accesses, snapshots, exact key or None].
        history: Dict[Tuple, List[list]] = {}
        # Per-loop-execution cache for the polyhedral analyses.
        analysis_cache: Dict = {}
        fail_streak = 0
        value = lo
        while value <= hi:
            if matching and value > last_key:
                matching = False  # no warp can start or end from here on
                self._detection_stops()
            if leaf and not matching:
                # Match detection is over for this execution (the last
                # key or the fail streak): drain the rest.
                executor.run(loop, prefix, value, hi)
                break
            point = prefix + (value,)
            if check_domain and not loop.in_domain(point):
                value += stride
                continue
            warped = False
            if matching and (value - lo) % period == 0:
                # The whole match-detection block (snapshots, history
                # lookup/update) is one warp.bookkeeping span when
                # profiling; warp.analysis nests inside it.
                with obs.span("warp.bookkeeping"):
                    if single is not None:
                        snapshots = single.snapshots()
                    else:
                        snapshots = ()
                        for level in levels:
                            snapshots += level.snapshots()
                    now = [value,
                           tuple([(lvl.hits, lvl.misses) for lvl in levels]),
                           executor.accesses + self.warped_accesses,
                           snapshots, None]
                    # Equal exact keys imply equal fingerprints, so
                    # only a recurring fingerprint can match.
                    key = fingerprint(snapshots)
                    bucket = history.get(key)
                    if bucket is None:
                        # A new fingerprint: no exact key is needed.
                        history[key] = [now]
                        entry = None
                    else:
                        # The current entry replaces the match, if any.
                        entry = _newest_equal(bucket, now, depth)
                        bucket.append(now)
                    if entry is not None:
                        i0, counters0, acc0 = entry[:3]
                        delta = value - i0
                        if delta > 0:
                            self.warp_attempts += 1
                            obs.count("warp.attempts")
                            with obs.span("warp.analysis"):
                                warped = self._try_warp(
                                    loop, prefix, i0, value, hi, delta,
                                    counters0, acc0, analysis_cache,
                                )
                            if warped:
                                obs.count("warp.hits")
                                had_warp = True
                                value = value + delta * self._last_n
                                point = prefix + (value,)
                                fail_streak = 0
                                # The entry keeps its exact key at i1.
                                now[0] = value
                                now[1] = tuple([(lvl.hits, lvl.misses)
                                                for lvl in levels])
                                now[2] = self.accesses
                            else:
                                fail_streak += 1
                                if fail_streak >= self.max_fail_streak:
                                    # Warping demonstrably not
                                    # applicable in this loop execution;
                                    # stop paying for match detection
                                    # (sound: warping is an
                                    # acceleration, never required).
                                    matching = False
                                    self._detection_stops()
            if not warped:
                if leaf:
                    # An innermost loop drains up to its next key (it
                    # stays inside the loop: value <= last_key).
                    executor.run(loop, prefix, value, value + period - stride)
                    value += period
                    continue
                for child in body:
                    if child.__class__ is tuple:
                        executor.run_point(child, point)
                    else:
                        self.run_loop(child, point)
                value += stride
        if matching:
            self._detection_stops()
        if detecting:
            self._matchless_runs[id(loop)] = (
                0 if had_warp else matchless + 1)

    def _detection_starts(self) -> None:
        """A loop execution starts detecting matches.  If none on the
        path did, the drains store symbols again, and if any access ran
        without storing one, every filled way of every level gets its
        block's constant-block symbol (the symbols of the ways it filled
        or refreshed are stale)."""
        if self._detecting == 0:
            executor = self.executor
            executor.store_symbols(True)
            if executor.accesses != self._stores_stopped_at:
                obs.count("sym.resymbolisations")
                for level in self.levels:
                    level.resymbolise(self._constants)
        self._detecting += 1

    def _detection_stops(self) -> None:
        """A loop execution stops detecting matches.  If it was the last
        one on the path, no key reads the symbols until the next one
        starts, so the drains stop storing them."""
        self._detecting -= 1
        if self._detecting == 0:
            self.executor.store_symbols(False)
            self._stores_stopped_at = self.executor.accesses

    # -- warping --------------------------------------------------------------------

    def _try_warp(self, loop: LoopNode, prefix: Tuple[int, ...],
                  i0: int, i1: int, last: int, delta: int,
                  counters0: Tuple[Tuple[int, int], ...], acc0: int,
                  analysis_cache: Dict) -> bool:
        """IterationsToWarp + warp application.  Returns True if warped.

        The set rotation of the match is recovered from the (constant)
        block shifts of the access nodes rather than from MRU positions:
        internal consistency — every cached entry and every executing
        access must induce the same rotation — is verified explicitly, so
        the shift-derived rotation is sound even when the state is
        rotation-symmetric.
        """
        # Checked first, as it needs nothing but the loop's end: no
        # whole match period is left to warp over.
        if (last + loop.stride - i1) // delta <= 0:
            obs.count("warp.reject.short_tail")
            return False
        plan = self._plan(loop)
        nodes = plan.nodes
        own_index = loop.depth - 1
        modulus = self.shard_modulus

        # (a) Per-node byte shifts must be aligned to block size times
        # shard modulus (makes the induced block mapping a constant
        # shift that stays inside the shard's residue class).
        shifts: Dict[int, int] = {}
        for node, coeff in zip(nodes, plan.coeffs):
            byte_shift = coeff * delta
            if byte_shift % self._shift_unit != 0:
                if self._region_empty(node, loop, prefix, i0, last,
                                      analysis_cache):
                    continue
                obs.count("warp.reject.align")
                return False
            shifts[id(node)] = byte_shift // self.block_size

        # (b) Rotation consistency per level: every executing node's block
        # shift must induce the same set rotation (of the shard's sets,
        # under sharding: shard rotation = block shift / modulus).
        level_rotations: List[int] = []
        for level in self.levels:
            num_sets = level.config.num_sets
            rot: Optional[int] = None
            for node in nodes:
                if id(node) not in shifts:
                    continue
                node_rot = (shifts[id(node)] // modulus) % num_sets
                if rot is None:
                    rot = node_rot
                elif rot != node_rot:
                    if self._region_empty(node, loop, prefix, i0, last,
                                          analysis_cache):
                        continue
                    obs.count("warp.reject.rotation")
                    return False
            level_rotations.append(rot if rot is not None else 0)

        # (c) Cached entries must shift consistently too (their symbols'
        # nodes may come from outside this loop).
        point_i1 = prefix + (i1,)
        point_i0 = prefix + (i0,)
        cached_nodes = {node for level in self.levels
                        for set_state in level.sets
                        for node in set_state.syms if node is not None}
        entry_shifts: Dict[int, int] = {}
        for node in cached_nodes:
            if id(node) in shifts:
                continue
            coeff = (node.coeff_vector()[own_index]
                     if own_index < len(node.dims) else 0)
            byte_shift = coeff * delta
            if byte_shift % self._shift_unit != 0:
                obs.count("warp.reject.entry_shift")
                return False
            entry_shifts[id(node)] = byte_shift // self.block_size
        entry_shifts.update(shifts)

        # (d) FurthestByDomains and FurthestByOverlap bounds (exclusive).
        bound = last + loop.stride
        bound = min(bound, self._furthest_by_domains(
            loop, prefix, i0, i1, last, delta, analysis_cache))
        if bound <= i1:
            obs.count("warp.reject.domains")
            return False
        bound = min(bound, self._furthest_by_overlap(
            loop, prefix, i0, last, delta, analysis_cache))
        if bound <= i1:
            obs.count("warp.reject.overlap")
            return False
        n = (bound - i1) // delta
        if n <= 0:
            obs.count("warp.reject.short_tail")
            return False

        # (e) CacheAgrees: the bijection induced by the access mappings
        # must agree with the relation between the matching cache states.
        if not self._cache_agrees(loop, prefix, point_i0, point_i1,
                                  i0, min(bound, i1 + n * delta),
                                  shifts, entry_shifts, level_rotations,
                                  analysis_cache):
            obs.count("warp.reject.cache_agrees")
            return False

        # Apply the warp (Algorithm 2, lines 10-12).
        depth = loop.depth
        delta_vec = tuple(0 for _ in range(depth - 1)) + (delta,)
        with obs.span("warp.apply"):
            for level, rotation, (h0, m0) in zip(self.levels,
                                                 level_rotations,
                                                 counters0):
                level.apply_rotation(rotation, delta_vec, n)
                level.hits += n * (level.hits - h0)
                level.misses += n * (level.misses - m0)
        self.warped_accesses += n * (self.accesses - acc0)
        self.warp_count += 1
        self._last_n = n
        return True

    # -- polyhedral applicability analysis ----------------------------------------

    def _plan(self, loop: LoopNode) -> "_LoopPlan":
        """The static facts of ``loop`` that every warp attempt reuses."""
        plan = self._plans.get(id(loop))
        if plan is None:
            plan = self._plans[id(loop)] = _LoopPlan(self, loop)
        return plan

    def _region_empty(self, node: AccessNode, loop: LoopNode,
                      prefix: Tuple[int, ...], i0: int, last: int,
                      analysis_cache: Dict) -> bool:
        """True if ``node`` performs no access for own-dim in [i0, last]."""
        key = ("empty", id(node), i0, last)
        if key in analysis_cache:
            return analysis_cache[key]
        hull = self._touched_hull_fast(node, loop, prefix, i0, last)
        if hull is not NotImplemented:
            analysis_cache[key] = hull is None
            return hull is None
        domain = node.full_domain
        if domain is None:
            analysis_cache[key] = False
            return False
        own = loop.iterator
        constrained = domain
        for dim, val in zip(loop.dims[:-1], prefix):
            constrained = constrained.with_constraint_eq0(
                LinExpr.var(dim) - val)
        constrained = constrained.with_constraint_ge0(
            LinExpr.var(own) - i0)
        constrained = constrained.with_constraint_ge0(
            -LinExpr.var(own) + last)
        empty = constrained.is_empty()
        analysis_cache[key] = empty
        return empty

    def _classify_invariance(self, loop: LoopNode,
                             node: AccessNode) -> str:
        """Static shape of node.full_domain w.r.t. the warped iterator.

        Returns one of:
          * "free"     — own iterator unconstrained beyond the loop bounds
                          (no own-dim constraint couples deeper dims and
                          own-range equals the loop's); no conflicts ever.
          * "interval" — own-dim constraints form an interval with bounds
                          affine in outer dims only; conflicts only when the
                          interval boundary cuts the warp region (checked
                          numerically at warp time).
          * "coupled"  — an affine constraint relates the warped iterator
                          to a deeper iterator (triangular nests and the
                          like): the deep iteration pattern then changes
                          with every value of the warped iterator, so the
                          very first candidate iteration already conflicts
                          and warping at this level is impossible.
        """
        key = (id(loop), id(node))
        cached = self._invariance.get(key)
        if cached is not None:
            return cached
        domain = node.full_domain
        result = "coupled"
        if domain is not None and not domain.divs and not domain.exists:
            own = loop.iterator
            deeper = set(node.dims[loop.depth:])
            own_constraints = []
            coupled = False
            for expr in list(domain.eqs) + list(domain.ineqs):
                if expr.coeff(own) != 0:
                    own_constraints.append(expr)
                    if any(expr.coeff(d) != 0 for d in deeper):
                        coupled = True
            if not coupled:
                # Compare against the loop's own constraint set: if the
                # node's own-dim constraints match the loop domain's, the
                # access is unguarded in the own dimension.
                loop_own = [
                    expr for expr in (list(loop.domain.eqs)
                                      + list(loop.domain.ineqs))
                    if expr.coeff(own) != 0
                ]
                if _same_constraints(own_constraints, loop_own):
                    result = "free"
                else:
                    result = "interval"
        self._invariance[key] = result
        return result

    def _furthest_by_domains(self, loop: LoopNode, prefix: Tuple[int, ...],
                             i0: int, i1: int, last: int, delta: int,
                             analysis_cache: Dict) -> int:
        """Exclusive own-dim bound from domain-pattern conflicts.

        Implements FurthestByDomains: the first iteration whose access-
        guard pattern differs from the corresponding iteration of the
        match interval cannot be warped across.
        """
        memo_key = ("fbd", i0, i1, last)
        cached = analysis_cache.get(memo_key)
        if cached is not None:
            return cached
        bound = last + loop.stride
        for node, shape in self._plan(loop).guarded:
            if shape == "interval":
                conflict = self._interval_conflict(
                    loop, node, prefix, i0, last)
            else:  # "coupled": first candidate iteration already conflicts
                conflict = i1
            if conflict is not None:
                bound = min(bound, conflict)
                if bound <= i1:
                    break
        analysis_cache[memo_key] = bound
        return bound

    def _interval_conflict(self, loop: LoopNode, node: AccessNode,
                           prefix: Tuple[int, ...], i0: int,
                           last: int) -> Optional[int]:
        """Conflict bound for interval-shaped guards (fast path).

        The node executes for own-dim values in [alo, ahi] (affine in the
        outer iterators).  The guard pattern is constant on either side of
        the interval boundaries, so the earliest conflict is the first
        boundary crossing inside [i0, last] — warping across it would
        replay the wrong pattern.
        """
        key = (id(loop), id(node))
        bounds = self._interval_plans.get(key)
        if bounds is None:
            bounds = self._interval_plans[key] = _own_bounds(loop, node)
        alo: Optional[int] = None
        ahi: Optional[int] = None
        for coeff, value, terms, is_eq in bounds:
            for at, term in terms:
                value += term * prefix[at]
            value = int(value)
            if coeff > 0:
                # coeff*own + value >= 0  ->  own >= ceil(-value/coeff)
                lo_bound = -(value // coeff)
                alo = lo_bound if alo is None else max(alo, lo_bound)
                if is_eq:  # also own <= floor(-value/coeff)
                    hi_bound = (-value) // coeff
                    ahi = hi_bound if ahi is None else min(ahi, hi_bound)
            else:
                # coeff*own + value >= 0  ->  own <= floor(value/-coeff)
                hi_bound = value // -coeff
                ahi = hi_bound if ahi is None else min(ahi, hi_bound)
                if is_eq:  # also own >= ceil(value/-coeff)
                    lo_bound = -((-value) // -coeff)
                    alo = lo_bound if alo is None else max(alo, lo_bound)
        # Boundaries inside (i0, last] are conflicts; the node's guard
        # flips there relative to the match interval's pattern.
        conflicts = []
        if alo is not None and i0 < alo <= last:
            conflicts.append(alo)
        if ahi is not None and i0 <= ahi < last:
            conflicts.append(ahi + 1)
        return min(conflicts) if conflicts else None

    def _furthest_by_overlap(self, loop: LoopNode, prefix: Tuple[int, ...],
                             i0: int, last: int, delta: int,
                             analysis_cache: Dict) -> int:
        """Exclusive bound from overlaps between differently-shifted nodes.

        Implements FurthestByOverlap: if two access nodes whose addresses
        shift differently under the warp delta ever touch the same memory
        block within the access interval, no single bijection pi can
        relate consecutive copies of the access sequence past that point.
        """
        memo_key = ("fbo", i0, last)
        cached_bound = analysis_cache.get(memo_key)
        if cached_bound is not None:
            return cached_bound
        bound = last + loop.stride
        # Only pairs that shift differently and may share blocks.
        for node_a, node_b in self._plan(loop).pairs:
            key = ("overlap", id(node_a), id(node_b))
            cached = analysis_cache.get(key)
            if cached is not None:
                cached_i0, conflict = cached
                if conflict is None and i0 >= cached_i0:
                    continue  # no conflict over a superset interval
                if conflict is not None and conflict >= i0:
                    bound = min(bound, conflict)
                    continue
            hull_a = self._touched_hull_fast(node_a, loop, prefix, i0, last)
            hull_b = self._touched_hull_fast(node_b, loop, prefix, i0, last)
            if (hull_a is not NotImplemented
                    and hull_b is not NotImplemented
                    and (hull_a is None or hull_b is None
                         or hull_a[1] < hull_b[0] or hull_b[1] < hull_a[0])):
                # A node without accesses in the region, or disjoint
                # block hulls: no block is shared, no ILP needed.
                conflict = None
            else:
                conflict = self._overlap_conflict(
                    loop, prefix, node_a, node_b, i0, last)
            analysis_cache[key] = (i0, conflict)
            if conflict is not None:
                bound = min(bound, conflict)
        analysis_cache[memo_key] = bound
        return bound

    def _arrays_disjoint(self, node_a: AccessNode,
                         node_b: AccessNode) -> bool:
        """Static fast path: distinct arrays in disjoint block ranges."""
        if node_a.array is node_b.array:
            return False
        key = (id(node_a.array), id(node_b.array))
        cached = self._pair_disjoint.get(key)
        if cached is not None:
            return cached
        bs = self.block_size
        a, b = node_a.array, node_b.array
        a_range = (a.base // bs, (a.base + a.size_bytes - 1) // bs)
        b_range = (b.base // bs, (b.base + b.size_bytes - 1) // bs)
        disjoint = a_range[1] < b_range[0] or b_range[1] < a_range[0]
        self._pair_disjoint[key] = disjoint
        self._pair_disjoint[(key[1], key[0])] = disjoint
        return disjoint

    def _overlap_conflict(self, loop: LoopNode, prefix: Tuple[int, ...],
                          node_a: AccessNode, node_b: AccessNode,
                          i0: int, last: int) -> Optional[int]:
        """min over shared blocks of max(own_a, own_b), or None."""
        own = loop.iterator
        rename_a = {d: f"{d}#a" for d in node_a.dims}
        rename_b = {d: f"{d}#b" for d in node_b.dims}
        dims = (("t",) + tuple(rename_a[d] for d in node_a.dims)
                + tuple(rename_b[d] for d in node_b.dims))
        ineqs: List[LinExpr] = []
        eqs: List[LinExpr] = []
        for dom, rename in ((node_a.full_domain, rename_a),
                            (node_b.full_domain, rename_b)):
            if dom is None:
                continue
            if dom.divs or dom.exists:
                return i0  # conservative: no warp
            eqs.extend(e.rename(rename) for e in dom.eqs)
            ineqs.extend(e.rename(rename) for e in dom.ineqs)
        for dim, val in zip(loop.dims[:-1], prefix):
            eqs.append(LinExpr.var(rename_a[dim]) - val)
            eqs.append(LinExpr.var(rename_b[dim]) - val)
        own_a = LinExpr.var(rename_a[own])
        own_b = LinExpr.var(rename_b[own])
        t = LinExpr.var("t")
        ineqs.extend([
            own_a - i0, -own_a + last,
            own_b - i0, -own_b + last,
            t - own_a, t - own_b, -t + last,
        ])
        addr_a = node_a.addr_expr.rename(rename_a)
        addr_b = node_b.addr_expr.rename(rename_b)
        base = BasicSet(dims, eqs=eqs, ineqs=ineqs)
        base, qa = base.with_div(addr_a, self.block_size)
        base, qb = base.with_div(addr_b, self.block_size)
        base = base.with_constraint_eq0(LinExpr.var(qa) - LinExpr.var(qb))
        return base.min_of(t)

    def _cache_agrees(self, loop: LoopNode, prefix: Tuple[int, ...],
                      point_i0: Tuple[int, ...], point_i1: Tuple[int, ...],
                      i0: int, bound: int,
                      shifts: Dict[int, int], entry_shifts: Dict[int, int],
                      level_rotations: List[int],
                      analysis_cache: Dict) -> bool:
        """CacheAgrees + ConstructAccessMapping (hull-based, sound).

        The access mapping pi sends every block b touched by node a inside
        the access interval to b + shift_a.  We over-approximate each
        node's touched blocks by their [min, max] hull: the checks become
        stricter, so a warp is never wrongly admitted.
        """
        hulls: List[Tuple[int, int, int]] = []  # (lo_block, hi_block, shift)
        for node in self._plan(loop).nodes:
            if id(node) not in shifts:
                continue  # proven not to execute in the region
            key = ("hull", id(node), i0, bound)
            if key in analysis_cache:
                hull = analysis_cache[key]
            else:
                hull = self._touched_hull(node, loop, prefix, i0, bound - 1)
                analysis_cache[key] = hull
            if hull is None:
                continue
            hulls.append((hull[0], hull[1], shifts[id(node)]))

        modulus = self.shard_modulus
        # Per entry shift, the hulls that shift by something else, as
        # (lo, hi, lo + shift, hi + shift): only those can disagree.
        differing: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for level, rotation in zip(self.levels, level_rotations):
            num_sets = level.config.num_sets
            for node_hull in hulls:
                if (node_hull[2] // modulus) % num_sets != rotation:
                    return False
            for set_state in level.sets:
                lines = set_state.lines
                for line, node in enumerate(set_state.syms):
                    if node is None:
                        continue
                    entry_shift = entry_shifts[id(node)]
                    # The entry's own movement must respect the rotation.
                    if (entry_shift // modulus) % num_sets != rotation:
                        return False
                    others = differing.get(entry_shift)
                    if others is None:
                        others = differing[entry_shift] = [
                            (lo, hi, lo + shift, hi + shift)
                            for lo, hi, shift in hulls
                            if shift != entry_shift]
                    if not others:
                        continue
                    b1 = lines[line]
                    b0 = b1 - entry_shift
                    # b0 must map consistently under every hull covering it
                    # (pi's domain side), and b1 under every shifted hull
                    # (pi's range side).
                    for lo, hi, lo1, hi1 in others:
                        if lo <= b0 <= hi or lo1 <= b1 <= hi1:
                            return False
        return True

    def _touched_hull(self, node: AccessNode, loop: LoopNode,
                      prefix: Tuple[int, ...], i0: int,
                      last_inclusive: int) -> Optional[Tuple[int, int]]:
        """[min, max] block hull of a node's accesses in the interval."""
        fast = self._touched_hull_fast(node, loop, prefix, i0,
                                       last_inclusive)
        if fast is not NotImplemented:
            return fast
        domain = node.full_domain
        own = loop.iterator
        constrained = (domain if domain is not None
                       else BasicSet(node.dims))
        for dim, val in zip(loop.dims[:-1], prefix):
            constrained = constrained.with_constraint_eq0(
                LinExpr.var(dim) - val)
        constrained = constrained.with_constraint_ge0(
            LinExpr.var(own) - i0)
        constrained = constrained.with_constraint_ge0(
            -LinExpr.var(own) + last_inclusive)
        addr_range = constrained.range_of(node.addr_expr)
        if addr_range is None:
            return None
        lo_addr, hi_addr = addr_range
        return lo_addr // self.block_size, hi_addr // self.block_size

    def _touched_hull_fast(self, node: AccessNode, loop: LoopNode,
                           prefix: Tuple[int, ...], i0: int,
                           last_inclusive: int):
        """Interval-arithmetic hull for rectangular domains.

        Applicable when, after fixing the prefix, every domain constraint
        bounds a *single* free dimension (no coupling among the warped
        and deeper iterators): the domain is then a product of intervals
        and the affine address attains its extrema at a corner picked by
        coefficient signs.  Returns NotImplemented when not applicable
        (the ILP path handles the general case).  The constraints are
        compiled once per (loop, node), see :func:`_hull_terms`.
        """
        key = (id(loop), id(node))
        plan = self._hull_plans.get(key)
        if plan is None:
            plan = self._hull_plans[key] = _hull_terms(loop, node)
        if plan is NotImplemented:
            return NotImplemented
        steps, own_at, addr_const, addr_terms, addr_free = plan
        los: List[Optional[int]] = [None] * len(addr_free)
        his: List[Optional[int]] = [None] * len(addr_free)
        for step in steps:
            if step is None:
                return NotImplemented
            at, coeff, value, terms, is_eq = step
            for position, term in terms:
                value += term * prefix[position]
            if at < 0:
                # Pure guard over the prefix: check it.
                if (value != 0) if is_eq else (value < 0):
                    return None
                continue
            value = int(value)
            lo, hi = los[at], his[at]
            if coeff > 0:
                candidate = -(value // coeff)
                lo = candidate if lo is None else max(lo, candidate)
                if is_eq:
                    upper = (-value) // coeff
                    hi = upper if hi is None else min(hi, upper)
            else:
                candidate = value // -coeff
                hi = candidate if hi is None else min(hi, candidate)
                if is_eq:
                    lower = -((-value) // -coeff)
                    lo = lower if lo is None else max(lo, lower)
            los[at], his[at] = lo, hi
        if own_at is not None:
            lo, hi = los[own_at], his[own_at]
            los[own_at] = i0 if lo is None else max(lo, i0)
            his[own_at] = (last_inclusive if hi is None
                           else min(hi, last_inclusive))
        lo_addr = addr_const
        for position, term in addr_terms:
            lo_addr += term * prefix[position]
        hi_addr = lo_addr
        for lo, hi, coeff in zip(los, his, addr_free):
            if lo is None or hi is None:
                return NotImplemented  # unbounded free dim: ILP decides
            if lo > hi:
                return None  # empty region
            if coeff >= 0:
                lo_addr += coeff * lo
                hi_addr += coeff * hi
            else:
                lo_addr += coeff * hi
                hi_addr += coeff * lo
        return lo_addr // self.block_size, hi_addr // self.block_size


class _LoopPlan:
    """What every warp attempt at one loop node reuses.

    ``nodes`` are the loop's access descendants in program order and
    ``coeffs`` their byte coefficients on the loop's iterator.
    ``guarded`` lists ``(node, shape)`` for the nodes whose guards can cut
    a warp short (FurthestByDomains: every shape but "free"), and
    ``pairs`` the node pairs that shift differently and may share blocks
    (FurthestByOverlap), both in program order.  ``unwarpable`` holds
    when a guarded node is "coupled": FurthestByDomains then rejects
    every attempt at its first candidate iteration, so no warp can
    follow a key at this loop.

    ``period`` divides every delta that passes checks (a) and (b) of
    :meth:`_WarpingRunner._try_warp`: the lcm of the loop's stride and,
    over the unguarded access children (they run at every iteration),
    of ``unit / gcd(c, unit)`` per child and ``unit * S / gcd(c_a - c_b,
    unit * S)`` per pair, where ``c`` is a child's byte coefficient on the
    loop's iterator, ``unit`` the block size times the shard modulus and
    ``S`` the lcm of the levels' set counts.
    """

    __slots__ = ("nodes", "coeffs", "guarded", "pairs", "unwarpable",
                 "period")

    def __init__(self, runner: _WarpingRunner, loop: LoopNode):
        own_index = loop.depth - 1
        self.nodes = tuple(loop.access_descendants())
        self.coeffs = tuple(
            node.coeff_vector()[own_index] if own_index < len(node.dims)
            else 0
            for node in self.nodes)
        shapes = [(node, runner._classify_invariance(loop, node))
                  for node in self.nodes]
        self.guarded = tuple((node, shape) for node, shape in shapes
                             if shape != "free")
        self.unwarpable = any(shape == "coupled"
                              for _, shape in self.guarded)
        pairs = []
        for ia, (node_a, coeff_a) in enumerate(zip(self.nodes,
                                                   self.coeffs)):
            for node_b, coeff_b in zip(self.nodes[ia:], self.coeffs[ia:]):
                if coeff_a == coeff_b:
                    continue  # identical shift: always compatible
                if runner._arrays_disjoint(node_a, node_b):
                    continue  # distinct arrays, disjoint block ranges
                pairs.append((node_a, node_b))
        self.pairs = tuple(pairs)
        unit = runner._shift_unit
        span = unit * lcm(*(level.config.num_sets
                            for level in runner.levels))
        steady = {child.coeff_vector()[own_index]
                  for child in loop.children
                  if isinstance(child, AccessNode) and child.domain is None}
        period = loop.stride
        for coeff in steady:  # (a): an aligned byte shift
            period = lcm(period, unit // gcd(coeff, unit))
        for coeff_a, coeff_b in combinations(steady, 2):  # (b): one rotation
            period = lcm(period, span // gcd(coeff_a - coeff_b, span))
        self.period = period


def _newest_equal(bucket: List[list], now: list,
                  depth: int) -> Optional[list]:
    """Remove and return the newest entry of ``bucket`` whose exact key
    equals that of ``now``, or None.

    Each entry's key is built from its own snapshots at its own iterator
    value, once, and the entry then drops its snapshots.  The newest
    equal entry is the one a map from exact keys to the latest entry
    would hold.
    """
    key = now[4] = exact_key(now[3], depth, now[0])
    now[3] = None
    for index in range(len(bucket) - 1, -1, -1):
        entry = bucket[index]
        if entry[4] is None:
            entry[4] = exact_key(entry[3], depth, entry[0])
            entry[3] = None
        if entry[4] == key:
            del bucket[index]
            return entry
    return None


def _terms(expr: LinExpr, position: Dict[str, int]) -> tuple:
    """``expr``'s nonzero coefficients as ``((prefix position, coeff),
    ...)``."""
    return tuple((position[dim], coeff)
                 for dim, coeff in expr.coeffs.items())


def _own_bounds(loop: LoopNode, node: AccessNode) -> tuple:
    """The constraints of ``node``'s domain that involve ``loop``'s
    iterator, as ``(own coeff, constant, terms, is equality)`` with the
    rest of each constraint compiled over the loop's outer iterators."""
    own = loop.iterator
    position = {dim: at for at, dim in enumerate(loop.dims[:-1])}
    domain = node.full_domain
    bounds = []
    for expr, is_eq in ([(e, True) for e in domain.eqs]
                        + [(e, False) for e in domain.ineqs]):
        coeff = int(expr.coeff(own))
        if coeff == 0:
            continue
        rest = expr - LinExpr.var(own, coeff)
        bounds.append((coeff, rest.constant, _terms(rest, position), is_eq))
    return tuple(bounds)


def _hull_terms(loop: LoopNode, node: AccessNode):
    """Compile ``node``'s domain and address for
    :meth:`_WarpingRunner._touched_hull_fast`, or NotImplemented.

    Returns ``(steps, own_at, addr_const, addr_terms, addr_free)``.  The
    steps follow the domain's constraints in order: ``(-1, 0, constant,
    terms, is_eq)`` for a guard over the outer iterators, ``(free index,
    coeff, constant, terms, is_eq)`` for a bound on one free dimension
    (the loop's own and deeper iterators), and None where the fast path
    gives up.  ``own_at`` indexes the loop's iterator among the free
    dimensions, and the address is ``addr_const`` plus ``addr_terms``
    over the outer iterators plus ``addr_free`` over the free ones.
    """
    domain = node.full_domain
    if domain is None or domain.divs or domain.exists:
        return NotImplemented
    depth = loop.depth
    position = {dim: at for at, dim in enumerate(loop.dims[:depth - 1])}
    free_dims = node.dims[depth - 1:]
    steps = []
    for expr, is_eq in ([(e, True) for e in domain.eqs]
                        + [(e, False) for e in domain.ineqs]):
        free = [d for d in free_dims if expr.coeff(d) != 0]
        if len(free) > 1:
            steps.append(None)
            break
        if not free:
            if any(d not in position for d in expr.dims()):
                steps.append(None)
                break
            steps.append((-1, 0, expr.constant, _terms(expr, position),
                          is_eq))
            continue
        dim = free[0]
        coeff = int(expr.coeff(dim))
        rest = expr - LinExpr.var(dim, coeff)
        if any(d not in position for d in rest.dims()):
            steps.append(None)
            break
        steps.append((free_dims.index(dim), coeff, rest.constant,
                      _terms(rest, position), is_eq))
    own = loop.iterator
    own_at = free_dims.index(own) if own in free_dims else None
    addr = node.addr_expr
    addr_terms = tuple((at, int(addr.coeff(dim)))
                       for dim, at in position.items()
                       if addr.coeff(dim) != 0)
    addr_free = tuple(int(addr.coeff(dim)) for dim in free_dims)
    return (tuple(steps), own_at, int(addr.constant), addr_terms,
            addr_free)


def _same_constraints(a: Sequence[LinExpr], b: Sequence[LinExpr]) -> bool:
    """Set equality of constraint lists (syntactic)."""
    return set(a) == set(b)

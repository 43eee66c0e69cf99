"""Warping symbolic cache simulation (paper Section 5, Algorithm 2).

The simulator walks the SCoP tree like Algorithm 1, but operates on
symbolic cache states and, at every loop iteration, checks whether the
current symbolic state matches a previously recorded one (up to a
rotation of the cache sets).  On a match it applies the polyhedral
applicability analysis of ``IterationsToWarp`` and, if successful,
fast-forwards the simulation across ``n`` match periods: iterators,
symbolic state, and hit/miss counters are all advanced analytically
(Theorem 4).

Design notes relative to the paper:

* Match detection uses per-loop-node hash maps over rotation-canonical
  state keys (hashing starts at the most-recently-accessed set), exactly
  as described in Sec. 5.3.  We store the full canonical key, so there
  are no hash-collision soundness concerns.
* Access functions are affine, hence the byte-address shift of an access
  node under an iterator delta is a *constant*; warping is attempted only
  when every relevant shift is a multiple of the block size, which makes
  the induced block bijection a per-node constant block shift.  Symbolic
  states only match when the contents realign, so this restriction
  coincides with where matches occur in practice.
* ``FurthestByOverlap``/``FurthestByDomains`` reduce to exact ILP queries
  on Presburger sets built with :mod:`repro.isl`.
* Every explicit access is performed by the innermost-loop executor the
  engines share (:mod:`repro.simulation.executor`): innermost loops
  without match detection drain through it in one call, loop bodies
  under match detection run one iteration point at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.cache.config import CacheConfig, HierarchyConfig, IndexFunction
from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet
from repro.polyhedral.model import AccessNode, LoopNode, Scop
from repro.simulation.executor import LeafExecutor
from repro.simulation.result import SimulationResult
from repro.simulation.symbolic import (
    SingleLevel,
    SymbolicCache,
    SymbolicHierarchy,
)

TargetConfig = Union[CacheConfig, HierarchyConfig]


def simulate_warping(scop: Scop, config: TargetConfig,
                     enable_warping: bool = True,
                     memo=None) -> SimulationResult:
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

    ``memo`` is an optional warp-analysis memo scope provider (an
    object with ``loop_scope(loop_key, prefix) -> dict``); see
    :class:`repro.perf.memo.WarpMemo`.  Memoised values are
    deterministic polyhedral facts, so sharing a memo across runs never
    changes results — only speed.

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
    if isinstance(config, HierarchyConfig):
        target = SymbolicHierarchy(config)
    else:
        target = SingleLevel(config)
    span_name = "engine.warping" if enable_warping else "engine.symbolic"
    with obs.Stopwatch(span_name) as watch:
        runner = _WarpingRunner(scop, target, enable_warping, memo=memo)
        for root in scop.roots:
            runner.run_node(root, ())

    result = SimulationResult(scop_name=scop.name,
                              wall_time=watch.elapsed)
    result.accesses = runner.accesses
    result.simulated_accesses = runner.executor.accesses
    result.warped_accesses = runner.warped_accesses
    result.warp_count = runner.warp_count
    result.warp_attempts = runner.warp_attempts
    result.set_levels(target.levels)
    return result


class _WarpingRunner:
    """State and procedures of Algorithm 2."""

    #: Consecutive failed warp attempts after which a loop execution stops
    #: looking for matches (bounds analysis cost on warp-hostile loops).
    max_fail_streak = 8

    #: Executions of a loop node without a single state match after which
    #: that loop node stops match detection altogether.  Loops whose state
    #: pattern never recurs (no symbolically equivalent states, cf. the
    #: paper's Sec. 6.2 discussion) pay the hashing overhead on every
    #: iteration otherwise; their sibling executions behave alike, so a
    #: few matchless executions are a reliable predictor.  Sound: skipping
    #: match detection never changes simulation results, only speed.
    max_matchless_executions = 3

    def __init__(self, scop: Scop,
                 target: Union[SingleLevel, SymbolicHierarchy],
                 enable_warping: bool = True,
                 memo=None):
        self.scop = scop
        self.levels: List[SymbolicCache] = list(target.levels)
        self.block_size = self.levels[0].config.block_size
        #: Performs every explicit access (and counts them).
        self.executor = LeafExecutor(target)
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
        # Static pair-level disjointness for FurthestByOverlap.
        self._pair_disjoint: Dict[Tuple[int, int], bool] = {}
        # Per-loop-node count of executions that found no match at all.
        self._matchless_runs: Dict[int, int] = {}
        # Stable node/loop keys (preorder indices): identical for every
        # rebuild of the same SCoP, unlike id(), so they key the
        # cross-run analysis memo.
        self._memo = memo
        self._node_key: Dict[int, int] = {
            id(node): index
            for index, node in enumerate(scop.access_nodes())
        }
        self._loop_key: Dict[int, int] = {
            id(loop): index
            for index, loop in enumerate(scop.loop_nodes())
        }

    @property
    def accesses(self) -> int:
        """Accesses so far: performed explicitly plus warped."""
        return self.executor.accesses + self.warped_accesses

    def _analysis_scope(self, loop: LoopNode,
                        prefix: Tuple[int, ...]) -> Dict:
        """Analysis cache for one loop execution.

        Without a memo this is a fresh dict (each (loop, prefix) pair
        executes once per simulation); with one, the same persistent
        dict is handed out across simulations of structurally identical
        SCoPs, so the polyhedral analyses are computed once per sweep
        rather than once per point.
        """
        if self._memo is None:
            return {}
        return self._memo.loop_scope(self._loop_key[id(loop)], prefix)

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
        matchless = self._matchless_runs.get(id(loop), 0)
        matching = (self.enable_warping and loop._bounds_exact
                    and matchless < self.max_matchless_executions)
        if leaf and not matching:
            # Innermost loop without match detection: straight-line
            # access work, drained in one executor call.
            executor.run(loop, prefix, lo, hi)
            return
        stride = loop.stride
        depth = loop.depth
        check_domain = not loop._bounds_exact
        had_match = False
        history: Dict[Tuple, Tuple[int, Tuple[Tuple[int, int], ...], int]] = {}
        # Per-loop-execution caches for the polyhedral analyses
        # (memo-backed and persistent across runs when a memo is set).
        analysis_cache: Dict = self._analysis_scope(loop, prefix)
        fail_streak = 0
        value = lo
        while value <= hi:
            if leaf and not matching:
                # The fail streak switched match detection off: drain
                # the rest of this execution.
                executor.run(loop, prefix, value, hi)
                break
            point = prefix + (value,)
            if check_domain and not loop.in_domain(point):
                value += stride
                continue
            warped = False
            if matching:
                # The whole match-detection block (state keys, history
                # lookup/update) is one warp.bookkeeping span when
                # profiling; warp.analysis nests inside it.
                with obs.span("warp.bookkeeping"):
                    key = tuple(
                        level.snapshot_key(depth, point)
                        for level in self.levels
                    )
                    entry = history.get(key)
                    if entry is not None:
                        had_match = True
                        i0, counters0, acc0 = entry
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
                                value = value + delta * self._last_n
                                point = prefix + (value,)
                                fail_streak = 0
                            else:
                                fail_streak += 1
                                if fail_streak >= self.max_fail_streak:
                                    # Warping demonstrably not
                                    # applicable in this loop execution;
                                    # stop paying for match detection
                                    # (sound: warping is an
                                    # acceleration, never required).
                                    matching = False
                    counters = tuple((lvl.hits, lvl.misses)
                                     for lvl in self.levels)
                    history[key] = (value, counters, self.accesses)
            if not warped:
                for child in body:
                    if child.__class__ is tuple:
                        executor.run_point(child, point)
                    else:
                        self.run_loop(child, point)
                value += stride
        if self.enable_warping and loop._bounds_exact and (
                matching or had_match):
            self._matchless_runs[id(loop)] = (
                0 if had_match else matchless + 1)

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
        nodes = list(loop.access_descendants())
        own_index = loop.depth - 1
        modulus = self.shard_modulus

        # (a) Per-node byte shifts must be aligned to block size times
        # shard modulus (makes the induced block mapping a constant
        # shift that stays inside the shard's residue class; matches
        # only occur at alignment periods anyway, cf. module docstring).
        shifts: Dict[int, int] = {}
        for node in nodes:
            coeff = (node.coeff_vector()[own_index]
                     if own_index < len(node.dims) else 0)
            byte_shift = coeff * delta
            if byte_shift % self._shift_unit != 0:
                if self._region_empty(node, loop, prefix, i0, last,
                                      analysis_cache):
                    continue
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
                    return False
            level_rotations.append(rot if rot is not None else 0)

        # (c) Cached entries must shift consistently too (their symbols'
        # nodes may come from outside this loop).
        point_i1 = prefix + (i1,)
        point_i0 = prefix + (i0,)
        entry_shifts: Dict[int, int] = {}
        for level in self.levels:
            for set_state in level.sets:
                for sym in set_state.syms:
                    if sym is None:
                        continue
                    node, _ = sym
                    if id(node) in entry_shifts or id(node) in shifts:
                        continue
                    coeff = (node.coeff_vector()[own_index]
                             if own_index < len(node.dims) else 0)
                    byte_shift = coeff * delta
                    if byte_shift % self._shift_unit != 0:
                        return False
                    entry_shifts[id(node)] = byte_shift // self.block_size
        entry_shifts.update(shifts)

        # (d) FurthestByDomains and FurthestByOverlap bounds (exclusive).
        bound = last + loop.stride
        bound = min(bound, self._furthest_by_domains(
            loop, prefix, i0, i1, last, delta, analysis_cache))
        if bound <= i1:
            return False
        bound = min(bound, self._furthest_by_overlap(
            loop, prefix, i0, last, delta, analysis_cache))
        if bound <= i1:
            return False
        n = (bound - i1) // delta
        if n <= 0:
            return False

        # (e) CacheAgrees: the bijection induced by the access mappings
        # must agree with the relation between the matching cache states.
        if not self._cache_agrees(loop, prefix, point_i0, point_i1,
                                  i0, min(bound, i1 + n * delta),
                                  shifts, entry_shifts, level_rotations,
                                  analysis_cache):
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

    def _region_empty(self, node: AccessNode, loop: LoopNode,
                      prefix: Tuple[int, ...], i0: int, last: int,
                      analysis_cache: Dict) -> bool:
        """True if ``node`` performs no access for own-dim in [i0, last]."""
        key = ("empty", self._node_key[id(node)], i0, last)
        if key in analysis_cache:
            return analysis_cache[key]
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
        own = loop.iterator
        for node in loop.access_descendants():
            shape = self._classify_invariance(loop, node)
            if shape == "free":
                continue
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
        own = loop.iterator
        assignment = dict(zip(loop.dims[:-1], prefix))
        alo: Optional[int] = None
        ahi: Optional[int] = None
        domain = node.full_domain
        for expr, is_eq in ([(e, True) for e in domain.eqs]
                            + [(e, False) for e in domain.ineqs]):
            coeff = int(expr.coeff(own))
            if coeff == 0:
                continue
            rest = expr - LinExpr.var(own, coeff)
            value = int(rest.evaluate(assignment))
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

    def _ilp_domain_conflict(self, loop: LoopNode, node: AccessNode,
                             prefix: Tuple[int, ...], i0: int, i1: int,
                             last: int, delta: int,
                             analysis_cache: Dict) -> Optional[int]:
        """Exact conflict set C_a via Presburger sets.

        This is the paper's FurthestByDomains conflict set, verbatim.  The
        simulator itself uses the static classification fast paths (every
        "coupled" domain conflicts at the first candidate iteration); this
        exact version is kept as the reference implementation and is
        exercised against the fast paths by the test suite.
        """
        domain = node.full_domain
        if domain is None:
            return None
        if domain.divs or domain.exists:
            # Cannot negate; conservatively refuse to warp past i1.
            return i1
        key = ("dom", self._node_key[id(node)], i0, i1, delta)
        if key in analysis_cache:
            return analysis_cache[key]
        own = loop.iterator
        dims = node.dims
        own_var = LinExpr.var(own)
        base_eqs = [LinExpr.var(dim) - val
                    for dim, val in zip(loop.dims[:-1], prefix)]
        base_ineqs = [own_var - i1, -own_var + last]
        # r = (own - i1) mod delta via the div q = floor((own - i1)/delta);
        # every piece below shares this single div definition, so q is
        # uniquely determined and negation can be pushed inside.
        q_name = "$warp_q"
        div = (q_name, own_var - i1, delta)
        corr = own_var - i1 - LinExpr.var(q_name) * delta + i0
        subst = {own: corr}
        a_eqs = list(domain.eqs)
        a_ineqs = list(domain.ineqs)
        b_eqs = [e.substitute(subst) for e in domain.eqs]
        b_ineqs = [e.substitute(subst) for e in domain.ineqs]

        def negation_pieces(eqs, ineqs):
            for eq in eqs:
                yield [eq - 1]
                yield [-eq - 1]
            for ineq in ineqs:
                yield [-ineq - 1]

        conflict_min: Optional[int] = None
        for pos_eqs, pos_ineqs, neg in (
                (a_eqs, a_ineqs, negation_pieces(b_eqs, b_ineqs)),
                (b_eqs, b_ineqs, negation_pieces(a_eqs, a_ineqs)),
        ):
            for neg_ineqs in neg:
                piece = BasicSet(
                    dims,
                    eqs=base_eqs + pos_eqs,
                    ineqs=base_ineqs + pos_ineqs + neg_ineqs,
                    divs=(div,),
                )
                value = piece.min_of(own_var)
                if value is not None and (conflict_min is None
                                          or value < conflict_min):
                    conflict_min = value
        analysis_cache[key] = conflict_min
        return conflict_min

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
        own_index = loop.depth - 1
        nodes = list(loop.access_descendants())
        bound = last + loop.stride
        own = loop.iterator
        for ia, node_a in enumerate(nodes):
            coeff_a = (node_a.coeff_vector()[own_index]
                       if own_index < len(node_a.dims) else 0)
            for node_b in nodes[ia:]:
                coeff_b = (node_b.coeff_vector()[own_index]
                           if own_index < len(node_b.dims) else 0)
                if coeff_a == coeff_b:
                    continue  # identical shift: always compatible
                if self._arrays_disjoint(node_a, node_b):
                    continue  # distinct arrays, disjoint block ranges
                key = ("overlap", self._node_key[id(node_a)],
                       self._node_key[id(node_b)])
                cached = analysis_cache.get(key)
                if cached is not None:
                    cached_i0, conflict = cached
                    if conflict is None and i0 >= cached_i0:
                        continue  # no conflict over a superset interval
                    if conflict is not None and conflict >= i0:
                        bound = min(bound, conflict)
                        continue
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
        own = loop.iterator
        depth = loop.depth
        hulls: List[Tuple[int, int, int]] = []  # (lo_block, hi_block, shift)
        for node in loop.access_descendants():
            if id(node) not in shifts:
                continue  # proven not to execute in the region
            key = ("hull", self._node_key[id(node)], i0, bound)
            if key in analysis_cache:
                hull = analysis_cache[key]
            else:
                hull = self._touched_hull(node, loop, prefix, i0, bound - 1)
                analysis_cache[key] = hull
            if hull is None:
                continue
            hulls.append((hull[0], hull[1], shifts[id(node)]))

        modulus = self.shard_modulus
        for level, rotation in zip(self.levels, level_rotations):
            num_sets = level.config.num_sets
            for node_hull in hulls:
                if (node_hull[2] // modulus) % num_sets != rotation:
                    return False
            for set_state in level.sets:
                for line, sym in enumerate(set_state.syms):
                    if sym is None:
                        continue
                    node, _ = sym
                    entry_shift = entry_shifts[id(node)]
                    b1 = set_state.lines[line]
                    b0 = b1 - entry_shift
                    # b0 must map consistently under every hull covering it
                    # (pi's domain side), and b1 under every shifted hull
                    # (pi's range side).
                    for lo, hi, shift in hulls:
                        if lo <= b0 <= hi and shift != entry_shift:
                            return False
                        if lo + shift <= b1 <= hi + shift and \
                                shift != entry_shift:
                            return False
                    # The entry's own movement must respect the rotation.
                    if (entry_shift // modulus) % num_sets != rotation:
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
        (the ILP path handles the general case).
        """
        domain = node.full_domain
        if domain is None or domain.divs or domain.exists:
            return NotImplemented
        depth = loop.depth
        fixed = dict(zip(loop.dims[:depth - 1], prefix))
        free_dims = node.dims[depth - 1:]
        own = loop.iterator
        bounds = {dim: [None, None] for dim in free_dims}
        for expr, is_eq in ([(e, True) for e in domain.eqs]
                            + [(e, False) for e in domain.ineqs]):
            free = [d for d in free_dims if expr.coeff(d) != 0]
            if len(free) > 1:
                return NotImplemented
            if not free:
                # Pure guard over the prefix: check it.
                if any(d not in fixed for d in expr.dims()):
                    return NotImplemented
                value = expr.evaluate(fixed)
                if (value != 0) if is_eq else (value < 0):
                    return None
                continue
            dim = free[0]
            coeff = int(expr.coeff(dim))
            rest = expr - LinExpr.var(dim, coeff)
            if any(d not in fixed for d in rest.dims()):
                return NotImplemented
            value = int(rest.evaluate(fixed))
            lo, hi = bounds[dim]
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
            bounds[dim] = [lo, hi]
        own_lo, own_hi = bounds.get(own, [None, None])
        own_lo = i0 if own_lo is None else max(own_lo, i0)
        own_hi = (last_inclusive if own_hi is None
                  else min(own_hi, last_inclusive))
        bounds[own] = [own_lo, own_hi]
        lo_addr = hi_addr = int(node.addr_expr.constant)
        for dim, val in fixed.items():
            coeff = int(node.addr_expr.coeff(dim))
            lo_addr += coeff * val
            hi_addr += coeff * val
        for dim in free_dims:
            lo, hi = bounds[dim]
            if lo is None or hi is None:
                return NotImplemented  # unbounded free dim: ILP decides
            if lo > hi:
                return None  # empty region
            coeff = int(node.addr_expr.coeff(dim))
            if coeff >= 0:
                lo_addr += coeff * lo
                hi_addr += coeff * hi
            else:
                lo_addr += coeff * hi
                hi_addr += coeff * lo
        return lo_addr // self.block_size, hi_addr // self.block_size


def _same_constraints(a: Sequence[LinExpr], b: Sequence[LinExpr]) -> bool:
    """Set equality of constraint lists (syntactic)."""
    return set(a) == set(b)

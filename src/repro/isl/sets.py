"""Presburger-lite integer sets.

A :class:`BasicSet` is a conjunction of affine equalities and inequalities
over a tuple of named *visible* dimensions, optionally extended with

* **div dimensions** — existentially quantified variables that are uniquely
  determined as floor-divisions ``q = floor(num / den)`` of affine
  expressions (this is how ``mod`` and ``floordiv`` enter Presburger sets),
* **general existential dimensions** — used to represent projections
  (e.g. the domain of a relation).

A :class:`Set` is a finite union of basic sets over the same visible dims.

Decision procedures (emptiness, lexmin/lexmax, sampling) reduce to exact
integer linear programming via :mod:`repro.isl.ilp`.  Negation/subtraction
is supported when the subtrahend has no *general* existentials; div
dimensions are fine because they are uniquely determined, so negation can
be pushed through the quantifier.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from math import gcd

from repro import obs
from repro.isl.affine import LinExpr
from repro.isl.ilp import IlpProblem, IlpStatus

_fresh_counter = itertools.count()


def _fresh_name(prefix: str) -> str:
    return f"${prefix}{next(_fresh_counter)}"


# -- canonical forms and decision memoization ----------------------------------
#
# Decision procedures (emptiness, lexmin, min/max) depend only on the
# *set*, not on how it was built — but `_fresh_name`'s process-global
# counter gives structurally identical sets different local names, so
# naive keys never collide.  The canonical key renames divs/existentials
# positionally ($d0..., $e0...), scales every constraint to integer
# coefficients, GCD-reduces it (floor-tightening inequality constants,
# which is exact over the integers), normalizes equality signs, and
# sorts/dedupes the constraint lists.  Equal keys therefore imply equal
# integer sets, which makes the module-global decision cache below
# sound: answers are reused across independently built sets and across
# sweep configurations.  Hits/misses are counted as ``isl.memo_hits`` /
# ``isl.memo_misses``.

_CONTRADICTION = object()   # canonical marker: constraint is unsatisfiable
_MISS = object()

_DECISION_CACHE: Dict[tuple, object] = {}

#: Bounded size of the decision cache (FIFO eviction).
DECISION_CACHE_LIMIT = 8192


def clear_decision_cache() -> None:
    """Drop all memoized decision-procedure answers (tests, sweeps)."""
    _DECISION_CACHE.clear()


def decision_cache_size() -> int:
    """Number of memoized decision answers currently held."""
    return len(_DECISION_CACHE)


def _memo(op: str, basic: "BasicSet", extra, compute):
    key = (op, basic.canonical_key(), extra)
    cache = _DECISION_CACHE
    value = cache.get(key, _MISS)
    if value is not _MISS:
        obs.count("isl.memo_hits")
        return value
    obs.count("isl.memo_misses")
    value = compute()
    if len(cache) >= DECISION_CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _dim_sort(item):
    return repr(item[0])


def _canon_eq(expr: LinExpr):
    """Canonical tuple for an integral ``expr == 0`` (or markers)."""
    items = sorted(expr.coeffs.items(), key=_dim_sort)
    const = int(expr.constant)
    if not items:
        return None if const == 0 else _CONTRADICTION
    divisor = 0
    for _, coeff in items:
        divisor = gcd(divisor, abs(int(coeff)))
    if const % divisor:
        return _CONTRADICTION  # g | lhs but not the constant: no solution
    sign = -1 if int(items[0][1]) < 0 else 1
    return (sign * const // divisor,
            tuple((dim, sign * int(coeff) // divisor)
                  for dim, coeff in items))


def _canon_ineq(expr: LinExpr):
    """Canonical tuple for an integral ``expr >= 0`` (or markers)."""
    items = sorted(expr.coeffs.items(), key=_dim_sort)
    const = int(expr.constant)
    if not items:
        return None if const >= 0 else _CONTRADICTION
    divisor = 0
    for _, coeff in items:
        divisor = gcd(divisor, abs(int(coeff)))
    if divisor > 1:
        # Floor-tightening: g*a.x + c >= 0 <=> a.x + floor(c/g) >= 0
        # over the integers.
        const = const // divisor
        items = [(dim, int(coeff) // divisor) for dim, coeff in items]
    return (const, tuple((dim, int(coeff)) for dim, coeff in items))


def _decision_procedure(func):
    """Count and time a BasicSet decision procedure under ``isl.sets``.

    Only the :class:`BasicSet` entry points are wrapped (not the
    :class:`Set` union layer, which delegates to them) so each decision
    is counted exactly once.  With no active tracer the wrapper is a
    single global read plus the delegated call.
    """
    op_counter = "isl.op." + func.__name__

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        tracer = obs.current()
        if tracer is None:
            return func(self, *args, **kwargs)
        tracer.count("isl.set_ops")
        tracer.count(op_counter)
        with tracer.span("isl.sets"):
            return func(self, *args, **kwargs)

    return wrapper


class BasicSet:
    """A conjunction of affine constraints with div/existential dims."""

    __slots__ = ("dims", "divs", "exists", "eqs", "ineqs", "_canon")

    def __init__(self, dims: Sequence[str],
                 eqs: Iterable[LinExpr] = (),
                 ineqs: Iterable[LinExpr] = (),
                 divs: Iterable[Tuple[str, LinExpr, int]] = (),
                 exists: Sequence[str] = ()):
        self.dims: Tuple[str, ...] = tuple(dims)
        self.divs: Tuple[Tuple[str, LinExpr, int], ...] = tuple(divs)
        self.exists: Tuple[str, ...] = tuple(exists)
        self.eqs: Tuple[LinExpr, ...] = tuple(eqs)
        self.ineqs: Tuple[LinExpr, ...] = tuple(ineqs)
        self._canon = None
        for _, _, den in self.divs:
            if den <= 0:
                raise ValueError("div denominator must be positive")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def universe(dims: Sequence[str]) -> "BasicSet":
        """The set of all integer tuples over ``dims``."""
        return BasicSet(dims)

    @staticmethod
    def empty(dims: Sequence[str]) -> "BasicSet":
        """An empty basic set (contains the contradiction -1 >= 0)."""
        return BasicSet(dims, ineqs=[LinExpr.const(-1)])

    @staticmethod
    def from_bounds(dims: Sequence[str],
                    bounds: Dict[str, Tuple[int, int]]) -> "BasicSet":
        """Box ``{x | lo_d <= x_d <= hi_d}`` (inclusive bounds)."""
        ineqs = []
        for dim, (lo, hi) in bounds.items():
            ineqs.append(LinExpr.var(dim) - lo)
            ineqs.append(-LinExpr.var(dim) + hi)
        return BasicSet(dims, ineqs=ineqs)

    # -- modification (functional) -----------------------------------------------

    def with_constraint_ge0(self, expr: LinExpr) -> "BasicSet":
        """Add an inequality ``expr >= 0``."""
        return BasicSet(self.dims, self.eqs, self.ineqs + (expr,),
                        self.divs, self.exists)

    def with_constraint_eq0(self, expr: LinExpr) -> "BasicSet":
        """Add an equality ``expr == 0``."""
        return BasicSet(self.dims, self.eqs + (expr,), self.ineqs,
                        self.divs, self.exists)

    def with_div(self, numerator: LinExpr, denominator: int,
                 name: Optional[str] = None) -> Tuple["BasicSet", str]:
        """Introduce ``q = floor(numerator / denominator)``.

        Returns the extended set and the fresh div dimension's name; the
        caller may then reference the div in further constraints.
        """
        name = name or _fresh_name("q")
        divs = self.divs + ((name, numerator, denominator),)
        return BasicSet(self.dims, self.eqs, self.ineqs, divs,
                        self.exists), name

    # -- structural helpers -----------------------------------------------------

    def _div_constraints(self) -> List[LinExpr]:
        """Inequalities defining every div: 0 <= num - den*q < den."""
        cons = []
        for name, num, den in self.divs:
            q = LinExpr.var(name)
            cons.append(num - q * den)               # num - den*q >= 0
            cons.append(q * den - num + (den - 1))   # den*q - num + den-1 >= 0
        return cons

    def all_ineqs(self) -> List[LinExpr]:
        """All inequalities including the div-defining ones."""
        return list(self.ineqs) + self._div_constraints()

    def _rename_locals(self) -> "BasicSet":
        """Freshen div/existential names (for safe combination)."""
        mapping = {}
        for name, _, _ in self.divs:
            mapping[name] = _fresh_name("q")
        for name in self.exists:
            mapping[name] = _fresh_name("e")
        if not mapping:
            return self
        divs = tuple(
            (mapping[n], num.rename(mapping), den) for n, num, den in self.divs
        )
        exists = tuple(mapping[n] for n in self.exists)
        eqs = tuple(e.rename(mapping) for e in self.eqs)
        ineqs = tuple(e.rename(mapping) for e in self.ineqs)
        return BasicSet(self.dims, eqs, ineqs, divs, exists)

    def rename_dims(self, mapping: Dict[str, str]) -> "BasicSet":
        """Rename visible dimensions."""
        dims = tuple(mapping.get(d, d) for d in self.dims)
        return BasicSet(
            dims,
            (e.rename(mapping) for e in self.eqs),
            (e.rename(mapping) for e in self.ineqs),
            ((n, num.rename(mapping), den) for n, num, den in self.divs),
            self.exists,
        )

    def project_to_exists(self, dims_to_hide: Sequence[str]) -> "BasicSet":
        """Turn some visible dims into general existentials (projection)."""
        hide = set(dims_to_hide)
        dims = tuple(d for d in self.dims if d not in hide)
        return BasicSet(dims, self.eqs, self.ineqs, self.divs,
                        self.exists + tuple(d for d in self.dims if d in hide))

    # -- canonical form ---------------------------------------------------------

    def _canonical(self) -> tuple:
        """``(key, local rename mapping)``, computed once per instance."""
        if self._canon is None:
            self._canon = self._compute_canonical()
        return self._canon

    def canonical_key(self) -> tuple:
        """A stable structural key, invariant under local names, order,
        and scaling.

        Divs and general existentials are renamed positionally
        (``$d0...``, ``$e0...``), every constraint is scaled to integer
        coefficients and GCD-reduced (inequality constants are
        floor-tightened, an exact step over the integers), equalities
        are sign-normalized, and both constraint lists are sorted and
        deduplicated.  Sets whose constraints contain a constant
        contradiction all share one "empty" key.  Equal keys imply
        equal integer sets, so the key is a sound memoization key for
        every decision procedure.
        """
        return self._canonical()[0]

    def _compute_canonical(self) -> tuple:
        mapping: Dict[str, str] = {}
        for index, (name, _, _) in enumerate(self.divs):
            mapping[name] = f"$d{index}"
        for index, name in enumerate(self.exists):
            mapping[name] = f"$e{index}"
        eq_keys = set()
        ineq_keys = set()
        empty = False
        for expr in self.eqs:
            if mapping:
                expr = expr.rename(mapping)
            key = _canon_eq(expr.scaled_integral())
            if key is _CONTRADICTION:
                empty = True
                break
            if key is not None:
                eq_keys.add(key)
        if not empty:
            for expr in self.ineqs:
                if mapping:
                    expr = expr.rename(mapping)
                key = _canon_ineq(expr.scaled_integral())
                if key is _CONTRADICTION:
                    empty = True
                    break
                if key is not None:
                    ineq_keys.add(key)
        if empty:
            return ((self.dims, "empty"), mapping)
        divs = tuple(
            ((num.rename(mapping) if mapping else num).key(), den)
            for _, num, den in self.divs
        )
        key = (
            self.dims,
            tuple(sorted(eq_keys, key=repr)),
            tuple(sorted(ineq_keys, key=repr)),
            divs,
            len(self.exists),
        )
        return (key, mapping)

    def _local_expr_key(self, expr: LinExpr) -> tuple:
        """Canonical key of an objective under this set's local renaming."""
        mapping = self._canonical()[1]
        if mapping:
            expr = expr.rename(mapping)
        return expr.key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # -- ILP bridge -----------------------------------------------------------------

    def _to_ilp(self) -> IlpProblem:
        ilp = IlpProblem()
        for dim in self.dims:
            ilp.add_var(dim)
        for eq in self.eqs:
            ilp.add_eq0(eq)
        for ineq in self.all_ineqs():
            ilp.add_ge0(ineq)
        return ilp

    # -- queries ----------------------------------------------------------------------

    @_decision_procedure
    def is_empty(self) -> bool:
        """True if the set contains no integer point."""
        return _memo("is_empty", self, None,
                     lambda: not self._to_ilp().is_feasible())

    @_decision_procedure
    def sample(self) -> Optional[Tuple[int, ...]]:
        """Some point of the set (visible dims only), or None."""
        return _memo("sample", self, None, self._sample)

    def _sample(self) -> Optional[Tuple[int, ...]]:
        point = self._to_ilp().find_point()
        if point is None:
            return None
        return tuple(int(point.get(d, 0)) for d in self.dims)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test for a concrete integer tuple."""
        if len(point) != len(self.dims):
            raise ValueError("point arity mismatch")
        assignment: Dict[str, int] = dict(zip(self.dims, point))
        # Divs are uniquely determined; compute them in order.
        ok = True
        for name, num, den in self.divs:
            try:
                value = num.evaluate(assignment)
            except KeyError:
                ok = False
                break
            assignment[name] = _floor_div(value, den)
        if ok and not self.exists:
            for eq in self.eqs:
                if eq.evaluate(assignment) != 0:
                    return False
            for ineq in self.ineqs:
                if ineq.evaluate(assignment) < 0:
                    return False
            return True
        # General existentials (or divs referencing them): fall back to ILP.
        # (Only this slow path counts as a set op: the evaluation fast
        # path above runs per simulated access and must stay unwrapped.)
        obs.count("isl.set_ops")
        obs.count("isl.op.contains")
        with obs.span("isl.sets"):
            ilp = self._to_ilp()
            for dim, value in zip(self.dims, point):
                ilp.add_eq0(LinExpr.var(dim) - value)
            return ilp.is_feasible()

    @_decision_procedure
    def lexmin(self) -> Optional[Tuple[int, ...]]:
        """Lexicographically smallest point, or None if empty."""
        return _memo("lexmin", self, None,
                     lambda: self._lexopt(minimize=True))

    @_decision_procedure
    def lexmax(self) -> Optional[Tuple[int, ...]]:
        """Lexicographically largest point, or None if empty."""
        return _memo("lexmax", self, None,
                     lambda: self._lexopt(minimize=False))

    def _lexopt(self, minimize: bool) -> Optional[Tuple[int, ...]]:
        ilp = self._to_ilp()
        fixed: List[int] = []
        for dim in self.dims:
            result = ilp.solve_ilp(LinExpr.var(dim), minimize=minimize)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(
                    f"lex-optimisation unbounded in dimension {dim!r}"
                )
            value = int(result.objective)
            ilp.add_eq0(LinExpr.var(dim) - value)
            fixed.append(value)
        return tuple(fixed)

    @_decision_procedure
    def min_of(self, expr: LinExpr) -> Optional[int]:
        """Exact integer minimum of ``expr`` over the set (None if empty)."""
        return _memo("min_of", self, self._local_expr_key(expr),
                     lambda: self._opt_of(expr, minimize=True))

    @_decision_procedure
    def max_of(self, expr: LinExpr) -> Optional[int]:
        """Exact integer maximum of ``expr`` over the set (None if empty)."""
        return _memo("max_of", self, self._local_expr_key(expr),
                     lambda: self._opt_of(expr, minimize=False))

    @_decision_procedure
    def range_of(self, expr: LinExpr) -> Optional[Tuple[int, int]]:
        """``(min, max)`` of ``expr`` over the set, or None if empty.

        One memo entry and one shared ILP problem for both bounds —
        cheaper than separate :meth:`min_of` / :meth:`max_of` calls for
        the hull queries the warping engine issues in pairs.
        """
        return _memo("range_of", self, self._local_expr_key(expr),
                     lambda: self._range_of(expr))

    def _opt_of(self, expr: LinExpr, minimize: bool) -> Optional[int]:
        result = self._to_ilp().solve_ilp(expr, minimize=minimize)
        if result.status is IlpStatus.INFEASIBLE:
            return None
        if result.status is IlpStatus.UNBOUNDED:
            raise ValueError(
                "minimum unbounded" if minimize else "maximum unbounded")
        return int(result.objective)

    def _range_of(self, expr: LinExpr) -> Optional[Tuple[int, int]]:
        ilp = self._to_ilp()
        lo = ilp.solve_ilp(expr, minimize=True)
        if lo.status is IlpStatus.INFEASIBLE:
            return None
        if lo.status is IlpStatus.UNBOUNDED:
            raise ValueError("minimum unbounded")
        hi = ilp.solve_ilp(expr, minimize=False)
        if hi.status is IlpStatus.UNBOUNDED:
            raise ValueError("maximum unbounded")
        return (int(lo.objective), int(hi.objective))

    # -- algebra ------------------------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Conjunction of two basic sets over the same dims."""
        if self.dims != other.dims:
            raise ValueError(f"dim mismatch: {self.dims} vs {other.dims}")
        a, b = self._rename_locals(), other._rename_locals()
        return BasicSet(self.dims, a.eqs + b.eqs, a.ineqs + b.ineqs,
                        a.divs + b.divs, a.exists + b.exists)

    def negate(self) -> "Set":
        """Complement within Z^n; requires no general existentials.

        Divs are allowed: they are uniquely determined by the visible dims,
        so ``not exists q. (divdef and C)`` equals
        ``exists q. (divdef and not C)``.
        """
        if self.exists:
            raise ValueError("cannot negate a set with general existentials")
        pieces: List[BasicSet] = []
        # Strict-inequality reasoning (e > 0 <=> e >= 1) is only valid
        # when e is integer-valued, so rational coefficients must be
        # scaled away first: with e = x/2, "not (e >= 0)" is x <= -1,
        # but "-e - 1 >= 0" would claim x <= -2.
        for eq in self.eqs:
            scaled = eq.scaled_integral()
            pieces.append(BasicSet(self.dims, ineqs=[scaled - 1],
                                   divs=self.divs))
            pieces.append(BasicSet(self.dims, ineqs=[-scaled - 1],
                                   divs=self.divs))
        for ineq in self.ineqs:
            # not (e >= 0)  <=>  -e - 1 >= 0 (e integral)
            scaled = ineq.scaled_integral()
            pieces.append(BasicSet(self.dims, ineqs=[-scaled - 1],
                                   divs=self.divs))
        return Set(self.dims, pieces)

    def enumerate_points(self, limit: int = 1_000_000) -> List[Tuple[int, ...]]:
        """All points of a bounded set (for tests); exact but exhaustive."""
        if not self.dims:
            return [()] if not self.is_empty() else []
        boxes = []
        for dim in self.dims:
            lo = self.min_of(LinExpr.var(dim))
            if lo is None:
                return []
            hi = self.max_of(LinExpr.var(dim))
            boxes.append(range(lo, hi + 1))
        count = 1
        for box in boxes:
            count *= max(len(box), 1)
            if count > limit:
                raise ValueError("set too large to enumerate")
        return [p for p in itertools.product(*boxes) if self.contains(p)]

    def __repr__(self) -> str:
        parts = [f"{e} = 0" for e in self.eqs] + [f"{e} >= 0" for e in self.ineqs]
        for name, num, den in self.divs:
            parts.append(f"{name} = floor(({num})/{den})")
        body = " and ".join(parts) if parts else "true"
        return f"BasicSet({list(self.dims)}: {body})"


class Set:
    """A finite union of :class:`BasicSet` over identical visible dims."""

    __slots__ = ("dims", "pieces")

    def __init__(self, dims: Sequence[str],
                 pieces: Iterable[BasicSet] = ()):
        self.dims: Tuple[str, ...] = tuple(dims)
        self.pieces: Tuple[BasicSet, ...] = tuple(
            p for p in pieces if p.dims == self.dims
        )
        for piece in pieces:
            if piece.dims != self.dims:
                raise ValueError("piece dims mismatch")

    @staticmethod
    def empty(dims: Sequence[str]) -> "Set":
        return Set(dims, [])

    @staticmethod
    def universe(dims: Sequence[str]) -> "Set":
        return Set(dims, [BasicSet.universe(dims)])

    @staticmethod
    def from_basic(basic: BasicSet) -> "Set":
        return Set(basic.dims, [basic])

    def union(self, other: "Set") -> "Set":
        if self.dims != other.dims:
            raise ValueError("dim mismatch in union")
        return Set(self.dims, self.pieces + other.pieces)

    def intersect(self, other: "Set") -> "Set":
        if self.dims != other.dims:
            raise ValueError("dim mismatch in intersect")
        return Set(self.dims, [
            a.intersect(b) for a in self.pieces for b in other.pieces
        ])

    def intersect_basic(self, basic: BasicSet) -> "Set":
        return Set(self.dims, [a.intersect(basic) for a in self.pieces])

    def subtract(self, other: "Set") -> "Set":
        """Set difference; every piece of ``other`` must be negatable."""
        result = self
        for piece in other.pieces:
            negation = piece.negate()
            result = Set(self.dims, [
                a.intersect(b)
                for a in result.pieces for b in negation.pieces
            ])
        return result

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)

    def contains(self, point: Sequence[int]) -> bool:
        return any(p.contains(point) for p in self.pieces)

    def sample(self) -> Optional[Tuple[int, ...]]:
        for piece in self.pieces:
            point = piece.sample()
            if point is not None:
                return point
        return None

    def lexmin(self) -> Optional[Tuple[int, ...]]:
        best = None
        for piece in self.pieces:
            point = piece.lexmin()
            if point is not None and (best is None or point < best):
                best = point
        return best

    def lexmax(self) -> Optional[Tuple[int, ...]]:
        best = None
        for piece in self.pieces:
            point = piece.lexmax()
            if point is not None and (best is None or point > best):
                best = point
        return best

    def min_of(self, expr: LinExpr) -> Optional[int]:
        values = [p.min_of(expr) for p in self.pieces]
        values = [v for v in values if v is not None]
        return min(values) if values else None

    def max_of(self, expr: LinExpr) -> Optional[int]:
        values = [p.max_of(expr) for p in self.pieces]
        values = [v for v in values if v is not None]
        return max(values) if values else None

    def range_of(self, expr: LinExpr) -> Optional[Tuple[int, int]]:
        ranges = [p.range_of(expr) for p in self.pieces]
        ranges = [r for r in ranges if r is not None]
        if not ranges:
            return None
        return (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))

    def enumerate_points(self, limit: int = 1_000_000) -> List[Tuple[int, ...]]:
        seen = set()
        for piece in self.pieces:
            seen.update(piece.enumerate_points(limit))
        return sorted(seen)

    def __repr__(self) -> str:
        return f"Set({len(self.pieces)} pieces over {list(self.dims)})"


def _floor_div(a, b: int) -> int:
    """Floored division that also works for Fractions."""
    if isinstance(a, int):
        return a // b
    from math import floor

    return floor(a / b)

"""SCoP tree representation (paper Section 3.2).

A SCoP is a tree whose inner nodes are :class:`LoopNode` (one per loop of
the source program) and whose leaves are :class:`AccessNode` (one per
array reference).  Iteration domains are :class:`repro.isl.BasicSet` over
the iterator dims of all enclosing loops; access functions are affine
byte-address expressions over the same dims.

For simulation speed, nodes precompute evaluation fast paths (numeric
bound evaluation, compiled address coefficients); the general
isl-powered methods (``initial``/``final`` via lexmin) remain available
and are used as the fallback and in tests as the reference.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.isl.affine import LinExpr, Number
from repro.isl.sets import BasicSet
from repro.polyhedral.arrays import Array, MemoryLayout

Point = Tuple[int, ...]
#: An affine expression's terms over a loop's outer iterators:
#: ``(prefix position, coefficient)`` for every nonzero coefficient.
Terms = Tuple[Tuple[int, Number], ...]


class AccessNode:
    """A leaf of the SCoP tree: one array reference (paper Sec. 3.2).

    Attributes:
        array: the referenced :class:`Array`.
        subscripts: affine subscript expressions over the loop dims.
        dims: names of the enclosing loop iterators, outermost first.
        domain: iteration domain (guards); None means "whole enclosing
            loop domain" (the common case, enabling a fast path).
        is_write: whether the reference is a store.
        label: identifier for reports (e.g. "S0.A[i][j]").
    """

    __slots__ = ("array", "subscripts", "dims", "domain", "is_write",
                 "label", "addr_expr", "full_domain", "_coeffs", "_const",
                 "_domain_checks")

    def __init__(self, array: Array, subscripts: Sequence[LinExpr],
                 dims: Sequence[str], domain: Optional[BasicSet] = None,
                 is_write: bool = False, label: str = ""):
        self.array = array
        self.subscripts = tuple(subscripts)
        self.dims = tuple(dims)
        self.domain = domain
        self.is_write = is_write
        self.label = label or f"{array.name}"
        self.addr_expr = array.linearize(self.subscripts)
        if not self.addr_expr.is_integral():
            raise ValueError(f"{self.label}: address expression not integral")
        self._coeffs = tuple(int(self.addr_expr.coeff(d)) for d in self.dims)
        self._const = int(self.addr_expr.constant)
        extra = self.addr_expr.dims() - set(self.dims)
        if extra:
            raise ValueError(
                f"{self.label}: address uses unknown dims {sorted(extra)}"
            )
        #: Effective iteration domain over ``dims`` (enclosing loop domain
        #: intersected with any guard); set by the builder/frontend and used
        #: by the warping analysis (FurthestByDomains).
        self.full_domain: Optional[BasicSet] = domain
        self._domain_checks = None
        if domain is not None:
            if domain.dims != self.dims:
                raise ValueError(f"{self.label}: domain dims mismatch")
            if not domain.exists and not domain.divs:
                self._domain_checks = (domain.eqs, domain.ineqs)

    # -- evaluation --------------------------------------------------------------

    def addr_at(self, point: Point) -> int:
        """Concrete byte address accessed at iteration ``point``."""
        return self._const + sum(map(mul, self._coeffs, point))

    def block_at(self, point: Point, block_size: int) -> int:
        """Concrete memory block accessed at iteration ``point``."""
        return self.addr_at(point) // block_size

    def in_domain(self, point: Point) -> bool:
        """Guard check: is the access performed at ``point``?"""
        if self.domain is None:
            return True
        if self._domain_checks is not None:
            assignment = dict(zip(self.dims, point))
            eqs, ineqs = self._domain_checks
            for eq in eqs:
                if eq.evaluate(assignment) != 0:
                    return False
            for ineq in ineqs:
                if ineq.evaluate(assignment) < 0:
                    return False
            return True
        return self.domain.contains(point)

    def coeff_on(self, dim: str) -> int:
        """Byte-address coefficient of iterator ``dim``."""
        try:
            return self._coeffs[self.dims.index(dim)]
        except ValueError:
            return 0

    def coeff_vector(self) -> Tuple[int, ...]:
        """Byte-address coefficients over ``self.dims``."""
        return self._coeffs

    def shift_bytes(self, delta: Point) -> int:
        """Address shift induced by advancing the iterators by ``delta``.

        Because the address expression is affine,
        ``addr(j + delta) - addr(j)`` is this constant for every ``j``.
        """
        return sum(c * d for c, d in zip(self._coeffs, delta))

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"AccessNode({kind} {self.label} @ {self.addr_expr})"


class LoopNode:
    """An inner node of the SCoP tree: one loop of the source program.

    Attributes:
        iterator: the loop's iterator name (innermost dim of ``dims``).
        dims: iterator names from the root loop down to this one.
        domain: iteration domain over ``dims``.
        stride: iterator increment per iteration (positive).
        children: loop/access nodes in program order.
    """

    __slots__ = ("iterator", "dims", "domain", "stride", "children",
                 "_lower_bounds", "_upper_bounds", "_guards",
                 "_bounds_exact")

    def __init__(self, iterator: str, dims: Sequence[str], domain: BasicSet,
                 children: Optional[List[Union["LoopNode", AccessNode]]] = None,
                 stride: int = 1):
        if stride <= 0:
            raise ValueError("only positive strides are supported")
        self.iterator = iterator
        self.dims = tuple(dims)
        if not self.dims or self.dims[-1] != iterator:
            raise ValueError("iterator must be the innermost dim")
        if domain.dims != self.dims:
            raise ValueError(
                f"domain dims {domain.dims} do not match loop dims {self.dims}"
            )
        self.domain = domain
        self.stride = stride
        self.children = children if children is not None else []
        self._compile_bounds()

    @property
    def depth(self) -> int:
        """Nesting depth (root loop = 1)."""
        return len(self.dims)

    def _compile_bounds(self) -> None:
        """Extract affine bounds on the own iterator for fast evaluation.

        Each bound's remainder over the outer iterators is compiled to
        ``(constant, ((prefix position, coefficient), ...))``.
        """
        #: (own coefficient, constant, terms) per bound
        self._lower_bounds: List[Tuple[int, Number, Terms]] = []
        self._upper_bounds: List[Tuple[int, Number, Terms]] = []
        #: (constant, terms, is equality) per guard on the outer dims
        self._guards: List[Tuple[Number, Terms, bool]] = []
        self._bounds_exact = not self.domain.divs and not self.domain.exists
        if not self._bounds_exact:
            return
        own = self.iterator
        position = {dim: at for at, dim in enumerate(self.dims[:-1])}

        def compiled(rest: LinExpr) -> Tuple[Number, Terms]:
            return rest.constant, tuple(
                (position[dim], coeff) for dim, coeff in rest.coeffs.items())

        constraints = [(ineq, False) for ineq in self.domain.ineqs]
        constraints += [(eq, True) for eq in self.domain.eqs]
        for expr, is_eq in constraints:
            coeff = expr.coeff(own)
            rest = expr - LinExpr.var(own, coeff)
            coeff = int(coeff)
            if coeff > 0:
                # coeff*i + rest >= 0  ->  i >= ceil(-rest / coeff)
                self._lower_bounds.append((coeff, *compiled(rest)))
                if is_eq:
                    self._upper_bounds.append((-coeff, *compiled(-rest)))
            elif coeff < 0:
                self._upper_bounds.append((coeff, *compiled(rest)))
                if is_eq:
                    self._lower_bounds.append((-coeff, *compiled(-rest)))
            else:
                # Pure guard on outer dims: check at bounds evaluation.
                self._guards.append((*compiled(rest), is_eq))

    # -- iteration ranges ---------------------------------------------------------------

    def bounds_at(self, prefix: Point) -> Optional[Tuple[int, int]]:
        """(min, max) value of the own iterator for fixed outer iterators.

        Returns None when the loop body does not execute for ``prefix``.
        """
        if self._bounds_exact:
            for value, terms, is_eq in self._guards:
                for at, coeff in terms:
                    value += coeff * prefix[at]
                if (value != 0) if is_eq else (value < 0):
                    return None
            lo: Optional[int] = None
            hi: Optional[int] = None
            for coeff, value, terms in self._lower_bounds:
                for at, term in terms:
                    value += term * prefix[at]
                bound = -(value // coeff)  # ceil(-value / coeff), exact ints
                if lo is None or bound > lo:
                    lo = bound
            for coeff, value, terms in self._upper_bounds:
                for at, term in terms:
                    value += term * prefix[at]
                bound = value // -coeff  # floor(value / -coeff), exact ints
                if hi is None or bound < hi:
                    hi = bound
            if lo is None or hi is None:
                raise ValueError(
                    f"loop {self.iterator}: unbounded iteration domain"
                )
            if lo > hi:
                return None
            return lo, hi
        fixed = self._fix_prefix(prefix)
        first = fixed.lexmin()
        if first is None:
            return None
        last = fixed.lexmax()
        return first[-1], last[-1]

    def initial(self, prefix: Point) -> Optional[Point]:
        """lexmin of the domain for fixed outer dims (paper Sec. 3.2)."""
        bounds = self.bounds_at(prefix)
        if bounds is None:
            return None
        return tuple(prefix) + (bounds[0],)

    def final(self, prefix: Point) -> Optional[Point]:
        """lexmax of the domain for fixed outer dims."""
        bounds = self.bounds_at(prefix)
        if bounds is None:
            return None
        return tuple(prefix) + (bounds[1],)

    def _fix_prefix(self, prefix: Point) -> BasicSet:
        fixed = self.domain
        for dim, value in zip(self.dims[:-1], prefix):
            fixed = fixed.with_constraint_eq0(LinExpr.var(dim) - value)
        return fixed

    def in_domain(self, point: Point) -> bool:
        """Membership test for a full iteration vector of this loop."""
        return self.domain.contains(point)

    # -- tree navigation ------------------------------------------------------------

    def access_descendants(self) -> Iterator[AccessNode]:
        """All access nodes in the subtree, in program order
        (``this.children*`` in the paper's pseudo-code)."""
        for child in self.children:
            if isinstance(child, AccessNode):
                yield child
            else:
                yield from child.access_descendants()

    def loop_descendants(self) -> Iterator["LoopNode"]:
        """All loop nodes in the subtree including self."""
        yield self
        for child in self.children:
            if isinstance(child, LoopNode):
                yield from child.loop_descendants()

    def __repr__(self) -> str:
        return (f"LoopNode({self.iterator}, depth={self.depth}, "
                f"{len(self.children)} children)")


class Scop:
    """A static control part: a sequence of top-level trees + its arrays."""

    def __init__(self, name: str, layout: MemoryLayout,
                 roots: Optional[List[Union[LoopNode, AccessNode]]] = None):
        self.name = name
        self.layout = layout
        self.roots: List[Union[LoopNode, AccessNode]] = roots if roots is not None else []

    def access_nodes(self) -> Iterator[AccessNode]:
        """All access nodes in program order."""
        for root in self.roots:
            if isinstance(root, AccessNode):
                yield root
            else:
                yield from root.access_descendants()

    def loop_nodes(self) -> Iterator[LoopNode]:
        for root in self.roots:
            if isinstance(root, LoopNode):
                yield from root.loop_descendants()

    def count_accesses(self) -> int:
        """Total dynamic memory accesses (exact, via domain enumeration).

        Innermost loops with exact affine bounds and unguarded accesses
        are counted in closed form, so the cost is proportional to the
        number of *outer* loop iterations, not accesses.  Used by
        reports, ``list-kernels --json`` and the transform differential
        tests; simulators count accesses during simulation instead.
        """
        return sum(self.count_accesses_by_array().values())

    def count_accesses_by_array(self) -> dict:
        """Exact per-array dynamic access counts (array name -> count).

        This is the invariant every schedule transformation preserves:
        a transformed SCoP performs exactly the original accesses, in a
        different order.
        """
        totals: dict = {name: 0 for name in self.layout.arrays}
        for root in self.roots:
            _count_node(root, totals)
        return totals

    def footprint_bytes(self) -> int:
        """Total bytes of all declared arrays."""
        return self.layout.total_bytes

    def __repr__(self) -> str:
        return f"Scop({self.name}, {len(self.roots)} top-level nodes)"


def _count_node(node: Union[LoopNode, AccessNode], totals: dict) -> None:
    if isinstance(node, AccessNode):
        # Top-level access node (outside any loop).
        if node.in_domain(()):
            totals[node.array.name] = totals.get(node.array.name, 0) + 1
        return
    _count_loop(node, (), totals)


def _count_loop(loop: LoopNode, prefix: Point, totals: dict) -> None:
    bounds = loop.bounds_at(prefix)
    if bounds is None:
        return
    lo, hi = bounds
    # With exact affine bounds (no divs/existentials) every lattice point
    # of [lo, hi] is in the domain, so unguarded leaf accesses count in
    # closed form: trip count x one per access node.
    exact = loop._bounds_exact
    plain: List[str] = []
    complex_children: List[Union[LoopNode, AccessNode]] = []
    for child in loop.children:
        if exact and isinstance(child, AccessNode) and child.domain is None:
            plain.append(child.array.name)
        else:
            complex_children.append(child)
    if exact and plain:
        trips = (hi - lo) // loop.stride + 1
        for name in plain:
            totals[name] = totals.get(name, 0) + trips
    if not complex_children:
        return
    for value in range(lo, hi + 1, loop.stride):
        point = prefix + (value,)
        if not exact and not loop.in_domain(point):
            continue
        for child in complex_children:
            if isinstance(child, AccessNode):
                if child.in_domain(point):
                    totals[child.array.name] = (
                        totals.get(child.array.name, 0) + 1)
            else:
                _count_loop(child, point, totals)

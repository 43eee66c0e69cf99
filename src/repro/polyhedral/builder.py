"""A small Python DSL for constructing SCoPs directly.

Example (the paper's running 1D stencil, Fig. 1)::

    b = ScopBuilder("stencil1d")
    A = b.array("A", (1000,))
    B = b.array("B", (1000,))
    with b.loop("i", 1, 999):          # for (i = 1; i < 999; i++)
        b.read(A, b.i - 1)
        b.read(A, b.i)
        b.write(B, b.i - 1)
    scop = b.build()

Loop bounds may be integers or affine expressions of enclosing
iterators; ``b.loop(..., extra=[...])`` adds arbitrary affine guard
constraints (each an expression asserted ``>= 0``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Union

from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet
from repro.polyhedral.arrays import Array, MemoryLayout
from repro.polyhedral.model import AccessNode, LoopNode, Scop

ExprLike = Union[int, LinExpr]


def _as_expr(value: ExprLike) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.const(value)


class ScopBuilder:
    """Imperative construction of :class:`repro.polyhedral.Scop` trees.

    Open loops with the :meth:`loop` context manager (iterators become
    attributes, e.g. ``builder.i``), record references with
    :meth:`read`/:meth:`write`, then :meth:`build`:

    >>> from repro import ScopBuilder, render_scop
    >>> builder = ScopBuilder("copy")
    >>> a = builder.array("A", (16,))
    >>> b = builder.array("B", (16,))
    >>> with builder.loop("i", 0, 16):
    ...     _ = builder.read(a, builder.i)
    ...     _ = builder.write(b, builder.i)
    >>> scop = builder.build()
    >>> scop.count_accesses()
    32
    >>> print(render_scop(scop))
    for i = 0 .. 15:
      read A[i]
      write B[i]
    """

    def __init__(self, name: str, alignment: int = 64):
        self.name = name
        self.layout = MemoryLayout(alignment)
        self._roots: List[Union[LoopNode, AccessNode]] = []
        self._stack: List[LoopNode] = []
        self._access_counter = 0

    # -- declarations ------------------------------------------------------------

    def array(self, name: str, extents: Sequence[int],
              element_size: int = 8) -> Array:
        """Declare an array (also usable via ``self.layout``)."""
        return self.layout.add(name, extents, element_size)

    # -- iterator expressions -----------------------------------------------------

    def iter_expr(self, name: str) -> LinExpr:
        """Expression for an in-scope iterator."""
        if name not in self._open_iterators():
            raise ValueError(f"iterator {name!r} not in scope")
        return LinExpr.var(name)

    def __getattr__(self, name: str) -> LinExpr:
        # Convenience: b.i is the iterator expression for open loop "i".
        if name.startswith("_") or name in ("name", "layout"):
            raise AttributeError(name)
        if name in self._open_iterators():
            return LinExpr.var(name)
        raise AttributeError(name)

    def _open_iterators(self) -> List[str]:
        return [loop.iterator for loop in self._stack]

    # -- structure ----------------------------------------------------------------

    @contextmanager
    def loop(self, iterator: str, lower: ExprLike, upper: ExprLike,
             stride: int = 1, extra: Sequence[LinExpr] = (),
             upper_inclusive: bool = False):
        """Open ``for (iterator = lower; iterator < upper; iterator += stride)``.

        ``upper`` is exclusive unless ``upper_inclusive`` is set.  ``extra``
        holds additional affine constraints (asserted ``>= 0``) over the
        iterators in scope, enabling non-rectangular domains.
        """
        if iterator in self._open_iterators():
            raise ValueError(f"iterator {iterator!r} already in scope")
        dims = tuple(self._open_iterators()) + (iterator,)
        var = LinExpr.var(iterator)
        lower_expr = _as_expr(lower)
        upper_expr = _as_expr(upper)
        ineqs = [var - lower_expr]
        if upper_inclusive:
            ineqs.append(upper_expr - var)
        else:
            ineqs.append(upper_expr - var - 1)
        ineqs.extend(extra)
        # Inherit the enclosing domain so the full iteration domain is
        # self-contained (as the paper's L.dom is).
        if self._stack:
            parent = self._stack[-1].domain
            lifted = BasicSet(dims, parent.eqs, parent.ineqs, parent.divs,
                              parent.exists)
            domain = lifted.intersect(BasicSet(dims, ineqs=ineqs))
        else:
            domain = BasicSet(dims, ineqs=ineqs)
        node = LoopNode(iterator, dims, domain, stride=stride)
        self._attach(node)
        self._stack.append(node)
        try:
            yield LinExpr.var(iterator)
        finally:
            self._stack.pop()

    def access(self, array: Array, *subscripts: ExprLike,
               is_write: bool = False,
               guard: Sequence[LinExpr] = ()) -> AccessNode:
        """Emit an access node at the current position.

        ``guard`` lists affine expressions asserted ``>= 0`` that gate the
        access (modelling accesses under conditionals).
        """
        dims = tuple(self._open_iterators())
        domain: Optional[BasicSet] = None
        if guard:
            base = (self._stack[-1].domain if self._stack
                    else BasicSet(dims))
            domain = base.intersect(BasicSet(dims, ineqs=list(guard)))
        self._access_counter += 1
        node = AccessNode(
            array,
            [_as_expr(s) for s in subscripts],
            dims,
            domain=domain,
            is_write=is_write,
            label=f"S{self._access_counter}.{array.name}",
        )
        if node.full_domain is None:
            node.full_domain = (self._stack[-1].domain if self._stack
                                else BasicSet(()))
        self._attach(node)
        return node

    def read(self, array: Array, *subscripts: ExprLike,
             guard: Sequence[LinExpr] = ()) -> AccessNode:
        """Emit a load."""
        return self.access(array, *subscripts, is_write=False, guard=guard)

    def write(self, array: Array, *subscripts: ExprLike,
              guard: Sequence[LinExpr] = ()) -> AccessNode:
        """Emit a store."""
        return self.access(array, *subscripts, is_write=True, guard=guard)

    def _attach(self, node: Union[LoopNode, AccessNode]) -> None:
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self._roots.append(node)

    # -- finalisation ---------------------------------------------------------------

    def build(self) -> Scop:
        """Produce the finished SCoP."""
        if self._stack:
            raise ValueError("build() called with loops still open")
        return Scop(self.name, self.layout, self._roots)

"""Schedule transformations on SCoP trees (tiling, interchange, ...).

Every primitive is *functional*: it takes a :class:`repro.polyhedral.Scop`
and returns a new one, rebuilding fresh :class:`LoopNode`/:class:`AccessNode`
subtrees along the changed paths (untouched sibling subtrees are shared —
nodes are immutable during simulation).  Iteration domains are rebuilt as
plain :class:`repro.isl.BasicSet` conjunctions, so the transformed nests
keep the exact-bounds fast paths of the simulators and stay analysable by
the warping applicability machinery.

Semantics (all primitives preserve the per-array access *multisets*, so
transformed kernels remain differential-testable against the originals):

* :func:`strip_mine` — split one loop into a tile loop (stride ``size *
  stride``) and a point loop; preserves execution order exactly.
* :func:`tile` — strip-mine a perfectly nested chain and hoist the tile
  loops outermost (the classic rectangular tiling); requires the band to
  be permutable.
* :func:`interchange` — swap two adjacent, perfectly nested loops.
* :func:`reverse` — run a loop backwards (``i -> -i`` substitution).
* :func:`fuse` — merge a loop with its next sibling loop (identical
  domains and strides required), concatenating the bodies.
* :func:`distribute` — split a multi-statement loop into one loop per
  child (loop fission).

Targets are named by *iterator*.  A transform applies at **every** site
of the SCoP where its preconditions hold by name (PolyBench kernels
reuse iterator names across sibling nests — ``mvt`` has two ``i``
loops; tiling ``i`` tiles both).  Matching no site at all raises a
typed error (see :mod:`repro.transform.errors`) rather than silently
returning the program unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.isl.affine import LinExpr
from repro.isl.sets import BasicSet, Set
from repro.polyhedral.model import AccessNode, LoopNode, Scop
from repro.transform.errors import (
    IncompatibleLoopsError,
    NotPerfectlyNestedError,
    NotPermutableError,
    TransformError,
    UnknownIteratorError,
    UnsupportedDomainError,
)

Node = Union[LoopNode, AccessNode]


# -- shared helpers ----------------------------------------------------------------


def _require_plain(loop: LoopNode, op: str) -> None:
    if loop.domain.divs or loop.domain.exists:
        raise UnsupportedDomainError(
            f"{op}: loop {loop.iterator!r} has div/existential dims in "
            f"its domain; only plain affine domains are transformable")


def _split_own(domain: BasicSet, iterator: str
               ) -> Tuple[List[LinExpr], List[LinExpr],
                          List[LinExpr], List[LinExpr]]:
    """Partition constraints into (own eqs, own ineqs, rest eqs, rest ineqs).

    "Own" constraints mention ``iterator``; the rest are the enclosing
    constraints inherited from outer loops.
    """
    own_eqs = [e for e in domain.eqs if e.coeff(iterator) != 0]
    own_ineqs = [e for e in domain.ineqs if e.coeff(iterator) != 0]
    rest_eqs = [e for e in domain.eqs if e.coeff(iterator) == 0]
    rest_ineqs = [e for e in domain.ineqs if e.coeff(iterator) == 0]
    return own_eqs, own_ineqs, rest_eqs, rest_ineqs


def _extend_set(bs: BasicSet, new_dims: Tuple[str, ...],
                extra_eqs: Sequence[LinExpr],
                extra_ineqs: Sequence[LinExpr]) -> BasicSet:
    """Re-dimension a set and conjoin extra plain constraints."""
    return BasicSet(new_dims,
                    tuple(bs.eqs) + tuple(extra_eqs),
                    tuple(bs.ineqs) + tuple(extra_ineqs),
                    bs.divs, bs.exists)


def _graft(node: Node, at: int, new_names: Tuple[str, ...],
           extra_eqs: Sequence[LinExpr],
           extra_ineqs: Sequence[LinExpr]) -> Node:
    """Insert dims ``new_names`` at index ``at`` throughout a subtree,
    conjoining the given constraints into every domain."""
    new_dims = node.dims[:at] + new_names + node.dims[at:]
    if isinstance(node, AccessNode):
        domain = None
        if node.domain is not None:
            domain = _extend_set(node.domain, new_dims,
                                 extra_eqs, extra_ineqs)
        rebuilt = AccessNode(node.array, node.subscripts, new_dims,
                             domain=domain, is_write=node.is_write,
                             label=node.label)
        if node.full_domain is not None:
            rebuilt.full_domain = _extend_set(
                node.full_domain, new_dims, extra_eqs, extra_ineqs)
        return rebuilt
    domain = _extend_set(node.domain, new_dims, extra_eqs, extra_ineqs)
    children = [_graft(child, at, new_names, extra_eqs, extra_ineqs)
                for child in node.children]
    return LoopNode(node.iterator, new_dims, domain, children,
                    stride=node.stride)


def _map_dims(node: Node, fn: Callable[[Tuple[str, ...]],
                                       Tuple[str, ...]]) -> Node:
    """Reorder the dims tuples of a subtree (constraints are name-based,
    so only the tuple order changes)."""
    new_dims = fn(node.dims)
    if isinstance(node, AccessNode):
        domain = None
        if node.domain is not None:
            domain = BasicSet(new_dims, node.domain.eqs, node.domain.ineqs,
                              node.domain.divs, node.domain.exists)
        rebuilt = AccessNode(node.array, node.subscripts, new_dims,
                             domain=domain, is_write=node.is_write,
                             label=node.label)
        if node.full_domain is not None:
            rebuilt.full_domain = BasicSet(
                new_dims, node.full_domain.eqs, node.full_domain.ineqs,
                node.full_domain.divs, node.full_domain.exists)
        return rebuilt
    domain = BasicSet(new_dims, node.domain.eqs, node.domain.ineqs,
                      node.domain.divs, node.domain.exists)
    return LoopNode(node.iterator, new_dims, domain,
                    [_map_dims(child, fn) for child in node.children],
                    stride=node.stride)


def _rename_subtree(node: Node, mapping: dict) -> Node:
    """Rename iterator dims throughout a subtree (dims, domains,
    subscripts)."""
    new_dims = tuple(mapping.get(d, d) for d in node.dims)
    if isinstance(node, AccessNode):
        subscripts = tuple(s.rename(mapping) for s in node.subscripts)
        domain = (node.domain.rename_dims(mapping)
                  if node.domain is not None else None)
        rebuilt = AccessNode(node.array, subscripts, new_dims,
                             domain=domain, is_write=node.is_write,
                             label=node.label)
        if node.full_domain is not None:
            rebuilt.full_domain = node.full_domain.rename_dims(mapping)
        return rebuilt
    return LoopNode(mapping.get(node.iterator, node.iterator), new_dims,
                    node.domain.rename_dims(mapping),
                    [_rename_subtree(child, mapping)
                     for child in node.children],
                    stride=node.stride)


def _substitute_subtree(node: Node, bindings: dict) -> Node:
    """Apply an affine substitution to every domain and subscript of a
    subtree (dims names unchanged)."""

    def subst_set(bs: BasicSet) -> BasicSet:
        return BasicSet(
            bs.dims,
            (e.substitute(bindings) for e in bs.eqs),
            (e.substitute(bindings) for e in bs.ineqs),
            ((n, num.substitute(bindings), den)
             for n, num, den in bs.divs),
            bs.exists,
        )

    if isinstance(node, AccessNode):
        subscripts = tuple(s.substitute(bindings)
                           for s in node.subscripts)
        domain = (subst_set(node.domain)
                  if node.domain is not None else None)
        rebuilt = AccessNode(node.array, subscripts, node.dims,
                             domain=domain, is_write=node.is_write,
                             label=node.label)
        if node.full_domain is not None:
            rebuilt.full_domain = subst_set(node.full_domain)
        return rebuilt
    return LoopNode(node.iterator, node.dims, subst_set(node.domain),
                    [_substitute_subtree(child, bindings)
                     for child in node.children],
                    stride=node.stride)


def _subtree_dim_names(node: Node) -> set:
    names = set(node.dims)
    if isinstance(node, LoopNode):
        for child in node.children:
            names |= _subtree_dim_names(child)
    return names


def _tile_name(iterator: str, used: set, explicit: Optional[str]) -> str:
    """The tile-loop iterator for ``iterator`` (``i`` -> ``ii``).

    The default doubled name is extended until unique (``ii`` ->
    ``iii`` -> ...), so multi-level tiling composes through the
    pipeline grammar: ``tile(i,j:32x32); tile(i,j:4x4)`` yields the
    bands ``ii, jj`` and ``iii, jjj``.
    """
    if explicit is not None:
        if not explicit.isidentifier():
            raise TransformError(
                f"invalid tile iterator name {explicit!r}")
        if explicit in used:
            raise TransformError(
                f"tile iterator {explicit!r} for loop {iterator!r} "
                f"collides with an existing dimension")
        return explicit
    name = iterator * 2
    while name in used:
        name += iterator
    return name


def _rewrite_loops(scop: Scop, match: Callable[[LoopNode], bool],
                   rebuild: Callable[[LoopNode], Union[Node, List[Node]]]
                   ) -> Tuple[Scop, int]:
    """Replace every matching loop (outermost match wins; matched
    subtrees are not searched again).  Returns (new scop, match count).
    """
    count = 0

    def walk(children: Sequence[Node]) -> List[Node]:
        nonlocal count
        out: List[Node] = []
        for child in children:
            if isinstance(child, LoopNode):
                if match(child):
                    count += 1
                    replacement = rebuild(child)
                    if isinstance(replacement, list):
                        out.extend(replacement)
                    else:
                        out.append(replacement)
                    continue
                new_children = walk(child.children)
                if any(a is not b for a, b in
                       zip(new_children, child.children)) \
                        or len(new_children) != len(child.children):
                    child = LoopNode(child.iterator, child.dims,
                                     child.domain, new_children,
                                     stride=child.stride)
            out.append(child)
        return out

    roots = walk(scop.roots)
    return Scop(scop.name, scop.layout, roots), count


def _loops_named(scop: Scop, iterator: str) -> List[LoopNode]:
    return [loop for loop in scop.loop_nodes()
            if loop.iterator == iterator]


# -- tiling / strip-mining ----------------------------------------------------------


def tile(scop: Scop, iterators: Sequence[str], sizes: Sequence[int],
         tile_iterators: Optional[Sequence[Optional[str]]] = None) -> Scop:
    """Rectangularly tile a perfectly nested band of loops.

    ``iterators`` names a chain of loops, outermost first, where each
    loop's only child is the next one.  Each loop is strip-mined by the
    corresponding entry of ``sizes`` (a single size broadcasts) and the
    tile loops are hoisted outermost, giving the nest
    ``i1i1, ..., ikik, i1, ..., ik`` (tile iterators default to the
    doubled name: ``i`` -> ``ii``).

    Preconditions (typed errors otherwise): the chain must exist and be
    perfectly nested; the band must be permutable — no domain constraint
    may couple two band iterators (rectangular tiling of e.g. a
    triangular nest would change the iteration domain).
    """
    iterators = list(iterators)
    if not iterators:
        raise TransformError("tile: no iterators given")
    if len(set(iterators)) != len(iterators):
        raise TransformError(f"tile: duplicate iterators {iterators}")
    sizes = list(sizes)
    if len(sizes) == 1:
        sizes = sizes * len(iterators)
    if len(sizes) != len(iterators):
        raise TransformError(
            f"tile: {len(iterators)} iterators but {len(sizes)} sizes")
    for size in sizes:
        if int(size) < 2:
            raise TransformError(
                f"tile: size {size} is not a tile (must be >= 2)")
    sizes = [int(size) for size in sizes]
    explicit = list(tile_iterators) if tile_iterators is not None \
        else [None] * len(iterators)
    if len(explicit) != len(iterators):
        raise TransformError("tile: tile_iterators arity mismatch")

    saw_first = False

    def match(loop: LoopNode) -> bool:
        nonlocal saw_first
        if loop.iterator != iterators[0]:
            return False
        saw_first = True
        return _chain_of(loop, iterators) is not None

    def rebuild(loop: LoopNode) -> LoopNode:
        chain = _chain_of(loop, iterators)
        return _tile_site(chain, iterators, sizes, explicit)

    result, count = _rewrite_loops(scop, match, rebuild)
    if count == 0:
        if saw_first:
            raise NotPerfectlyNestedError(
                f"tile: loops {iterators} are not a perfectly nested "
                f"chain in {scop.name!r}")
        raise UnknownIteratorError(
            f"tile: no loop {iterators[0]!r} in {scop.name!r}")
    return result


def strip_mine(scop: Scop, iterator: str, size: int,
               tile_iterator: Optional[str] = None) -> Scop:
    """Split loop ``iterator`` into a tile loop and a point loop.

    The tile loop steps by ``size * stride`` and the point loop covers
    ``size`` iterations within each tile; execution order is preserved
    exactly.  The tile iterator defaults to the doubled name
    (``i`` -> ``ii``).
    """
    if int(size) < 2:
        raise TransformError(
            f"strip_mine: size {size} is not a tile (must be >= 2)")

    def match(loop: LoopNode) -> bool:
        return loop.iterator == iterator

    def rebuild(loop: LoopNode) -> LoopNode:
        return _tile_site([loop], [iterator], [int(size)],
                          [tile_iterator])

    result, count = _rewrite_loops(scop, match, rebuild)
    if count == 0:
        raise UnknownIteratorError(
            f"strip_mine: no loop {iterator!r} in {scop.name!r}")
    return result


def _chain_of(loop: LoopNode,
              iterators: Sequence[str]) -> Optional[List[LoopNode]]:
    """The perfectly nested loop chain named by ``iterators``, or None."""
    chain = [loop]
    for name in iterators[1:]:
        last = chain[-1]
        if (len(last.children) == 1
                and isinstance(last.children[0], LoopNode)
                and last.children[0].iterator == name):
            chain.append(last.children[0])
        else:
            return None
    return chain


def _tile_site(chain: List[LoopNode], iterators: List[str],
               sizes: List[int],
               explicit: List[Optional[str]]) -> LoopNode:
    """Build the tiled replacement for one perfectly nested chain."""
    base_loop = chain[0]
    prefix_dims = base_loop.dims[:-1]
    base = len(prefix_dims)
    k = len(chain)
    used = _subtree_dim_names(base_loop)
    names: List[str] = []
    for iterator, name in zip(iterators, explicit):
        picked = _tile_name(iterator, used, name)
        used.add(picked)
        names.append(picked)

    spans = []
    own_eqs: List[List[LinExpr]] = []
    own_ineqs: List[List[LinExpr]] = []
    for m, loop in enumerate(chain):
        _require_plain(loop, "tile")
        spans.append(sizes[m] * loop.stride)
        eqs, ineqs, _, _ = _split_own(loop.domain, iterators[m])
        # Permutability: hoisting this loop's tile loop above the outer
        # point loops requires its bounds not to involve them.
        for expr in eqs + ineqs:
            for j in range(m):
                if expr.coeff(iterators[j]) != 0:
                    raise NotPermutableError(
                        f"tile: bound {expr} >= 0 of loop "
                        f"{iterators[m]!r} involves {iterators[j]!r}; "
                        f"the band is not permutable (rectangular "
                        f"tiling would change the iteration domain)")
        own_eqs.append(eqs)
        own_ineqs.append(ineqs)

    renames = [{iterators[m]: names[m]} for m in range(k)]
    couplings = []
    for m in range(k):
        point = LinExpr.var(iterators[m])
        tile_var = LinExpr.var(names[m])
        couplings.append([point - tile_var,
                          tile_var - point + (spans[m] - 1)])

    # Rebuild the body: insert the tile dims, conjoin every tile-loop
    # bound and coupling so descendant domains stay self-contained (the
    # warping analyses rely on full_domain describing the executed set).
    extra_eqs = [e.rename(renames[m])
                 for m in range(k) for e in own_eqs[m]]
    extra_ineqs = ([e.rename(renames[m])
                    for m in range(k) for e in own_ineqs[m]]
                   + [c for pair in couplings for c in pair])
    body = [_graft(child, base, tuple(names), extra_eqs, extra_ineqs)
            for child in chain[-1].children]

    # Point loops, innermost out.
    _, _, enc_eqs, enc_ineqs = _split_own(base_loop.domain, iterators[0])
    cur_eqs = list(enc_eqs) + [e.rename(renames[m])
                               for m in range(k) for e in own_eqs[m]]
    cur_ineqs = list(enc_ineqs) + [e.rename(renames[m])
                                   for m in range(k)
                                   for e in own_ineqs[m]]
    point_dims = prefix_dims + tuple(names)
    point_constraints: List[Tuple[Tuple[str, ...], List[LinExpr],
                                  List[LinExpr]]] = []
    for m in range(k):
        point_dims = point_dims + (iterators[m],)
        cur_eqs = cur_eqs + own_eqs[m]
        cur_ineqs = cur_ineqs + own_ineqs[m] + couplings[m]
        point_constraints.append((point_dims, list(cur_eqs),
                                  list(cur_ineqs)))
    node: Node = None
    for m in reversed(range(k)):
        dims, eqs, ineqs = point_constraints[m]
        children = body if m == k - 1 else [node]
        node = LoopNode(iterators[m], dims, BasicSet(dims, eqs, ineqs),
                        children, stride=chain[m].stride)

    # Tile loops, innermost out.
    tile_dims = prefix_dims
    cur_eqs = list(enc_eqs)
    cur_ineqs = list(enc_ineqs)
    tile_constraints = []
    for m in range(k):
        tile_dims = tile_dims + (names[m],)
        cur_eqs = cur_eqs + [e.rename(renames[m]) for e in own_eqs[m]]
        cur_ineqs = cur_ineqs + [e.rename(renames[m])
                                 for e in own_ineqs[m]]
        tile_constraints.append((tile_dims, list(cur_eqs),
                                 list(cur_ineqs)))
    for m in reversed(range(k)):
        dims, eqs, ineqs = tile_constraints[m]
        node = LoopNode(names[m], dims, BasicSet(dims, eqs, ineqs),
                        [node], stride=spans[m])
    return node


# -- interchange --------------------------------------------------------------------


def interchange(scop: Scop, outer: str, inner: str) -> Scop:
    """Swap two adjacent, perfectly nested loops.

    ``outer`` must be a loop whose only child is the loop ``inner``;
    after the transform ``inner`` encloses ``outer``.  Raises
    :class:`NotPermutableError` when a domain constraint couples the two
    iterators (the swap would change the iteration domain).
    """
    if outer == inner:
        raise TransformError("interchange: iterators must differ")
    saw_outer = False

    def match(loop: LoopNode) -> bool:
        nonlocal saw_outer
        if loop.iterator != outer:
            return False
        saw_outer = True
        return (len(loop.children) == 1
                and isinstance(loop.children[0], LoopNode)
                and loop.children[0].iterator == inner)

    def rebuild(loop: LoopNode) -> LoopNode:
        return _interchange_site(loop)

    def _interchange_site(outer_loop: LoopNode) -> LoopNode:
        inner_loop = outer_loop.children[0]
        _require_plain(outer_loop, "interchange")
        _require_plain(inner_loop, "interchange")
        for expr in list(inner_loop.domain.eqs) + \
                list(inner_loop.domain.ineqs):
            if expr.coeff(outer) != 0 and expr.coeff(inner) != 0:
                raise NotPermutableError(
                    f"interchange: constraint {expr} >= 0 couples "
                    f"{outer!r} and {inner!r}; the loops are not "
                    f"permutable")
        p = outer_loop.depth - 1
        new_outer_dims = outer_loop.dims[:-1] + (inner,)
        keep_eqs = [e for e in inner_loop.domain.eqs
                    if e.coeff(outer) == 0]
        keep_ineqs = [e for e in inner_loop.domain.ineqs
                      if e.coeff(outer) == 0]
        new_inner_dims = new_outer_dims + (outer,)

        def swap(dims: Tuple[str, ...]) -> Tuple[str, ...]:
            return dims[:p] + (dims[p + 1], dims[p]) + dims[p + 2:]

        children = [_map_dims(child, swap)
                    for child in inner_loop.children]
        new_inner = LoopNode(
            outer, new_inner_dims,
            BasicSet(new_inner_dims, inner_loop.domain.eqs,
                     inner_loop.domain.ineqs),
            children, stride=outer_loop.stride)
        return LoopNode(
            inner, new_outer_dims,
            BasicSet(new_outer_dims, keep_eqs, keep_ineqs),
            [new_inner], stride=inner_loop.stride)

    result, count = _rewrite_loops(scop, match, rebuild)
    if count == 0:
        if saw_outer:
            raise NotPerfectlyNestedError(
                f"interchange: no loop {inner!r} immediately (and "
                f"solely) inside {outer!r} in {scop.name!r}")
        raise UnknownIteratorError(
            f"interchange: no loop {outer!r} in {scop.name!r}")
    return result


# -- reversal -----------------------------------------------------------------------


def reverse(scop: Scop, iterator: str) -> Scop:
    """Run loop ``iterator`` backwards.

    Implemented as the substitution ``i -> -i`` on every domain and
    subscript of the subtree (the standard polyhedral normalisation),
    so the loop still enumerates ascending but visits the original
    iterations in reverse order.  Requires stride 1.
    """

    def match(loop: LoopNode) -> bool:
        return loop.iterator == iterator

    def rebuild(loop: LoopNode) -> LoopNode:
        _require_plain(loop, "reverse")
        if loop.stride != 1:
            raise TransformError(
                f"reverse: loop {iterator!r} has stride {loop.stride}; "
                f"only stride-1 loops are reversible")
        return _substitute_subtree(
            loop, {iterator: LinExpr.var(iterator, -1)})

    result, count = _rewrite_loops(scop, match, rebuild)
    if count == 0:
        raise UnknownIteratorError(
            f"reverse: no loop {iterator!r} in {scop.name!r}")
    return result


# -- fusion / distribution ----------------------------------------------------------


def fuse(scop: Scop, iterator: str) -> Scop:
    """Fuse loop ``iterator`` with its next sibling loop.

    The sibling's iterator is renamed to ``iterator`` if it differs.
    Preconditions: the loops are adjacent siblings with equal strides
    and identical iteration domains (checked exactly via set
    difference).  Pairs fuse left to right; run the transform again to
    fuse further siblings into the result.
    """
    matched = 0
    saw = False

    def walk(children: Sequence[Node]) -> List[Node]:
        nonlocal matched, saw
        out: List[Node] = []
        index = 0
        while index < len(children):
            child = children[index]
            if isinstance(child, LoopNode) and child.iterator == iterator:
                saw = True
                nxt = (children[index + 1]
                       if index + 1 < len(children) else None)
                if isinstance(nxt, LoopNode):
                    out.append(_fuse_pair(child, nxt))
                    matched += 1
                    index += 2
                    continue
            if isinstance(child, LoopNode):
                new_children = walk(child.children)
                if any(a is not b for a, b in
                       zip(new_children, child.children)) \
                        or len(new_children) != len(child.children):
                    child = LoopNode(child.iterator, child.dims,
                                     child.domain, new_children,
                                     stride=child.stride)
            out.append(child)
            index += 1
        return out

    def _fuse_pair(first: LoopNode, second: LoopNode) -> LoopNode:
        _require_plain(first, "fuse")
        _require_plain(second, "fuse")
        if first.stride != second.stride:
            raise IncompatibleLoopsError(
                f"fuse: strides differ ({first.stride} vs "
                f"{second.stride})")
        if second.iterator != iterator:
            captured = _subtree_dim_names(second) - set(second.dims[:-1])
            if iterator in captured:
                raise IncompatibleLoopsError(
                    f"fuse: renaming {second.iterator!r} to "
                    f"{iterator!r} would capture an inner dimension")
            second = _rename_subtree(second, {second.iterator: iterator})
        if first.dims != second.dims:
            raise IncompatibleLoopsError(
                f"fuse: loops live under different nests "
                f"({first.dims} vs {second.dims})")
        d1 = Set.from_basic(first.domain)
        d2 = Set.from_basic(second.domain)
        if not d1.subtract(d2).is_empty() \
                or not d2.subtract(d1).is_empty():
            raise IncompatibleLoopsError(
                f"fuse: the domains of the two {iterator!r} loops "
                f"differ; fusion would change the iteration counts")
        return LoopNode(iterator, first.dims, first.domain,
                        first.children + second.children,
                        stride=first.stride)

    roots = walk(scop.roots)
    if matched == 0:
        if saw:
            raise IncompatibleLoopsError(
                f"fuse: no loop {iterator!r} in {scop.name!r} has an "
                f"adjacent sibling loop to fuse with")
        raise UnknownIteratorError(
            f"fuse: no loop {iterator!r} in {scop.name!r}")
    return Scop(scop.name, scop.layout, roots)


def distribute(scop: Scop, iterator: str) -> Scop:
    """Split loop ``iterator`` into one loop per child (loop fission).

    Loops that already have a single child are left unchanged; the
    transform errors only when ``iterator`` names no loop at all.
    """
    if not _loops_named(scop, iterator):
        raise UnknownIteratorError(
            f"distribute: no loop {iterator!r} in {scop.name!r}")

    def match(loop: LoopNode) -> bool:
        return loop.iterator == iterator and len(loop.children) > 1

    def rebuild(loop: LoopNode) -> List[Node]:
        return [LoopNode(loop.iterator, loop.dims, loop.domain, [child],
                         stride=loop.stride)
                for child in loop.children]

    result, _ = _rewrite_loops(scop, match, rebuild)
    return result

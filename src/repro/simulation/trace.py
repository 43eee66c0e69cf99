"""Memory-trace generation from SCoPs.

Used by the trace-driven baseline (Dinero-style) and the analytical
baselines (HayStack/PolyCache-style), which consume explicit address
streams rather than walking the SCoP tree.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from repro.polyhedral.model import AccessNode, LoopNode, Scop

TraceEntry = Tuple[int, bool]  # (memory block, is_write)


def iter_trace(scop: Scop, block_size: int) -> Iterator[TraceEntry]:
    """Yield the SCoP's accesses as (block, is_write), in program order."""
    for root in scop.roots:
        yield from _walk(root, (), block_size)


def materialize_trace(scop: Scop, block_size: int) -> List[TraceEntry]:
    """The full trace as a list (the Dinero-style workflow)."""
    return list(iter_trace(scop, block_size))


def _walk(node: Union[LoopNode, AccessNode], prefix: Tuple[int, ...],
          block_size: int) -> Iterator[TraceEntry]:
    if isinstance(node, AccessNode):
        if node.in_domain(prefix):
            yield node.addr_at(prefix) // block_size, node.is_write
        return
    bounds = node.bounds_at(prefix)
    if bounds is None:
        return
    lo, hi = bounds
    check_domain = not node._bounds_exact
    for value in range(lo, hi + 1, node.stride):
        point = prefix + (value,)
        if check_domain and not node.in_domain(point):
            continue
        for child in node.children:
            yield from _walk(child, point, block_size)

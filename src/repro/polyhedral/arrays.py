"""Arrays, memory layout and linearisation.

``linearize`` (paper Sec. 3.2) turns an array reference ``A[e1]...[en]``
into an affine byte-address expression; ``block`` then maps addresses to
memory blocks by flooring with the cache block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.isl.affine import LinExpr


@dataclass(frozen=True)
class Array:
    """A (multi-dimensional, row-major) array.

    Attributes:
        name: identifier of the array.
        extents: size of each dimension (e.g. ``(1024, 1024)``).
        element_size: bytes per element (8 for C doubles).
        base: byte address of element (0, ..., 0); assigned by
            :class:`MemoryLayout`.
    """

    name: str
    extents: Tuple[int, ...]
    element_size: int = 8
    base: int = 0

    @property
    def num_elements(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.element_size

    def linearize(self, subscripts: Sequence[LinExpr]) -> LinExpr:
        """Affine byte address of ``self[subscripts...]`` (row-major)."""
        if len(subscripts) != len(self.extents):
            raise ValueError(
                f"{self.name}: expected {len(self.extents)} subscripts, "
                f"got {len(subscripts)}"
            )
        addr = LinExpr.const(self.base)
        stride = self.element_size
        # Row-major: last subscript has stride element_size.
        strides: List[int] = []
        for extent in reversed(self.extents):
            strides.append(stride)
            stride *= extent
        strides.reverse()
        for expr, dim_stride in zip(subscripts, strides):
            addr = addr + expr * dim_stride
        return addr


class MemoryLayout:
    """Assigns disjoint, block-aligned base addresses to arrays.

    Mirrors what a C compiler/allocator does for PolyBench's
    statically-allocated arrays: arrays are laid out in declaration
    order, each aligned to the cache block size (PolyBench allocates
    with ``posix_memalign``-style alignment).
    """

    def __init__(self, alignment: int = 64):
        self.alignment = alignment
        self._arrays: Dict[str, Array] = {}
        self._next_base = 0

    def add(self, name: str, extents: Sequence[int],
            element_size: int = 8) -> Array:
        """Declare an array and assign its base address."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already declared")
        array = Array(name, tuple(extents), element_size, self._next_base)
        self._arrays[name] = array
        size = array.size_bytes
        aligned = (size + self.alignment - 1) // self.alignment * self.alignment
        self._next_base += aligned
        return array

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def arrays(self) -> Dict[str, Array]:
        return dict(self._arrays)

    @property
    def total_bytes(self) -> int:
        return self._next_base

    def __repr__(self) -> str:
        return f"MemoryLayout({list(self._arrays)}, {self._next_base} bytes)"

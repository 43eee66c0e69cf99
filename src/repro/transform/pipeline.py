"""Composable transformation pipelines with a string/JSON spec grammar.

A pipeline is a sequence of transformation steps applied left to right::

    tile(i,j:32x32); interchange(jj,i); reverse(k)

Grammar (whitespace-insensitive, statements separated by ``;``)::

    pipeline    := stmt (';' stmt)*
    stmt        := 'tile'        '(' iters ':' sizes ')'
                 | 'strip_mine'  '(' iter ':' size ')'
                 | 'interchange' '(' iter ',' iter ')'
                 | 'reverse'     '(' iter ')'
                 | 'fuse'        '(' iter ')'
                 | 'distribute'  '(' iter ')'
    iters       := iter (',' iter)*
    sizes       := size ('x' size)*      -- one size broadcasts

The same pipelines serialise to/from JSON as a list of step objects,
e.g. ``[{"op": "tile", "iterators": ["i", "j"], "sizes": [32, 32]}]``.

:meth:`Pipeline.spec` renders the *canonical* spec string (fixed
spacing, canonical op names), which is what content-addressed sweep
points store — two spellings of the same pipeline hash identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.polyhedral.model import Scop
from repro.transform.errors import PipelineSyntaxError

_CALL = re.compile(r"^([A-Za-z_][\w-]*)\s*\(\s*(.*?)\s*\)$")
_IDENT = re.compile(r"^[A-Za-z_]\w*$")

_ALIASES = {
    "tile": "tile",
    "strip_mine": "strip_mine",
    "stripmine": "strip_mine",
    "strip-mine": "strip_mine",
    "interchange": "interchange",
    "swap": "interchange",
    "reverse": "reverse",
    "fuse": "fuse",
    "distribute": "distribute",
    "fission": "distribute",
}

#: ops whose canonical spec carries a ``:sizes`` suffix
_SIZED_OPS = ("tile", "strip_mine")

#: op -> (min iterators, max iterators); None means unbounded
_ARITY = {
    "tile": (1, None),
    "strip_mine": (1, 1),
    "interchange": (2, 2),
    "reverse": (1, 1),
    "fuse": (1, 1),
    "distribute": (1, 1),
}


@dataclass(frozen=True)
class TransformStep:
    """One transformation: an op, target iterators and optional sizes.

    >>> from repro import TransformStep
    >>> TransformStep("tile", ("i", "j"), (32,)).spec()
    'tile(i,j:32x32)'
    >>> TransformStep("interchange", ("i", "j")).spec()
    'interchange(i,j)'
    """

    op: str
    iterators: Tuple[str, ...]
    sizes: Tuple[int, ...] = ()

    def __post_init__(self):
        op = _ALIASES.get(str(self.op).lower())
        if op is None:
            raise PipelineSyntaxError(
                f"unknown transform {self.op!r}; known: "
                f"{sorted(set(_ALIASES.values()))}")
        object.__setattr__(self, "op", op)
        iterators = tuple(str(it) for it in self.iterators)
        for name in iterators:
            if not _IDENT.match(name):
                raise PipelineSyntaxError(
                    f"{op}: invalid iterator name {name!r}")
        object.__setattr__(self, "iterators", iterators)
        lo, hi = _ARITY[op]
        if len(iterators) < lo or (hi is not None
                                   and len(iterators) > hi):
            expected = str(lo) if hi == lo else (
                f"{lo}+" if hi is None else f"{lo}..{hi}")
            raise PipelineSyntaxError(
                f"{op}: expected {expected} iterator(s), got "
                f"{len(iterators)}")
        sizes = tuple(int(size) for size in self.sizes)
        if op in _SIZED_OPS:
            if not sizes:
                raise PipelineSyntaxError(f"{op}: missing sizes")
            if len(sizes) == 1:
                sizes = sizes * len(iterators)
            if len(sizes) != len(iterators):
                raise PipelineSyntaxError(
                    f"{op}: {len(iterators)} iterator(s) but "
                    f"{len(sizes)} size(s)")
            if any(size < 2 for size in sizes):
                raise PipelineSyntaxError(
                    f"{op}: sizes must be >= 2, got {sizes}")
        elif sizes:
            raise PipelineSyntaxError(f"{op} takes no sizes")
        object.__setattr__(self, "sizes", sizes)

    def spec(self) -> str:
        """Canonical spec-string form of the step."""
        args = ",".join(self.iterators)
        if self.op in _SIZED_OPS:
            args += ":" + "x".join(str(size) for size in self.sizes)
        return f"{self.op}({args})"

    def apply(self, scop: Scop) -> Scop:
        # Imported here: parsing and canonicalising specs (every sweep
        # point does) needs no primitive.
        from repro.transform import primitives

        if self.op == "tile":
            return primitives.tile(scop, self.iterators, self.sizes)
        if self.op == "strip_mine":
            return primitives.strip_mine(scop, self.iterators[0],
                                         self.sizes[0])
        if self.op == "interchange":
            return primitives.interchange(scop, *self.iterators)
        if self.op == "reverse":
            return primitives.reverse(scop, self.iterators[0])
        if self.op == "fuse":
            return primitives.fuse(scop, self.iterators[0])
        return primitives.distribute(scop, self.iterators[0])

    def to_dict(self) -> dict:
        payload = {"op": self.op, "iterators": list(self.iterators)}
        if self.sizes:
            payload["sizes"] = list(self.sizes)
        return payload

    @staticmethod
    def from_dict(data: dict) -> "TransformStep":
        unknown = set(data) - {"op", "iterators", "sizes"}
        if unknown:
            raise PipelineSyntaxError(
                f"unknown step fields {sorted(unknown)}")
        try:
            return TransformStep(data["op"],
                                 tuple(data.get("iterators", ())),
                                 tuple(data.get("sizes", ())))
        except KeyError as exc:
            raise PipelineSyntaxError(
                f"transform step needs an {exc.args[0]!r} field"
            ) from None

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class Pipeline:
    """An ordered sequence of :class:`TransformStep`.

    >>> from repro import Pipeline
    >>> pipeline = Pipeline.parse("tile(i,j:8x8);  interchange(jj, i)")
    >>> pipeline.spec()                      # canonical form
    'tile(i,j:8x8); interchange(jj,i)'
    >>> len(pipeline)
    2
    """

    steps: Tuple[TransformStep, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @staticmethod
    def parse(text: str) -> "Pipeline":
        """Parse the spec grammar (raises :class:`PipelineSyntaxError`)."""
        steps: List[TransformStep] = []
        for raw in str(text).split(";"):
            stmt = raw.strip()
            if not stmt:
                continue
            match = _CALL.match(stmt)
            if not match:
                raise PipelineSyntaxError(
                    f"cannot parse transform {stmt!r}; expected "
                    f"op(args), e.g. tile(i,j:32x32)")
            op, args = match.group(1), match.group(2)
            steps.append(_parse_step(op, args, stmt))
        return Pipeline(tuple(steps))

    @staticmethod
    def from_json(data) -> "Pipeline":
        """Build a pipeline from a spec string, a step list, a single
        step dict, or a pipeline (idempotent)."""
        if isinstance(data, Pipeline):
            return data
        if isinstance(data, str):
            return Pipeline.parse(data)
        if isinstance(data, dict):
            data = [data]
        if isinstance(data, (list, tuple)):
            return Pipeline(tuple(
                step if isinstance(step, TransformStep)
                else TransformStep.from_dict(step)
                if isinstance(step, dict)
                else _reject_step(step)
                for step in data))
        raise PipelineSyntaxError(
            f"cannot build a pipeline from {type(data).__name__}")

    def spec(self) -> str:
        """Canonical spec string (stable across spellings)."""
        return "; ".join(step.spec() for step in self.steps)

    def to_json(self) -> list:
        return [step.to_dict() for step in self.steps]

    def apply(self, scop: Scop) -> Scop:
        """Apply every step in order, returning the transformed SCoP."""
        for step in self.steps:
            scop = step.apply(scop)
        return scop

    def __bool__(self) -> bool:
        return bool(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __str__(self) -> str:
        return self.spec()


def _reject_step(step) -> TransformStep:
    raise PipelineSyntaxError(
        f"pipeline steps must be dicts or TransformSteps, got "
        f"{type(step).__name__}")


def _parse_step(op: str, args: str, stmt: str) -> TransformStep:
    canonical = _ALIASES.get(op.lower())
    if canonical is None:
        raise PipelineSyntaxError(
            f"unknown transform {op!r} in {stmt!r}; known: "
            f"{sorted(set(_ALIASES.values()))}")
    sizes: Tuple[int, ...] = ()
    if canonical in _SIZED_OPS:
        if ":" not in args:
            raise PipelineSyntaxError(
                f"{canonical}: missing ':sizes' in {stmt!r} "
                f"(e.g. {canonical}(i,j:32x32))")
        iter_part, _, size_part = args.partition(":")
        try:
            sizes = tuple(int(chunk.strip())
                          for chunk in size_part.split("x") if chunk.strip())
        except ValueError:
            raise PipelineSyntaxError(
                f"{canonical}: malformed sizes {size_part!r} in "
                f"{stmt!r}") from None
        if not sizes:
            raise PipelineSyntaxError(
                f"{canonical}: empty sizes in {stmt!r}")
    else:
        if ":" in args:
            raise PipelineSyntaxError(
                f"{canonical} takes no sizes (in {stmt!r})")
        iter_part = args
    iterators = tuple(chunk.strip() for chunk in iter_part.split(",")
                      if chunk.strip())
    if not iterators:
        raise PipelineSyntaxError(f"no iterators in {stmt!r}")
    return TransformStep(canonical, iterators, sizes)


PipelineLike = Union[None, str, Pipeline, Sequence, dict]


def as_pipeline(transform: PipelineLike) -> Optional[Pipeline]:
    """Coerce a transform argument to a :class:`Pipeline` (or None).

    Accepts None / "" (no transform), a spec string, a JSON step list,
    a single step dict, or an existing pipeline.
    """
    if transform is None or transform == "" or transform == []:
        return None
    pipeline = Pipeline.from_json(transform)
    return pipeline if pipeline else None


def apply_pipeline(scop: Scop, transform: PipelineLike) -> Scop:
    """Apply a transform (in any accepted form) to a SCoP.

    Transformations reorder iterations but never add or drop accesses:

    >>> from repro import apply_pipeline, build_kernel
    >>> scop = build_kernel("mvt", "MINI")
    >>> tiled = apply_pipeline(scop, "tile(i,j:8x8)")
    >>> tiled.count_accesses() == scop.count_accesses()
    True
    """
    pipeline = as_pipeline(transform)
    if pipeline is None:
        return scop
    return pipeline.apply(scop)


def canonical_spec(transform: PipelineLike) -> str:
    """The canonical spec string of a transform ("" when empty)."""
    pipeline = as_pipeline(transform)
    return pipeline.spec() if pipeline is not None else ""

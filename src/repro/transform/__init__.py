"""repro.transform — polyhedral schedule transformations.

Rewrites SCoP trees under the classic loop transformations (tiling,
interchange, reversal, fusion, distribution), with legality checked
against the iteration domains and typed errors on violation.  The
:class:`Pipeline` layer composes transformations and parses the
string/JSON spec grammar used by the CLI, the kernel registry and the
sweep engine::

    from repro.transform import apply_pipeline
    from repro.polybench import build_kernel

    tiled = apply_pipeline(build_kernel("mvt", "MINI"),
                           "tile(i,j:32x32)")
    # or directly:  build_kernel("mvt", "MINI", transform="tile(i,j:32x32)")

All transformations preserve per-array access counts; tiling and
interchange additionally require the affected band to be permutable
(otherwise :class:`NotPermutableError`), so the transformed schedule
performs exactly the original accesses in the new order.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transform.errors": ("IncompatibleLoopsError",
                               "NotPerfectlyNestedError",
                               "NotPermutableError", "PipelineSyntaxError",
                               "TransformError", "UnknownIteratorError",
                               "UnsupportedDomainError"),
    "repro.transform.pipeline": ("Pipeline", "TransformStep",
                                 "apply_pipeline", "as_pipeline",
                                 "canonical_spec"),
    "repro.transform.primitives": ("distribute", "fuse", "interchange",
                                   "reverse", "strip_mine", "tile"),
    "repro.transform.render": ("render_scop",),
})

__all__ = [
    "IncompatibleLoopsError",
    "NotPerfectlyNestedError",
    "NotPermutableError",
    "Pipeline",
    "PipelineSyntaxError",
    "TransformError",
    "TransformStep",
    "UnknownIteratorError",
    "UnsupportedDomainError",
    "apply_pipeline",
    "as_pipeline",
    "canonical_spec",
    "distribute",
    "fuse",
    "interchange",
    "render_scop",
    "reverse",
    "strip_mine",
    "tile",
]

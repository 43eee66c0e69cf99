"""Import shim for the benchmark's cache reset.

The cross-run warp-analysis memo (``WarpMemo``) that lived here is
gone: the canonical decision cache of :mod:`repro.isl.sets` answers the
same queries.  ``perfbench/measure.py`` still imports
:func:`global_memo` and calls ``.clear()`` before every timed run; that
import is this module's only reason to exist, and it goes when the
benchmark drops it.
"""


class _NoMemo:
    def clear(self) -> None:
        pass


def global_memo() -> _NoMemo:
    """An object whose ``clear()`` does nothing."""
    return _NoMemo()

"""A mini-C frontend for SCoPs (substitute for pet, see docs/frontend.md).

Parses the static-control subset of C that PolyBench-style kernels use —
array declarations, affine ``for`` nests, affine ``if`` guards, and
assignment statements over array references — and lowers it to the
polyhedral SCoP representation of :mod:`repro.polyhedral`.

Example::

    from repro.frontend import parse_scop

    scop = parse_scop('''
        double A[1000]; double B[1000];
        for (int i = 1; i < 999; i++)
            B[i-1] = A[i-1] + A[i];
    ''', name="stencil1d")

Deliberate restrictions (checked, with clear errors): loop bounds, guard
conditions and subscripts must be affine in the surrounding iterators;
strides must be positive constants; scalar variables are treated as
register-resident (no memory traffic), matching the paper's handling of
array-only accesses.
"""

from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.parser import ParseError, parse_program
from repro.frontend.lowering import lower_program, parse_scop

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "ParseError",
    "parse_program",
    "lower_program",
    "parse_scop",
]

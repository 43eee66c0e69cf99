"""A pure-Python Presburger-lite integer set library.

This subpackage is the reproduction's substitute for isl, the Integer Set
Library used by the paper.  It implements exactly the slice of isl that
warping cache simulation needs:

* exact affine expressions over named dimensions (:mod:`repro.isl.affine`),
* exact rational simplex and branch-and-bound ILP with answer
  certificates (:mod:`repro.isl.ilp`),
* a dependency-free certificate verifier (:mod:`repro.isl.certify`),
* quantified basic sets and finite unions with intersection, subtraction,
  emptiness, sampling and lexicographic optimisation (:mod:`repro.isl.sets`).

All arithmetic is performed over :class:`int` / :class:`fractions.Fraction`,
so every answer is exact; there is no floating-point error anywhere in the
decision procedures.  Wrap any code in :func:`verification` to have the
verifier check the certificate of every solve as it happens.
"""

from repro.isl.affine import LinExpr
from repro.isl.certify import (
    BranchCertificate,
    CertificateError,
    FarkasCertificate,
    PrimalCertificate,
    verify_result,
)
from repro.isl.ilp import (
    IlpProblem,
    IlpStatus,
    IlpResult,
    verification,
    verification_enabled,
)
from repro.isl.sets import (
    BasicSet,
    Set,
    clear_decision_cache,
    decision_cache_size,
)

__all__ = [
    "LinExpr",
    "IlpProblem",
    "IlpStatus",
    "IlpResult",
    "BasicSet",
    "Set",
    "BranchCertificate",
    "CertificateError",
    "FarkasCertificate",
    "PrimalCertificate",
    "clear_decision_cache",
    "decision_cache_size",
    "verification",
    "verification_enabled",
    "verify_result",
]

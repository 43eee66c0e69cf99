"""Certificate verifier and certified-solver tests.

The verifier in :mod:`repro.isl.certify` is dependency-free, so it
doubles as a correctness oracle for the simplex/branch-and-bound core:
these tests check the verifier itself against hand-built valid and
adversarial certificates, then run the solver with verification on and
confirm that every answer it produces carries a checkable proof.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.isl import ilp
from repro.isl.affine import LinExpr
from repro.isl.certify import (
    BranchCertificate,
    CertificateError,
    FarkasCertificate,
    PrimalCertificate,
    verify_farkas,
    verify_infeasibility,
    verify_point,
    verify_result,
)
from repro.isl.ilp import IlpProblem, IlpStatus, _Tableau


def x(name, coeff=1):
    return LinExpr.var(name, coeff)


# -- verifier units ------------------------------------------------------------


class TestVerifyPoint:
    GE = [x("a") - 2, -x("a") + 5]          # 2 <= a <= 5
    EQ = [x("a") - x("b")]                  # a == b

    def test_valid_point_passes(self):
        verify_point(self.GE, self.EQ,
                     PrimalCertificate({"a": Fraction(3), "b": Fraction(3)}))

    def test_violated_inequality_rejected(self):
        with pytest.raises(CertificateError, match="violates constraint"):
            verify_point(self.GE, self.EQ,
                         PrimalCertificate({"a": Fraction(1),
                                            "b": Fraction(1)}))

    def test_violated_equality_rejected(self):
        with pytest.raises(CertificateError, match="equality"):
            verify_point(self.GE, self.EQ,
                         PrimalCertificate({"a": Fraction(3),
                                            "b": Fraction(4)}))

    def test_missing_variable_rejected(self):
        with pytest.raises(CertificateError, match="misses variable"):
            verify_point(self.GE, self.EQ,
                         PrimalCertificate({"a": Fraction(3)}))

    def test_fractional_point_rejected_when_integral(self):
        cert = PrimalCertificate({"a": Fraction(5, 2), "b": Fraction(5, 2)})
        verify_point(self.GE, self.EQ, cert)  # fine as a rational point
        with pytest.raises(CertificateError, match="integer point"):
            verify_point(self.GE, self.EQ, cert, integral=True)


class TestVerifyFarkas:
    # x >= 3 and x <= 1: adding the rows with multipliers (1, 1)
    # yields 0*x - 2 >= 0, a contradiction.
    GE = [x("x") - 3, -x("x") + 1]

    def test_valid_multipliers_pass(self):
        verify_farkas(self.GE, [],
                      FarkasCertificate((Fraction(1), Fraction(1)), ()))

    def test_negative_multiplier_rejected(self):
        with pytest.raises(CertificateError, match="negative"):
            verify_farkas(self.GE, [],
                          FarkasCertificate((Fraction(-1), Fraction(-1)),
                                            ()))

    def test_non_cancelling_combination_rejected(self):
        with pytest.raises(CertificateError, match="cancel"):
            verify_farkas(self.GE, [],
                          FarkasCertificate((Fraction(2), Fraction(1)), ()))

    def test_nonnegative_constant_rejected(self):
        # On a feasible pair of constraints no multipliers work; the
        # zero combination in particular proves nothing.
        with pytest.raises(CertificateError, match="not\\s+negative"):
            verify_farkas([x("x"), -x("x") + 4], [],
                          FarkasCertificate((Fraction(0), Fraction(0)), ()))

    def test_multiplier_count_mismatch_rejected(self):
        with pytest.raises(CertificateError, match="multipliers"):
            verify_farkas(self.GE, [], FarkasCertificate((Fraction(1),), ()))

    def test_equality_multipliers_may_be_negative(self):
        # x == 2 and x >= 3: (-1) * (x - 2) + 1 * (x - 3) == -1 < 0.
        verify_farkas([x("x") - 3], [x("x") - 2],
                      FarkasCertificate((Fraction(1),), (Fraction(-1),)))


class TestVerifyBranchTree:
    # 2x == 1 has the rational solution 1/2 but no integer one:
    # branch on x at 0; x <= 0 and x >= 1 both contradict 2x == 1.
    EQ = [x("x", 2) - 1]

    def tree(self):
        left = FarkasCertificate((Fraction(2),), (Fraction(1),))
        right = FarkasCertificate((Fraction(2),), (Fraction(-1),))
        return BranchCertificate("x", 0, left, right)

    def test_valid_tree_passes(self):
        verify_infeasibility([], self.EQ, self.tree())

    def test_tampered_leaf_rejected(self):
        bad = BranchCertificate("x", 0,
                                FarkasCertificate((Fraction(0),),
                                                  (Fraction(0),)),
                                self.tree().right)
        with pytest.raises(CertificateError):
            verify_infeasibility([], self.EQ, bad)

    def test_wrong_branch_variable_rejected(self):
        bad = BranchCertificate("y", 0, self.tree().left,
                                self.tree().right)
        with pytest.raises(CertificateError):
            verify_infeasibility([], self.EQ, bad)

    def test_unknown_certificate_type_rejected(self):
        with pytest.raises(CertificateError, match="unknown certificate"):
            verify_infeasibility([], self.EQ, object())


class TestVerifyResult:
    def test_missing_certificate_rejected(self):
        with pytest.raises(CertificateError, match="no certificate"):
            verify_result([], [], "feasible", None)

    def test_status_certificate_type_mismatch_rejected(self):
        with pytest.raises(CertificateError):
            verify_result([], [], "feasible",
                          FarkasCertificate((), ()))
        with pytest.raises(CertificateError):
            verify_result([], [], "infeasible",
                          PrimalCertificate({}))

    def test_unknown_status_rejected(self):
        with pytest.raises(CertificateError, match="unknown status"):
            verify_result([], [], "maybe", PrimalCertificate({}))


# -- solver-produced certificates ---------------------------------------------


def box_problem(bounds):
    problem = IlpProblem()
    for name, (lo, hi) in bounds.items():
        problem.add_ge0(x(name) - lo)
        problem.add_ge0(-x(name) + hi)
    return problem


class TestSolverCertificates:
    def test_lp_feasible_carries_verified_point(self):
        problem = box_problem({"a": (1, 4), "b": (-2, 2)})
        result = problem.solve_lp(x("a") + x("b"))
        assert result.status is IlpStatus.OPTIMAL
        assert isinstance(result.certificate, PrimalCertificate)
        verify_point([x("a") - 1, -x("a") + 4, x("b") + 2, -x("b") + 2],
                     [], result.certificate)

    def test_lp_infeasible_carries_verified_farkas(self):
        problem = box_problem({"a": (5, 2)})
        result = problem.solve_lp(x("a"))
        assert result.status is IlpStatus.INFEASIBLE
        assert isinstance(result.certificate, FarkasCertificate)
        verify_farkas([x("a") - 5, -x("a") + 2], [], result.certificate)

    def test_ilp_integer_infeasible_carries_branch_tree(self):
        # LP-feasible (x = 1/2) but integer-infeasible.
        problem = IlpProblem()
        problem.add_eq0(x("x", 2) - 1)
        result = problem.solve_ilp(x("x"))
        assert result.status is IlpStatus.INFEASIBLE
        assert isinstance(result.certificate, BranchCertificate)
        verify_infeasibility([], [x("x", 2) - 1], result.certificate)

    def test_verification_context_checks_every_solve(self):
        with obs.collect() as tracer, ilp.verification():
            assert ilp.verification_enabled()
            box_problem({"a": (0, 3)}).solve_ilp(x("a"))
            box_problem({"a": (3, 0)}).solve_ilp(x("a"))
            problem = IlpProblem()
            problem.add_eq0(x("x", 2) - 1)
            problem.solve_ilp(x("x"))
        assert not ilp.verification_enabled()
        assert tracer.counters["ilp.cert_checks"] >= 3
        assert tracer.counters.get("ilp.cert_skipped", 0) == 0

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_random_systems_all_certified(self, data):
        """Every answer on random small systems verifies, and feasible/
        infeasible agrees with brute-force enumeration."""
        names = ["u", "v"]
        n_cons = data.draw(st.integers(1, 5))
        ge = []
        for _ in range(n_cons):
            coeffs = {name: data.draw(st.integers(-3, 3))
                      for name in names}
            const = data.draw(st.integers(-6, 6))
            ge.append(LinExpr(coeffs, const))
        # Keep the system bounded so enumeration terminates.
        box = [x("u") + 6, -x("u") + 6, x("v") + 6, -x("v") + 6]
        problem = IlpProblem()
        for con in box + ge:
            problem.add_ge0(con)
        with ilp.verification():  # raises CertificateError on any bug
            result = problem.solve_ilp(x("u") + x("v"))
        brute = [
            (u, v)
            for u, v in itertools.product(range(-6, 7), repeat=2)
            if all(c.evaluate({"u": u, "v": v}) >= 0 for c in ge)
        ]
        if result.status is IlpStatus.OPTIMAL:
            assert brute
            assert result.objective == min(u + v for u, v in brute)
        else:
            assert result.status is IlpStatus.INFEASIBLE
            assert not brute


# -- degenerate-pivot cycling (satellite bugfix) -------------------------------


def beale_tableau():
    """Beale's classic cycling LP in ``coeffs . x <= rhs`` form.

    Under Dantzig's entering rule this instance is the textbook
    generator of degenerate pivot cycles; the stall-triggered Bland
    fallback must terminate it.
    """
    t = _Tableau(4)
    rows = [
        ([Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9)],
         Fraction(0)),
        ([Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3)],
         Fraction(0)),
        ([Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
         Fraction(1)),
    ]
    for index, (coeffs, rhs) in enumerate(rows):
        t.add_row(coeffs, rhs, ("ge", index, 1))
    t.set_objective([Fraction(-3, 4), Fraction(150),
                     Fraction(-1, 50), Fraction(6)])
    return t


class TestDegenerateCycling:
    def test_beale_instance_terminates_at_optimum(self):
        tableau = beale_tableau()
        status = tableau.primal_simplex()
        assert status is IlpStatus.OPTIMAL
        # Self-checkable optimality: feasible (rhs >= 0) and every
        # reduced cost nonnegative.
        assert all(value >= 0 for value in tableau.rhs)
        assert all(cost >= 0 for cost in tableau.obj)
        assert -tableau.obj_rhs == Fraction(-1, 20)

    def test_dantzig_and_bland_agree(self, monkeypatch):
        reference = beale_tableau()
        monkeypatch.setattr(ilp, "STALL_LIMIT", 0)  # Bland from pivot one
        assert reference.primal_simplex() is IlpStatus.OPTIMAL
        monkeypatch.undo()
        default = beale_tableau()
        assert default.primal_simplex() is IlpStatus.OPTIMAL
        assert default.obj_rhs == reference.obj_rhs

    def test_stall_triggers_bland_fallback_counter(self, monkeypatch):
        monkeypatch.setattr(ilp, "STALL_LIMIT", 1)
        with obs.collect() as tracer:
            tableau = beale_tableau()
            assert tableau.primal_simplex() is IlpStatus.OPTIMAL
        assert tracer.counters.get("ilp.bland_fallbacks", 0) >= 1


# -- warm starts ---------------------------------------------------------------


class TestWarmStart:
    def test_branching_uses_warm_starts(self):
        # 2u + 2v == 1 within a box forces branching.
        problem = IlpProblem()
        problem.add_eq0(x("u", 2) + x("v", 2) - 1)
        for con in [x("u") + 4, -x("u") + 4, x("v") + 4, -x("v") + 4]:
            problem.add_ge0(con)
        with obs.collect() as tracer, ilp.verification():
            result = problem.solve_ilp(x("u"))
        assert result.status is IlpStatus.INFEASIBLE
        assert tracer.counters["ilp.warm_starts"] >= 2
        assert tracer.counters["ilp.lp_solves"] >= \
            tracer.counters["ilp.warm_starts"] + 1

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_warm_started_children_match_cold_solves(self, data):
        """A warm-started bound row must answer exactly like a cold
        solve of the same system (the incremental-solving contract)."""
        coeffs = {name: data.draw(st.integers(-3, 3))
                  for name in ["u", "v"]}
        const = data.draw(st.integers(-4, 4))
        extra = LinExpr(coeffs, const)
        base = [x("u") + 3, -x("u") + 3, x("v") + 3, -x("v") + 3,
                x("u") + x("v") - data.draw(st.integers(-2, 2))]

        cold = IlpProblem()
        for con in base + [extra]:
            cold.add_ge0(con)
        with ilp.verification():
            cold_result = cold.solve_ilp(x("u") - x("v"))

        warm = IlpProblem()
        for con in base:
            warm.add_ge0(con)
        with ilp.verification():
            warm.solve_ilp(x("u") - x("v"))  # prime nothing persistent
            warm.add_ge0(extra)
            warm_result = warm.solve_ilp(x("u") - x("v"))
        assert warm_result.status is cold_result.status
        if cold_result.status is IlpStatus.OPTIMAL:
            assert warm_result.objective == cold_result.objective


# -- certified end-to-end runs (satellite: gemm + fig06 kernels) ---------------


class TestCertifiedSimulation:
    @pytest.mark.parametrize("kernel,config", [
        ("static-questions", (1024, 4, 32, "plru")),
        ("floyd-warshall", (1024, 4, 32, "plru")),
        ("floyd-warshall", (512, 2, 32, "lru")),
    ])
    def test_full_run_verifies_every_certificate(self, kernel, config):
        """Kernels that still ask the ILP at MINI: the one of
        ``tests/static_questions.py`` and floyd-warshall."""
        from repro.cache.config import CacheConfig
        from repro.polybench import build_kernel
        from repro.simulation import simulate_warping

        import static_questions

        scop = (static_questions.build(16) if kernel == "static-questions"
                else build_kernel(kernel, "MINI"))
        config = CacheConfig(*config)
        with obs.collect() as tracer, ilp.verification():
            simulate_warping(scop, config)  # CertificateError on any bug
        assert tracer.counters["ilp.cert_checks"] > 0
        assert tracer.counters.get("ilp.cert_skipped", 0) == 0

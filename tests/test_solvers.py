import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from axc import (
    Context,
    Form,
    SpaceTag,
    VacuumDiracKind,
    codifferential,
    cohomotopy_h,
    dirac_source_solve,
    form_to_json,
    kalb_ramond_solve,
    kr_maxwell_couple,
    laplace_beltrami,
    laplace_solve,
    massive_dirac_check,
    maxwell_solve,
    maxwell_solve_magnetic,
    membership,
    vacuum_dirac_classify,
)
from axc.errors import (GradeMismatch, GradeOutOfRange, InconsistentSystem, NotASolution,
                        NotConserved)
from axc.linsolve import solve_sparse
from axc.polyring import _packed, _poly
from axc.randforms import random_homogeneous, sample_rng
from axc.solvers import _close, _inverse_box, _op_g
from tests.conftest import B, oracle_contexts, var
from tests.oracles import (
    composite_codifferential,
    composite_laplace_beltrami,
    composite_laplace_solve,
    composite_rows,
    loop_d,
    series_inverse_box,
)


def composite_cases(e3, m4):
    """Seeded solver calls as (beta, rhs, grade, side conditions): beta is what
    the call returned, and laplace(beta) = rhs at that grade, with d beta = 0
    or delta beta = 0 as the side conditions say, is the system it solved."""
    mixed = Context(3, (0, 0, 0), (-1, 1, -1))
    w1 = random_homogeneous(e3, sample_rng(199, 2), 1)
    w2 = random_homogeneous(m4, sample_rng(199, 5), 2, 2)
    w3 = random_homogeneous(m4, sample_rng(199, 3), 2, 2)
    g = random_homogeneous(mixed, sample_rng(199, 4), 1)
    return [
        (_close(w1, True)[0], w1.d(), 2, ("d",)),
        (_close(w2, True)[0], w2.d(), 3, ("d",)),
        (_close(w3, False)[0], codifferential(w3), 1, ("delta",)),
        (laplace_solve(g, 1), g, 1, ()),
    ]


class TestLaplaceSolve:
    def test_scalar_unit_source(self, e2):
        u = laplace_solve(Form.scalar(e2, 1), 0)
        assert laplace_beltrami(u) == Form.scalar(e2, 1)

    def test_zero_source(self, e2):
        assert laplace_solve(Form.zero(e2), 1).is_zero
        # a zero source meets the grade rule like any other
        with pytest.raises(GradeOutOfRange):
            laplace_solve(Form.zero(e2), 3)

    def test_minkowski_one_form_source(self, m4):
        rhs = B(m4, (1,), var(m4, 2))
        beta = laplace_solve(rhs, 1)
        assert laplace_beltrami(beta) == rhs

    def test_side_conditions_hold(self, e3):
        s = random_homogeneous(e3, sample_rng(197, 0), 1)
        beta, closed = _close(s, True)
        assert laplace_beltrami(beta) == s.d()
        assert beta.d().is_zero
        assert closed.d().is_zero
        s = random_homogeneous(e3, sample_rng(197, 1), 2)
        alpha, coclosed = _close(s, False)
        assert laplace_beltrami(alpha) == codifferential(s)
        assert codifferential(alpha).is_zero
        assert codifferential(coclosed).is_zero

    def test_grade_mismatch(self, e2):
        with pytest.raises(GradeMismatch):
            laplace_solve(B(e2, (1,)), 2)

    def test_grade_out_of_range(self, e2):
        with pytest.raises(GradeOutOfRange):
            laplace_solve(B(e2, (1,)), 3)

    @pytest.mark.parametrize("k", [1.0, True], ids=["float-grade", "bool-grade"])
    @pytest.mark.parametrize("zero", [False, True], ids=["source", "zero-source"])
    def test_grade_is_an_int(self, e3, k, zero):
        rhs = Form.zero(e3) if zero else B(e3, (1,), var(e3, 1) ** 2)
        with pytest.raises(GradeOutOfRange):
            laplace_solve(rhs, k)

    def test_a_repeated_monomial_sums_g_once(self, m4, monkeypatch):
        # y^(2,1,1,0) on all six index tuples of a 2-form: G of the monomial is
        # summed once for the call, and the solve is the sum of the six
        # single-term solves
        exps = (2, 1, 1, 0)
        terms = [(idx, exps, Fraction(j + 1, 3)) for j, idx in enumerate(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])]
        separate = sum((laplace_solve(Form.from_terms(m4, [t]), 2) for t in terms),
                       Form.zero(m4))
        calls = []

        def counting(*args):
            calls.append(args)
            return _inverse_box(*args)

        monkeypatch.setattr("axc.solvers._inverse_box", counting)
        assert laplace_solve(Form.from_terms(m4, terms), 2) == separate
        assert calls == [(_packed(exps, 4), m4.signature)]

    def test_solution_matches_composite_assembly(self, e3, m4):
        for beta, rhs, k, side in composite_cases(e3, m4):
            assert not rhs.is_zero
            assert_agrees_with_elimination(beta, rhs, k, side, rhs.max_coeff_degree() + 2)

    def test_blocks_above_the_bound_add_nothing(self, e3, m4):
        # the closed form has coefficient degree deg(rhs) + 2, and eliminating
        # over every degree up to deg(rhs) + 4 finds no solution it misses
        for beta, rhs, k, side in composite_cases(e3, m4):
            assert_agrees_with_elimination(beta, rhs, k, side, rhs.max_coeff_degree() + 4)

    @pytest.mark.parametrize("ctx", oracle_contexts(), ids=lambda c: f"n{c.n}{c.signature}")
    def test_fused_op_g_map_equals_op_after_g(self, ctx):
        # _close applies d G or delta G as one loop on the cached gradient
        # of G; at every grade each equals the form G(u) followed by the
        # kernel's own d or delta
        for k in range(ctx.n + 1):
            for i in range(3):
                u = random_homogeneous(ctx, sample_rng(307, 10 * k + i), k, 4, 3)
                G = laplace_solve(u, k)
                assert _op_g(u, "d") == G.d()
                assert _op_g(u, "delta") == codifferential(G)

    def test_horner_sum_matches_the_series(self):
        # 400 seeded monomials, n = 1..5, mixed signatures, exponents 0..9 up to
        # total degree 20 (Horner chains of up to 11 steps): the series costs
        # ~1.5 s there and ~25 s uncapped.  G's (D, nums) is read as the set of
        # its (exponents, numerator, D) triples, its keys read through Poly.terms
        rng, checked = random.Random(26), 0
        while checked < 400:
            n = rng.randint(1, 5)
            exps = tuple(rng.randint(0, 9) for _ in range(n))
            signature = tuple(rng.choice((1, -1)) for _ in range(n))
            if sum(exps) <= 20:
                D, nums = _inverse_box(_packed(exps, n), signature)
                assert {(e, int(c * D), D) for e, c in _poly(n, D, nums).terms.items()} == (
                    series_inverse_box(exps, signature))
                checked += 1


class TestSolveSparse:
    """The exact elimination the oracles check the closed forms against."""

    def test_int_rows_solve_to_fractions(self):
        solution = solve_sparse([{"x": 2, "y": 1}, {"y": 3}], [1, 1])
        assert solution == {"x": Fraction(1, 3), "y": Fraction(1, 3)}
        assert all(type(c) is Fraction for c in solution.values())

    def test_inconsistent_row_is_named_exactly(self):
        with pytest.raises(InconsistentSystem, match=r"^row 1 reduces to 0 = 1$") as info:
            solve_sparse([{"x": 1}, {"x": 1}], [1, 2])
        assert info.value.equation == (1, Fraction(1))
        assert type(info.value.equation[1]) is Fraction

    @pytest.mark.parametrize("rows,rhs", [([{"x": 1.0}], [1]), ([{"x": 1}], [0.5]),
                                          ([{"x": True}], [1])])
    def test_float_or_bool_entry_raises(self, rows, rhs):
        with pytest.raises(TypeError, match="not an exact rational"):
            solve_sparse(rows, rhs)


def assert_agrees_with_elimination(beta, rhs, k, side, bound):
    """beta satisfies every row of the composite-operator system with unknowns
    of degree <= bound, and differs from its exact elimination by a form the
    composite Laplace-Beltrami and the side operators annihilate."""
    assert beta.max_coeff_degree() <= bound
    rows = composite_rows(rhs.ctx, k, side, bound)
    values = {(idx, exps): coef for idx, exps, coef in beta.terms()}
    rhs_values = {("lap", len(idx), idx, exps): coef for idx, exps, coef in rhs.terms()}
    for key in set(rows) | set(rhs_values):
        lhs = sum(c * values.get(var, 0) for var, c in rows.get(key, {}).items())
        assert lhs == rhs_values.get(key, 0), key
    gap = beta - composite_laplace_solve(rhs, k, side, bound)
    assert composite_laplace_beltrami(gap).is_zero
    if "d" in side:
        assert loop_d(gap).is_zero
    if "delta" in side:
        assert composite_codifferential(gap).is_zero


class TestMaxwell:
    def test_plane_desk_example(self, e2):
        report = maxwell_solve(B(e2, (2,)))
        assert report.success
        F_expected = B(e2, (1, 2), -var(e2, 1))
        A_expected = (B(e2, (1,), var(e2, 1) * var(e2, 2))
                      - B(e2, (2,), var(e2, 1) * var(e2, 1))).scale(Fraction(1, 3))
        assert report.outputs["F"] == F_expected
        assert report.outputs["A"] == A_expected
        assert report.outputs["alpha"].is_zero

    def test_zero_current(self, m4):
        report = maxwell_solve(Form.zero(m4))
        assert report.success
        assert report.outputs["F"].is_zero and report.outputs["A"].is_zero

    def test_random_minkowski_currents(self, m4):
        for i in range(10):
            j = codifferential(random_homogeneous(m4, sample_rng(199, i), 2))
            report = maxwell_solve(j)
            assert report.success, report.failed

    def test_rejects_non_conserved(self, m4):
        with pytest.raises(NotConserved):
            maxwell_solve(B(m4, (1,), var(m4, 1)))

    def test_gauge_freedom(self, m4):
        # A + df is an equally valid potential for the same F
        j = codifferential(random_homogeneous(m4, sample_rng(211, 0), 2))
        report = maxwell_solve(j)
        f = Form.from_poly(m4, var(m4, 1) * var(m4, 3))
        shifted = report.outputs["A"] + f.d()
        assert shifted.d() == report.outputs["F"]


class TestMaxwellMagnetic:
    def test_zero_current(self, m4):
        report = maxwell_solve_magnetic(Form.zero(m4))
        assert report.success and report.outputs["F"].is_zero

    def test_euclidean_three_space(self, e3):
        for i in range(5):
            j = random_homogeneous(e3, sample_rng(223, i), 2).d()
            report = maxwell_solve_magnetic(j)
            assert report.success, report.failed

    def test_minkowski_four_space(self, m4):
        for i in range(5):
            j = random_homogeneous(m4, sample_rng(227, i), 2).d()
            report = maxwell_solve_magnetic(j)
            assert report.success, report.failed

    def test_rejects_non_closed(self, m4):
        with pytest.raises(NotConserved):
            maxwell_solve_magnetic(B(m4, (1, 2, 3), var(m4, 4)))


class TestKalbRamond:
    def test_zero_current(self, m4):
        report = kalb_ramond_solve(Form.zero(m4))
        assert report.success
        assert report.outputs["K"].is_zero and report.outputs["B"].is_zero

    def test_random_minkowski_currents(self, m4):
        for i in range(5):
            J = codifferential(random_homogeneous(m4, sample_rng(229, i), 3))
            report = kalb_ramond_solve(J)
            assert report.success, report.failed

    def test_top_grade_beta_closed_automatically(self, m4):
        J = codifferential(random_homogeneous(m4, sample_rng(233, 0), 3))
        report = kalb_ramond_solve(J)
        assert report.outputs["beta"].d().is_zero


class TestFieldPipelineErrors:
    """Each field pipeline's input errors, type and message pinned."""

    @pytest.mark.parametrize("solve, chart, make, error, message", [
        (maxwell_solve, "m4", lambda c: B(c, (1, 2)), GradeMismatch,
         "current must be a 1-form"),
        (maxwell_solve, "m4", lambda c: B(c, (1,), var(c, 1)), NotConserved,
         "delta j != 0"),
        (kalb_ramond_solve, "m4", lambda c: B(c, (2,)), GradeMismatch,
         "current must be a 2-form"),
        (kalb_ramond_solve, "m4", lambda c: B(c, (1, 2), var(c, 1)), NotConserved,
         "delta J != 0"),
        (maxwell_solve_magnetic, "e2", lambda c: B(c, (1, 2)), GradeMismatch,
         "magnetic current is a 3-form; need dimension >= 3"),
        # the dimension check runs first, even on the zero current
        (maxwell_solve_magnetic, "e2", Form.zero, GradeMismatch,
         "magnetic current is a 3-form; need dimension >= 3"),
        (maxwell_solve_magnetic, "m4", lambda c: B(c, (1, 2)), GradeMismatch,
         "magnetic current must be a 3-form"),
        (maxwell_solve_magnetic, "m4", lambda c: B(c, (1, 2, 3), var(c, 4)), NotConserved,
         "d j != 0"),
    ], ids=["maxwell-2-form", "maxwell-not-conserved", "kr-1-form", "kr-not-conserved",
            "magnetic-e2", "magnetic-e2-zero", "magnetic-2-form", "magnetic-not-closed"])
    def test_rejects(self, request, solve, chart, make, error, message):
        with pytest.raises(error) as caught:
            solve(make(request.getfixturevalue(chart)))
        assert type(caught.value) is error
        assert str(caught.value) == message


def coupling_instance(m4):
    """An antiexact, coclosed 2-form potential and its induced current."""
    x1, x2, x3, x4 = (var(m4, i) for i in range(1, 5))
    B2 = (B(m4, (1, 2), x3 * x4 * x4)
          + B(m4, (1, 3), -(x2 * x4 * x4))
          + B(m4, (2, 3), x1 * x4 * x4))
    J = codifferential(B2.d())
    return B2, J


class TestCoupledSystem:
    def test_reduces_to_maxwell_when_B_zero(self, m4):
        j = codifferential(random_homogeneous(m4, sample_rng(239, 0), 2))
        mx = maxwell_solve(j)
        report = kr_maxwell_couple(Form.zero(m4), mx.outputs["F"], j, Form.zero(m4))
        assert report.success

    def test_full_coupled_instance(self, m4):
        B2, J = coupling_instance(m4)
        assert membership(B2, SpaceTag.ANTIEXACT)
        assert membership(B2, SpaceTag.COEXACT)
        j = codifferential(random_homogeneous(m4, sample_rng(241, 0), 2))
        mx = maxwell_solve(j)
        report = kr_maxwell_couple(B2, mx.outputs["F"], j, J)
        assert report.success
        assert list(report.residuals) == ["DR_minus_(K-j)", "DK_plus_J", "deltaB", "HB",
                                          "B_at_center"]

    def test_detects_non_coclosed_perturbation(self, m4):
        B2, J = coupling_instance(m4)
        j = Form.zero(m4)
        mx = maxwell_solve(j)
        bad = B2 + B(m4, (1, 2), var(m4, 1))
        with pytest.raises(NotASolution) as err:
            kr_maxwell_couple(bad, mx.outputs["F"], j, J)
        assert err.value.failed == ("DR_minus_(K-j)", "deltaB", "HB")

    @pytest.mark.parametrize("coeff, failed", [
        (lambda m4: var(m4, 1), ("DR_minus_(K-j)", "deltaB", "HB")),
        (lambda m4: None, ("HB", "B_at_center")),
        (lambda m4: var(m4, 3), ("HB",)),
    ], ids=["x1", "1", "x3"])
    def test_each_perturbation_fails_its_residuals(self, m4, coeff, failed):
        # B is tested once per fact: coexact by deltaB, antiexact by HB and B_at_center
        B2, J = coupling_instance(m4)
        j = Form.zero(m4)
        with pytest.raises(NotASolution) as err:
            kr_maxwell_couple(B2 + B(m4, (1, 2), coeff(m4)), maxwell_solve(j).outputs["F"], j, J)
        assert err.value.failed == failed


def random_solvable_source(ctx, rng, k):
    """B = d(alpha0) - delta(beta0) with delta(alpha0) = 0, d(beta0) = 0."""
    alpha0 = codifferential(cohomotopy_h(random_homogeneous(ctx, rng, k - 1)))
    beta0 = random_homogeneous(ctx, rng, k).d()
    return alpha0.d() - codifferential(beta0)


class TestDiracSource:
    def test_zero_source(self, e3):
        report = dirac_source_solve(Form.zero(e3))
        assert report.success
        assert report.outputs["psi"].is_zero

    def test_constant_basis_source_both_approaches(self, e3):
        for approach in (1, 2):
            report = dirac_source_solve(B(e3, (1,)), approach)
            assert report.success, (approach, report.failed)

    def test_random_solvable_sources(self, e3, m4):
        for ctx in (e3, m4):
            for i in range(3):
                src = random_solvable_source(ctx, sample_rng(251, 10 * ctx.n + i), 2)
                if src.is_zero:
                    continue
                for approach in (1, 2):
                    report = dirac_source_solve(src, approach)
                    assert report.success, (approach, report.failed)

    @pytest.mark.parametrize("approach", [True, 2.0, Fraction(1), 0, 3])
    def test_approach_is_the_int_1_or_2(self, e3, approach):
        # True == 1 and 2.0 == 2, but neither names an approach
        with pytest.raises(ValueError, match="approach must be 1 or 2"):
            dirac_source_solve(B(e3, (1,)), approach)

    def test_approach_difference_is_vacuum_solution(self, e3):
        src = random_solvable_source(e3, sample_rng(257, 0), 2)
        r1 = dirac_source_solve(src, 1)
        r2 = dirac_source_solve(src, 2)
        alpha = r1.outputs["alpha"] - r2.outputs["alpha"]
        beta = r1.outputs["beta"] - r2.outputs["beta"]
        verdict = vacuum_dirac_classify(alpha, beta, 2)
        assert verdict.kind is not VacuumDiracKind.NOT_A_SOLUTION


class TestVacuumDiracClassify:
    def test_harmonic_pair_is_gauge_case(self, e3):
        alpha = Form.scalar(e3, 1)
        beta = B(e3, (1, 2))
        verdict = vacuum_dirac_classify(alpha, beta, 1)
        assert verdict.kind is VacuumDiracKind.GAUGE_CASE
        assert all(f.is_zero for f in (alpha.d(), codifferential(alpha),
                                       beta.d(), codifferential(beta)))

    def test_constructed_non_gauge_case(self, e3):
        alpha = Form.from_poly(e3, var(e3, 1))
        beta = cohomotopy_h(B(e3, (1,)))
        verdict = vacuum_dirac_classify(alpha, beta, 1)
        assert verdict.kind is VacuumDiracKind.NON_GAUGE_CASE
        assert not alpha.d().is_zero
        assert alpha.d().d().is_zero and codifferential(codifferential(beta)).is_zero

    def test_detection_case(self, e3):
        alpha = B(e3, (2,), var(e3, 1))
        verdict = vacuum_dirac_classify(alpha, Form.zero(e3), 2)
        assert verdict.kind is VacuumDiracKind.NOT_A_SOLUTION
        assert any(not r.is_zero for r in verdict.residuals.values())

    def test_grade_mismatch(self, e3):
        with pytest.raises(GradeMismatch):
            vacuum_dirac_classify(B(e3, (1,)), B(e3, (1, 2)), 1)

    @pytest.mark.parametrize("alpha, beta, k", [
        (lambda c: B(c, (1,)), lambda c: Form.zero(c), 2),
        (lambda c: Form.zero(c), lambda c: B(c, (1, 2, 3)), 2),
        (lambda c: Form.zero(c), lambda c: Form.zero(c), 1),
    ], ids=["from-alpha", "from-beta", "default"])
    def test_middle_grade_inferred(self, e3, alpha, beta, k):
        # k = 1 would not fit the first two pairs; grade 1 is the default
        alpha, beta = alpha(e3), beta(e3)
        verdict = vacuum_dirac_classify(alpha, beta)
        assert verdict == vacuum_dirac_classify(alpha, beta, k)
        assert verdict.kind is VacuumDiracKind.GAUGE_CASE
        if k != 1:
            with pytest.raises(GradeMismatch):
                vacuum_dirac_classify(alpha, beta, 1)

    @pytest.mark.parametrize("k", [1.0, True], ids=["float-grade", "bool-grade"])
    def test_grade_is_an_int(self, e3, k):
        with pytest.raises(GradeOutOfRange):
            vacuum_dirac_classify(Form.scalar(e3, 1), B(e3, (1, 2)), k)

    @pytest.mark.parametrize("alpha, beta, k", [
        (lambda c: B(c, (1, 2)), Form.zero, 3),
        (Form.zero, lambda c: B(c, (1,)), None),
    ], ids=["grade-n", "grade-0-inferred"])
    def test_middle_grade_strictly_inside(self, e3, alpha, beta, k):
        with pytest.raises(GradeMismatch, match="must satisfy 0 < k < 3"):
            vacuum_dirac_classify(alpha(e3), beta(e3), k)


class TestMassiveDirac:
    def test_zero_solution_accepted(self, e3):
        z = Form.zero(e3)
        report = massive_dirac_check(z, z, z, z)
        assert report.success

    def test_single_grade_input_fails(self, e3):
        z = Form.zero(e3)
        report = massive_dirac_check(B(e3, (1,)), z, z, z)
        assert not report.success

    @pytest.mark.parametrize("alpha, beta, message", [
        ((1,), (1, 2, 3), "beta grade 3 must be alpha grade 1 + 1"),
        ((), (1,), "alpha grade must be at least 1"),
    ], ids=["grades-apart", "alpha-grade-0"])
    def test_grade_rules(self, e3, alpha, beta, message):
        z = Form.zero(e3)
        with pytest.raises(GradeMismatch, match=re.escape(message)):
            massive_dirac_check(B(e3, alpha), B(e3, beta), z, z)

    def test_eigen_equation_reported(self, e3):
        alpha = B(e3, (1,), var(e3, 2))
        beta = alpha.d().scale(-1)
        report = massive_dirac_check(alpha, beta, Form.zero(e3), Form.zero(e3))
        assert "laplace_alpha_minus_alpha" in report.failed
        assert report.residuals["laplace_alpha_minus_alpha"] == laplace_beltrami(alpha) - alpha


def golden_reports():
    """Seeded sources for every pipeline and both Dirac approaches on E3, M4
    and signature (-, +, -); the Dirac sources reach all four gauge notes."""
    charts = (Context.euclidean(3), Context.minkowski(4), Context(3, (0, 0, 0), (-1, 1, -1)))
    for c, ctx in enumerate(charts):
        def rng(i):
            return sample_rng(263, 10 * c + i)
        yield maxwell_solve(codifferential(random_homogeneous(ctx, rng(0), 2)))
        yield maxwell_solve_magnetic(random_homogeneous(ctx, rng(1), 2).d())
        yield kalb_ramond_solve(codifferential(random_homogeneous(ctx, rng(2), 3)))
        for approach in (1, 2):
            yield dirac_source_solve(Form.zero(ctx), approach)
        for k in range(1, ctx.n):
            source = random_homogeneous(ctx, rng(2 + k), k)
            for approach in (1, 2):
                yield dirac_source_solve(source, approach)


# The solvers' exact answers, gauge included: a refactor of the pipelines must
# reproduce every output, residual and gauge note byte for byte.
GOLDEN_SHA1 = "392ab73d39d31fbd555c3edd451d41e0eaaf487b"


def test_golden_digest():
    docs = []
    for report in golden_reports():
        assert report.success, report.failed
        docs.append({
            "outputs": {k: form_to_json(v) for k, v in report.outputs.items()},
            "residuals": {k: form_to_json(v) for k, v in report.residuals.items()},
            "gauge_notes": report.gauge_notes,
            # sort_keys drops the order in which the CLI prints the names
            "names": [*report.outputs, *report.residuals],
        })
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha1(text.encode("utf-8")).hexdigest() == GOLDEN_SHA1

import itertools
from fractions import Fraction

import pytest

from axc import (
    Context,
    Form,
    OperatorTag,
    Poly,
    apply_operator,
    clifford_vec_mul,
    codifferential,
    k_field,
    laplace_beltrami,
    oscillator_eigencheck,
)
from axc.errors import GradeOutOfRange
from axc.forms import VectorField
from axc.randforms import random_form, random_homogeneous, sample_rng
from tests.conftest import B, all_contexts, offcenter_contexts, oracle_contexts, var
from tests.oracles import composite_laplace_beltrami


def const_vector(ctx, values):
    return VectorField(ctx, [Poly.const(ctx.n, v) for v in values])


class TestCliffordProduct:
    def test_frame_on_scalar(self, e2):
        assert clifford_vec_mul(VectorField.frame(e2, 1), Form.scalar(e2, 1)) == B(e2, (1,))

    def test_frame_on_dual_basis(self, e2):
        got = clifford_vec_mul(VectorField.frame(e2, 1), B(e2, (1,)))
        assert got == Form.scalar(e2, 1)

    def test_clifford_relation(self):
        # v(v psi) = g(v, v) psi for constant vectors, and K(K psi) = Q psi for
        # the radial field, Q = g(K, K) = sum_i eps_i y_i^2
        for ctx in all_contexts():
            for i in range(10):
                rng = sample_rng(139, 10 * ctx.n + i)
                values = [Fraction(rng.randint(-3, 3)) for _ in range(ctx.n)]
                v = const_vector(ctx, values)
                norm = sum(e * a * a for e, a in zip(ctx.signature, values))
                psi = random_form(ctx, rng)
                assert clifford_vec_mul(v, clifford_vec_mul(v, psi)) == psi.scale(norm)
        for ctx in offcenter_contexts():
            K = k_field(ctx)
            Q = Form.from_poly(ctx, sum(((var(ctx, i) * var(ctx, i)).scale(e)
                                         for i, e in enumerate(ctx.signature, 1)), Poly.zero(ctx.n)))
            for i in range(10):
                psi = random_form(ctx, sample_rng(139, 1000 + 10 * ctx.n + i))
                assert clifford_vec_mul(K, clifford_vec_mul(K, psi)) == Q.wedge(psi)

    def test_polarized_relation(self):
        # uv + vu = 2 g(u, v) as operators
        ctx = Context.minkowski(3)
        for i in range(10):
            rng = sample_rng(149, i)
            a = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            u, v = const_vector(ctx, a), const_vector(ctx, b)
            g = sum(e * x * y for e, x, y in zip(ctx.signature, a, b))
            psi = random_form(ctx, rng)
            lhs = clifford_vec_mul(u, clifford_vec_mul(v, psi)) + clifford_vec_mul(
                v, clifford_vec_mul(u, psi))
            assert lhs == psi.scale(2 * g)

    def test_radial_product_splits_into_homotopy_parts(self, e3):
        # K psi = K-flat ^ psi + i_K psi: the wedge and insertion halves are
        # exactly the anticoexact-side and antiexact-side pieces
        from axc import interior, k_field, musical_flat
        for i in range(10):
            psi = random_form(e3, sample_rng(151, i))
            kf = k_field(e3)
            assert clifford_vec_mul(kf, psi) == musical_flat(kf).wedge(psi) + interior(kf, psi)


class TestDiracOperators:
    def test_dirac_on_coordinate_scalar(self, e2):
        got = apply_operator(OperatorTag.DIRAC, Form.from_poly(e2, var(e2, 1)))
        assert got == B(e2, (1,))

    def test_dirac_squared_is_laplacian(self):
        for ctx in all_contexts():
            for i in range(5):
                psi = random_form(ctx, sample_rng(157, 10 * ctx.n + i))
                DD = apply_operator(OperatorTag.DIRAC, apply_operator(OperatorTag.DIRAC, psi))
                assert DD == laplace_beltrami(psi)

    def test_anti_dirac_squared(self):
        for ctx in all_contexts():
            for i in range(5):
                psi = random_form(ctx, sample_rng(163, 10 * ctx.n + i))
                AA = apply_operator(OperatorTag.ANTI_DIRAC,
                                    apply_operator(OperatorTag.ANTI_DIRAC, psi))
                assert AA == apply_operator(OperatorTag.ANTI_LAPLACE, psi)

    def test_laplacian_componentwise_euclidean(self, e3):
        # with the identity metric, laplace acts as the scalar laplacian on
        # each coefficient
        for i in range(10):
            psi = random_form(e3, sample_rng(167, i))
            expected = Form(e3, {
                k: {idx: sum((poly.partial(a).partial(a) for a in range(1, 4)),
                             Poly.zero(3))
                    for idx, poly in idx_map.items()}
                for k, idx_map in psi.components.items()
            })
            assert laplace_beltrami(psi) == expected

    def test_laplacian_matches_literal_composite(self):
        for ctx in oracle_contexts():
            for i in range(10):
                psi = random_form(ctx, sample_rng(409, 10 * ctx.n + i))
                assert laplace_beltrami(psi) == composite_laplace_beltrami(psi)

    def test_laplacian_on_every_basis_term(self):
        for ctx in oracle_contexts(4):
            for k in range(ctx.n + 1):
                for idx in itertools.combinations(range(1, ctx.n + 1), k):
                    for exps in itertools.product(range(3), repeat=ctx.n):
                        e = B(ctx, idx, Poly.monomial(ctx.n, exps))
                        assert laplace_beltrami(e) == composite_laplace_beltrami(e)

    def test_oscillator_on_anticoexact_plane_sample(self, e2):
        w = (B(e2, (1,), var(e2, 1)) + B(e2, (2,), var(e2, 2))).scale(Fraction(1, 2))
        assert apply_operator(OperatorTag.OSCILLATOR_HBAR, w) == w


class TestGradeBlocks:
    # D and anti-D each raise one grade and lower one; box, anti-box and H-bar
    # keep the grade
    def test_dirac_moves_one_grade(self, e3):
        for i in range(10):
            w = random_homogeneous(e3, sample_rng(173, i), 1)
            image = apply_operator(OperatorTag.DIRAC, w)
            assert set(image.grades()) <= {0, 2}

    def test_grade_preserving_operators(self, e3):
        for tag in (OperatorTag.LAPLACE_BELTRAMI, OperatorTag.ANTI_LAPLACE,
                    OperatorTag.OSCILLATOR_HBAR):
            for i in range(5):
                for k in range(4):
                    w = random_homogeneous(e3, sample_rng(179, 10 * k + i), k)
                    assert set(apply_operator(tag, w).grades()) <= {k}

    def test_anti_dirac_blocks(self, m4):
        for i in range(10):
            w = random_homogeneous(m4, sample_rng(181, i), 2)
            assert set(apply_operator(OperatorTag.ANTI_DIRAC, w).grades()) <= {1, 3}

    @pytest.mark.parametrize("tag", list(OperatorTag), ids=[t.value for t in OperatorTag])
    def test_zero_form_is_in_every_block(self, e3, tag):
        assert apply_operator(tag, Form.zero(e3)) == Form.zero(e3)

    @pytest.mark.parametrize("form", [lambda c: B(c, (1,), var(c, 1)), Form.zero],
                             ids=["one-form", "zero"])
    @pytest.mark.parametrize("check", [apply_operator])
    def test_rejects_a_tag_name(self, e2, check, form):
        # the CLI's "dirac" names the operator, but only an OperatorTag is one
        with pytest.raises(ValueError, match="unknown operator tag 'dirac'"):
            check("dirac", form(e2))


def assert_spectrum(report):
    # H-bar acts as -1 on the coexact part and +1 on the anticoexact part
    hbar = lambda f: apply_operator(OperatorTag.OSCILLATOR_HBAR, f)
    assert hbar(report.coexact_part) == report.coexact_part.scale(-1)
    assert hbar(report.anticoexact_part) == report.anticoexact_part


class TestOscillatorEigencheck:
    def test_anticoexact_eigenvalue_plus_one(self, e3):
        from axc import cohomotopy_h
        for i in range(10):
            w = cohomotopy_h(codifferential(random_homogeneous(e3, sample_rng(191, i), 2)))
            if w.is_zero:
                continue
            report = oscillator_eigencheck(w)
            assert report.eigenvalue == +1
            assert_spectrum(report)

    def test_coexact_eigenvalue_minus_one(self, e3):
        from axc import cohomotopy_h
        for i in range(10):
            w = codifferential(cohomotopy_h(random_homogeneous(e3, sample_rng(193, i), 2)))
            if w.is_zero:
                continue
            report = oscillator_eigencheck(w)
            assert report.eigenvalue == -1
            assert_spectrum(report)

    def test_mixed_form_is_not_eigenvector(self, e2):
        report = oscillator_eigencheck(B(e2, (1,), var(e2, 1)))
        assert not report.is_eigenvector
        assert not report.coexact_part.is_zero
        assert not report.anticoexact_part.is_zero
        assert_spectrum(report)

    def test_rejects_extreme_grades(self, e2):
        with pytest.raises(GradeOutOfRange):
            oscillator_eigencheck(Form.scalar(e2, 1))
        with pytest.raises(GradeOutOfRange):
            oscillator_eigencheck(B(e2, (1, 2)))

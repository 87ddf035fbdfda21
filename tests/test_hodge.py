import itertools
from fractions import Fraction

import pytest

from axc import (
    Context,
    Form,
    Poly,
    codifferential,
    hodge_star,
    hodge_star_inv,
    interior,
    k_field,
    musical_flat,
    musical_sharp,
)
from axc.errors import GradeOutOfRange
from axc.forms import VectorField
from axc.randforms import random_form, random_homogeneous, sample_rng
from tests.conftest import B, all_contexts, oracle_contexts, var
from tests.oracles import composite_codifferential, loop_star, loop_star_inv


class TestMusical:
    def test_flat_of_radial_euclidean(self, e2):
        assert musical_flat(k_field(e2)) == B(e2, (1,), var(e2, 1)) + B(e2, (2,), var(e2, 2))

    def test_flat_sign_minkowski(self):
        ctx = Context(2, (Fraction(0), Fraction(0)), (1, -1))
        assert musical_flat(VectorField.frame(ctx, 2)) == B(ctx, (2,)).scale(-1)

    def test_sharp_flat_round_trip(self):
        for ctx in all_contexts():
            for i in range(10):
                rng = sample_rng(41, i)
                v = VectorField(ctx, [var(ctx, j + 1).scale(rng.randint(-3, 3))
                                      for j in range(ctx.n)])
                assert musical_sharp(musical_flat(v)) == v

    def test_sharp_rejects_higher_grades(self, e2):
        with pytest.raises(GradeOutOfRange):
            musical_sharp(B(e2, (1, 2)))


class TestHodgeStar:
    def test_euclidean_plane(self, e2):
        assert hodge_star(B(e2, (1,))) == B(e2, (2,))
        assert hodge_star(B(e2, (2,))) == B(e2, (1,)).scale(-1)

    def test_volume_form(self):
        for ctx in all_contexts():
            assert hodge_star(Form.scalar(ctx, 1)) == B(ctx, tuple(range(1, ctx.n + 1)))

    def test_minkowski_plane(self):
        ctx = Context(2, (Fraction(0), Fraction(0)), (1, -1))
        assert hodge_star(B(ctx, (1,))) == B(ctx, (2,))
        assert hodge_star(B(ctx, (2,))) == B(ctx, (1,))
        # star star = +1 on grade 1 here: (-1)^{1*1} * sig = (-1)*(-1)
        assert hodge_star(hodge_star(B(ctx, (1,)))) == B(ctx, (1,))

    def test_star_star_law(self):
        for ctx in all_contexts():
            for k in range(ctx.n + 1):
                w = random_homogeneous(ctx, sample_rng(43, 10 * ctx.n + k), k)
                expected = w.scale(ctx.sig * (-1) ** (k * (ctx.n - k)))
                assert hodge_star(hodge_star(w)) == expected


class TestHodgeStarInverse:
    def test_inverse_law_random(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(47, 10 * ctx.n + i))
                assert hodge_star_inv(hodge_star(w)) == w
                assert hodge_star(hodge_star_inv(w)) == w

    def test_euclidean_plane_values(self, e2):
        assert hodge_star_inv(Form.from_poly(e2, var(e2, 2))) == B(e2, (1, 2), var(e2, 2))
        assert hodge_star_inv(B(e2, (2,))) == B(e2, (1,))


class TestCodifferential:
    def test_plane_one_form(self, e2):
        got = codifferential(B(e2, (1,), var(e2, 1)))
        assert got == Form.scalar(e2, -1)

    def test_constant_top_form_coclosed(self):
        for ctx in all_contexts():
            top = B(ctx, tuple(range(1, ctx.n + 1)))
            assert codifferential(top).is_zero or ctx.n == 0

    def test_plane_top_form(self, e2):
        got = codifferential(B(e2, (1, 2), var(e2, 1)))
        assert got == B(e2, (2,)).scale(-1)

    def test_delta_squared_zero(self):
        for ctx in all_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(53, 10 * ctx.n + i))
                assert codifferential(codifferential(w)).is_zero

    def test_zero_on_scalars(self, e3):
        assert codifferential(Form.from_poly(e3, var(e3, 1) * var(e3, 2))).is_zero

    def test_divergence_formula_euclidean_one_forms(self, e3):
        # On Euclidean 1-forms, delta(sum f_i dx_i) = -sum d f_i / dx_i
        for i in range(20):
            w = random_homogeneous(e3, sample_rng(59, i), 1, max_components=3)
            div = Poly.zero(3)
            for j in range(1, 4):
                div = div + w.coefficient((j,)).partial(j)
            assert codifferential(w) == Form.from_poly(e3, div).scale(-1)

    def test_frame_contraction_formula(self):
        # delta(psi) = -sum_a eps_a i_{e_a}(d/dx_a psi) for diagonal metrics
        for ctx in all_contexts():
            for i in range(5):
                w = random_form(ctx, sample_rng(61, 10 * ctx.n + i))
                acc = Form.zero(ctx)
                for a in range(1, ctx.n + 1):
                    dw = Form(ctx, {
                        k: {idx: poly.partial(a) for idx, poly in idx_map.items()}
                        for k, idx_map in w.components.items()
                    })
                    acc = acc + interior(VectorField.frame(ctx, a), dw).scale(
                        ctx.signature[a - 1])
                assert codifferential(w) == acc.scale(-1)


    def test_closed_form_matches_literal_composite(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(63, 10 * ctx.n + i))
                assert codifferential(w) == composite_codifferential(w)

    def test_closed_form_on_every_basis_term(self):
        mixed = Context(3, (0, 0, 0), (-1, 1, -1))
        for ctx in (Context.euclidean(3), Context.minkowski(4), Context.euclidean(5), mixed):
            for k in range(ctx.n + 1):
                for idx in itertools.combinations(range(1, ctx.n + 1), k):
                    for exps in itertools.product(range(3), repeat=ctx.n):
                        if sum(exps) > 2:
                            continue
                        e = B(ctx, idx, Poly.monomial(ctx.n, exps))
                        assert codifferential(e) == composite_codifferential(e)


class TestStarTermMap:
    def test_star_matches_basis_loop(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(401, 10 * ctx.n + i))
                assert hodge_star(w) == loop_star(w)

    def test_star_inv_matches_grade_loop(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(403, 10 * ctx.n + i))
                assert hodge_star_inv(w) == loop_star_inv(w)

    def test_both_stars_on_every_basis_form(self):
        for ctx in oracle_contexts():
            for k in range(ctx.n + 1):
                for idx in itertools.combinations(range(1, ctx.n + 1), k):
                    e = B(ctx, idx, Poly.variable(ctx.n, 1))
                    assert hodge_star(e) == loop_star(e)
                    assert hodge_star_inv(e) == loop_star_inv(e)


class TestInsertionStarLemma:
    def test_insertion_vs_star(self):
        # i_{alpha sharp} star(phi) = star(phi ^ alpha)
        for ctx in all_contexts():
            for i in range(10):
                rng = sample_rng(67, 10 * ctx.n + i)
                phi = random_form(ctx, rng)
                alpha = random_homogeneous(ctx, rng, 1)
                lhs = interior(musical_sharp(alpha), hodge_star(phi))
                rhs = hodge_star(phi.wedge(alpha))
                assert lhs == rhs

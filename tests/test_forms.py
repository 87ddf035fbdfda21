import itertools
from fractions import Fraction

import pytest

from axc import Context, Form, Poly, VectorField, form_linear, interior, k_field
from axc.errors import GradeOutOfRange
from axc.forms import _merge_indices
from axc.randforms import random_form, random_poly, sample_rng
from tests.conftest import oracle_contexts
from tests.oracles import loop_add, loop_d, loop_interior, loop_wedge


def B(ctx, idx, poly=None):
    return Form.basis(ctx, idx, poly)


def var(ctx, i):
    return Poly.variable(ctx.n, i)


class TestLinear:
    def test_sum_of_basis_forms(self, e2):
        s = B(e2, (1,)) + B(e2, (2,))
        assert s.coefficient((1,)) == Poly.const(2, 1)
        assert s.coefficient((2,)) == Poly.const(2, 1)

    def test_cancellation(self, e2):
        w = random_form(e2, sample_rng(1, 0))
        assert (w + w.scale(-1)).is_zero

    @pytest.mark.parametrize("k", [-1, 3, 9])
    def test_grade_outside_range_raises_with_no_terms(self, e2, k):
        with pytest.raises(GradeOutOfRange, match=f"grade {k} outside 0..2"):
            Form(e2, {k: {}})

    def test_scale_and_linear_combination(self, e2):
        half = B(e2, (1, 2), Poly.const(2, Fraction(1, 2)))
        phi = random_form(e2, sample_rng(1, 1))
        assert form_linear(2, half, 0, phi) == B(e2, (1, 2))


def _cycle_sign(perm: tuple) -> int:
    """(-1)^(length - number of cycles) of the permutation sorting ``perm``."""
    position = {v: i for i, v in enumerate(sorted(perm))}
    seen, cycles = set(), 0
    for start in range(len(perm)):
        cycles += start not in seen
        j = start
        while j not in seen:
            seen.add(j)
            j = position[perm[j]]
    return (-1) ** (len(perm) - cycles)


class TestMergeIndices:
    def test_sign_is_the_permutation_parity(self):
        # every ordering of every index set, split at every cut; b need not be
        # sorted, as the parser passes it in the order it was written
        for n in range(1, 7):
            for length in range(5):
                for indices in itertools.combinations(range(1, n + 1), length):
                    for perm in itertools.permutations(indices):
                        for cut in range(length + 1):
                            got = _merge_indices(perm[:cut], perm[cut:])
                            assert got == (indices, _cycle_sign(perm)), (perm, cut)

    def test_repeated_index_is_none(self):
        for n in range(1, 7):
            for length in range(2, 5):
                for s in itertools.product(range(1, n + 1), repeat=length):
                    if len(set(s)) < length:
                        for cut in range(length + 1):
                            assert _merge_indices(s[:cut], s[cut:]) is None, (s, cut)


class TestWedge:
    def test_antisymmetry_of_basis(self, e2):
        dx1, dx2 = B(e2, (1,)), B(e2, (2,))
        assert dx1.wedge(dx2) == B(e2, (1, 2))
        assert dx2.wedge(dx1) == B(e2, (1, 2)).scale(-1)

    def test_repeated_index(self, e2):
        dx1 = B(e2, (1,))
        assert dx1.wedge(dx1).is_zero

    def test_coefficients_multiply(self, e2):
        left = B(e2, (2,), var(e2, 1))
        right = B(e2, (1,), var(e2, 2))
        assert left.wedge(right) == B(e2, (1, 2), -(var(e2, 1) * var(e2, 2)))

    def test_graded_commutativity(self, e3):
        for i in range(20):
            rng = sample_rng(3, i)
            a = random_form(e3, rng)
            b = random_form(e3, rng)
            lhs = a.wedge(b)
            rhs = Form.zero(e3)
            for p in a.grades():
                for q in b.grades():
                    rhs = rhs + b.grade_select(q).wedge(a.grade_select(p)).scale((-1) ** (p * q))
            assert lhs == rhs

    def test_associativity(self, e3):
        for i in range(20):
            rng = sample_rng(5, i)
            a, b, c = (random_form(e3, rng) for _ in range(3))
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


class TestInterior:
    def test_radial_on_dx1(self, e2):
        got = interior(k_field(e2), B(e2, (1,)))
        assert got == Form.from_poly(e2, var(e2, 1))

    def test_zero_on_scalars(self, e2):
        assert interior(k_field(e2), Form.from_poly(e2, var(e2, 1) + var(e2, 2))).is_zero

    def test_radial_on_area_form(self, e2):
        got = interior(k_field(e2), B(e2, (1, 2)))
        assert got == B(e2, (2,), var(e2, 1)) + B(e2, (1,), -var(e2, 2))

    def test_antiderivation(self, e3):
        # i_v(a ^ b) = i_v(a) ^ b + eta(a) ^ i_v(b)
        v = k_field(e3)
        for i in range(20):
            rng = sample_rng(7, i)
            a = random_form(e3, rng)
            b = random_form(e3, rng)
            lhs = interior(v, a.wedge(b))
            rhs = interior(v, a).wedge(b) + a.eta().wedge(interior(v, b))
            assert lhs == rhs

    def test_nilpotent(self, e3):
        v = k_field(e3)
        for i in range(20):
            w = random_form(e3, sample_rng(9, i))
            assert interior(v, interior(v, w)).is_zero


class TestExteriorDerivative:
    def test_d_of_product_scalar(self, e2):
        f = var(e2, 1) * var(e2, 2)
        got = Form.from_poly(e2, f).d()
        assert got == B(e2, (1,), var(e2, 2)) + B(e2, (2,), var(e2, 1))

    def test_d_of_constant_basis(self, e2):
        assert B(e2, (1,)).d().is_zero

    def test_d_mixed(self, e2):
        assert B(e2, (2,), var(e2, 1)).d() == B(e2, (1, 2))

    def test_d_squared_zero(self, e3, m4):
        for ctx in (e3, m4):
            for i in range(20):
                w = random_form(ctx, sample_rng(11, i))
                assert w.d().d().is_zero

    def test_leibniz(self, e3):
        for i in range(20):
            rng = sample_rng(13, i)
            a = random_form(e3, rng)
            b = random_form(e3, rng)
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) + a.eta().wedge(b.d())
            assert lhs == rhs

    def test_term_map_matches_coefficient_loop(self):
        for ctx in oracle_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(17, 10 * ctx.n + i))
                assert w.d() == loop_d(w)


class TestGradeBookkeeping:
    def test_grade_select(self, e2):
        w = Form.scalar(e2, 1) + B(e2, (1,))
        assert w.grade_select(0) == Form.scalar(e2, 1)
        assert w.grade_select(1) == B(e2, (1,))
        assert B(e2, (1,)).grade_select(2).is_zero

    def test_grade_select_range(self, e2):
        with pytest.raises(GradeOutOfRange):
            B(e2, (1,)).grade_select(3)

    def test_eta(self, e2):
        assert B(e2, (1,)).eta() == B(e2, (1,)).scale(-1)
        assert B(e2, (1, 2)).eta() == B(e2, (1, 2))
        for i in range(10):
            w = random_form(e2, sample_rng(15, i))
            assert w.eta().eta() == w

    def test_homogeneous_grade(self, e2):
        assert Form.zero(e2).homogeneous_grade() is None
        assert B(e2, (1, 2)).homogeneous_grade() == 2
        with pytest.raises(GradeOutOfRange):
            (Form.scalar(e2, 1) + B(e2, (1,))).homogeneous_grade()


class TestEvaluation:
    def test_at_center(self, e2):
        assert B(e2, (2,), var(e2, 1)).at_center().is_zero

    def test_eval_point(self, e2):
        w = B(e2, (1, 2), var(e2, 1))
        assert w.eval_at([1, 0]) == B(e2, (1, 2))

    def test_constant_form_fixed(self, e2):
        w = Form.scalar(e2, Fraction(3, 7)) + B(e2, (1,), Poly.const(2, 2))
        assert w.eval_at([5, -1]) == w

    def test_eval_absolute_respects_center(self):
        ctx = Context.euclidean(2, [Fraction(1), Fraction(0)])
        w = Form.basis(ctx, (1,), Poly.variable(2, 1))  # (x1 - 1) dx1
        assert w.eval_at([1, 0], absolute=True).is_zero


class TestVectorField:
    def test_frame(self, e3):
        e1 = VectorField.frame(e3, 1)
        assert e1.components[0] == Poly.const(3, 1)
        assert e1.components[1].is_zero


class TestTermMapsMatchLoops:
    def test_add(self):
        for ctx in oracle_contexts():
            for i in range(10):
                rng = sample_rng(405, 10 * ctx.n + i)
                a, b = random_form(ctx, rng), random_form(ctx, rng)
                assert a + b == loop_add(a, b)
                assert a + (-a) == loop_add(a, -a) == Form.zero(ctx)

    def test_wedge(self):
        for ctx in oracle_contexts():
            for i in range(10):
                rng = sample_rng(407, 10 * ctx.n + i)
                a, b = random_form(ctx, rng), random_form(ctx, rng)
                assert a.wedge(b) == loop_wedge(a, b)

    def test_interior(self):
        for ctx in oracle_contexts():
            for i in range(10):
                rng = sample_rng(409, 10 * ctx.n + i)
                w = random_form(ctx, rng)
                v = VectorField(ctx, [random_poly(rng, ctx.n, 2) for _ in range(ctx.n)])
                for field in (v, k_field(ctx), VectorField.frame(ctx, ctx.n)):
                    assert interior(field, w) == loop_interior(field, w)

import itertools
import re
import time
from fractions import Fraction

import pytest

from axc import (Context, DecompositionMode, Form, Poly, VectorField, clifford_vec_mul,
                 codifferential, cohomotopy_h, decompose, hodge_star, hodge_star_inv,
                 homotopy_H, interior, k_field, kr_maxwell_couple, laplace_beltrami, musical_flat,
                 parse_form, vacuum_dirac_classify)
from axc.errors import AxisOutOfRange, DegreeOutOfRange, DimensionMismatch, GradeOutOfRange
from axc.forms import _INDICES, _WEDGE_SIGNS, _lower, _op_table, _raise, _Table
from axc.homotopy import anticoexact_wedge_factor, center_pullback, center_top_eval
from axc.polyring import _UNITS, MAX_DEGREE, _as_fraction, _exponents, _packed, _sum_numerators
from axc.randforms import random_form, random_homogeneous, random_poly, sample_rng
from axc.solvers import _inverse_box_grad, _op_g, laplace_solve
from tests.conftest import B, chart_id, offcenter_contexts, oracle_contexts, var
from tests.oracles import (box_terms, center_terms, constant_terms, eta_terms, eval_terms,
                           fraction_fold, fraction_termwise, grade_terms, interior_terms,
                           inverse_box_terms, loop_add, loop_d, loop_interior, loop_wedge,
                           lower_terms, op_g_terms, raise_terms, star_terms, term_numerators,
                           wedge_factor_terms, wedge_terms)


class TestLinear:
    def test_sum_of_basis_forms(self, e2):
        s = B(e2, (1,)) + B(e2, (2,))
        assert s.coefficient((1,)) == Poly.const(2, 1)
        assert s.coefficient((2,)) == Poly.const(2, 1)
        mixed = B(e2, (1,)) + B(e2, (1, 2), var(e2, 2))
        assert mixed.coefficient((1, 2)) == var(e2, 2)
        assert mixed.coefficient((2,)) == mixed.coefficient(()) == Poly.zero(2)

    @pytest.mark.parametrize("idx", [(2, 1), (1.0, 2.0), (9,), (1, 1), (0, 1), (True,)],
                             ids=["unsorted", "float-indices", "above-n", "repeated", "zero",
                                  "bool-index"])
    def test_coefficient_takes_the_constructors_index_tuples(self, e3, idx):
        w = B(e3, (1, 2), var(e3, 3))
        assert w.coefficient((1, 2)) == var(e3, 3)
        with pytest.raises(GradeOutOfRange):
            w.coefficient(idx)

    @pytest.mark.parametrize("k, idx, same", [(1, (1,), range(1, 2)), (2, (1, 2), range(1, 3))],
                             ids=["grade-1", "grade-2"])
    def test_index_tuple_given_twice_raises(self, e2, k, idx, same):
        # as Poly does for exponents: two keys naming one index tuple are not summed
        with pytest.raises(ValueError, match=re.escape(f"index tuple {idx} given twice")):
            Form(e2, {k: {idx: var(e2, 1), same: var(e2, 2)}})

    def test_cancellation(self, e2):
        w = random_form(e2, sample_rng(1, 0))
        assert (w + w.scale(-1)).is_zero

    @pytest.mark.parametrize("k", [-1, 3, 9])
    def test_grade_outside_range_raises_with_no_terms(self, e2, k):
        with pytest.raises(GradeOutOfRange, match=f"grade {k} outside 0..2"):
            Form(e2, {k: {}})

    @pytest.mark.parametrize("k, idx", [(1, (1.9,)), (1, ("2",)), (True, (True,)), (1.0, (1,))],
                             ids=["float-index", "string-index", "bool-grade", "float-grade"])
    def test_grades_and_indices_are_ints(self, e2, k, idx):
        # int() would read 1.9 as 1, "2" as 2 and True as 1
        with pytest.raises(GradeOutOfRange):
            Form(e2, {k: {idx: Poly.const(2, 1)}})

    @pytest.mark.parametrize("term, error", [
        (((True,), (0, 0), 1), GradeOutOfRange),
        (((2, 1), (0, 0), 1), GradeOutOfRange),
        (((5,), (0, 0), 1), GradeOutOfRange),
        (((1,), (0, -1), 1), ValueError),
        (((1,), (True, 0), 1), DimensionMismatch),
        (((1,), (1.0, 0), 1), DimensionMismatch),
        (((1,), (0, 0, 0), 1), DimensionMismatch),
        (((1,), (0, 0), True), TypeError),
    ], ids=["bool-index", "unsorted", "above-n", "negative-exponent", "bool-exponent",
            "float-exponent", "long-exponents", "bool-coefficient"])
    @pytest.mark.parametrize("cancelled", [False, True], ids=["alone", "cancelled"])
    def test_from_terms_takes_the_constructors_rules(self, e2, term, error, cancelled):
        # each triple is checked before anything is summed, so one that a later
        # triple cancels is an input error too
        idx, exps, coef = term
        with pytest.raises(error):
            Form.from_terms(e2, [term, (idx, exps, -coef)] if cancelled else [term])

    def test_coefficient_dimension_is_the_contexts(self, e2):
        with pytest.raises(DimensionMismatch, match="coefficient dimension != context dimension"):
            Form(e2, {1: {(1,): Poly.const(3, 1)}})

    @pytest.mark.parametrize("build", [
        lambda ctx: Form(ctx, {0: {(): 5}}),
        lambda ctx: Form.basis(ctx, (1,), 3),
        lambda ctx: Form.from_poly(ctx, 3),
    ], ids=["constructor", "basis", "from_poly"])
    def test_a_coefficient_that_is_not_a_poly_is_a_type_error(self, e2, build):
        with pytest.raises(TypeError, match="is not a Poly$"):
            build(e2)

    @pytest.mark.parametrize("operation, message", [
        (lambda ctx, w: w.wedge(3), "cannot wedge a Form with int"),
        (lambda ctx, w: w.wedge(var(ctx, 1)), "cannot wedge a Form with Poly"),
        (lambda ctx, w: w.wedge(k_field(ctx)), "cannot wedge a Form with VectorField"),
        (lambda ctx, w: interior(3, w), "interior takes a VectorField and a Form"),
        (lambda ctx, w: interior(k_field(ctx), 3), "interior takes a VectorField and a Form"),
    ], ids=["wedge-int", "wedge-poly", "wedge-field", "interior-int-field", "interior-int-form"])
    def test_an_operand_of_another_class_is_a_type_error(self, e2, operation, message):
        # wedge and interior read their operands' numerators, so they check the class first
        with pytest.raises(TypeError, match=f"^{message}$"):
            operation(e2, B(e2, (1,), var(e2, 2)))

    def test_scale_and_linear_combination(self, e2):
        half = B(e2, (1, 2), Poly.const(2, Fraction(1, 2)))
        phi = random_form(e2, sample_rng(1, 1))
        assert half.scale(2) + phi.scale(0) == B(e2, (1, 2))


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


def _mask(axes) -> int:
    """The mask of the axes named, each once."""
    return sum(1 << (i - 1) for i in set(axes))


def _sorted_sign(axes) -> int:
    """dx^axes = sign * dx^sorted(axes), each dx^i wedged onto the mask of those
    before it by the kernel's sign table, as the parser reads a basis term."""
    sign, mask = 1, 0
    for i in axes:
        sign *= _WEDGE_SIGNS[mask << 16 | 1 << (i - 1)]
        mask |= 1 << (i - 1)
    return sign


class TestMergeIndices:
    """The kernel's one basis sign rule, ``forms._wedge_sign`` read through its
    table: dx^I ^ dx^J = sign * dx^(I | J) for masks I and J."""

    def test_sign_is_the_permutation_parity(self):
        # every ordering of every index set, split at every cut: sorting each
        # part and then wedging the sorted parts sorts the whole
        for n in range(1, 7):
            for length in range(5):
                for indices in itertools.combinations(range(1, n + 1), length):
                    for perm in itertools.permutations(indices):
                        for cut in range(length + 1):
                            a, b = perm[:cut], perm[cut:]
                            got = (_sorted_sign(a) * _sorted_sign(b)
                                   * _WEDGE_SIGNS[_mask(a) << 16 | _mask(b)])
                            assert got == _sorted_sign(perm) == _cycle_sign(perm), (perm, cut)

    def test_repeated_index_is_none(self):
        # a repeated index leaves no basis term: sign 0, whether the repeat
        # falls inside one part or across the two
        for n in range(1, 7):
            for length in range(2, 5):
                for s in itertools.product(range(1, n + 1), repeat=length):
                    if len(set(s)) < length:
                        assert _sorted_sign(s) == 0, s
                        for cut in range(length + 1):
                            a, b = s[:cut], s[cut:]
                            if set(a) & set(b):
                                assert _WEDGE_SIGNS[_mask(a) << 16 | _mask(b)] == 0, (s, cut)


def _increasing_tuples(n: int):
    for k in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), k)


def _decoded(op: str, idx: tuple, n: int) -> list:
    """The rows of op on dx^idx as ``(axis 0-based, image index tuple, sign,
    image exponents)``, each row's offset applied to y_1 ... y_n dx^idx, whose
    exponents are all 1, so that a step down borrows from no field."""
    key = _mask(idx) + sum(_UNITS[n])
    out = []
    for shift, offset, sign in _op_table(op, (1,) * n)[_mask(idx)]:
        image, exps = key + offset, _exponents(key + offset, n)
        assert image >> 16 * (n + 1) == sum(exps)
        out.append((shift // 16 - 1, _INDICES[image & 0xFFFF], sign, exps))
    return out


def _stepped(n: int, i: int, e: int) -> tuple:
    return tuple(e if j == i else 1 for j in range(n))


class TestGeneratorTables:
    """The rows of d (the wedge slots dx^i ^) and of H (the contraction slots)."""

    def test_tables_build_on_first_read_and_stay_bounded(self):
        built = []
        table = _Table(lambda key: built.append(key) or -key)
        assert [table[k] for k in (3, 5, 3)] == [-3, -5, -3] and built == [3, 5]
        for key in range(4096):
            assert table[key] == -key
        # the 4 097th entry empties the table first, so it never holds more than 4 096
        assert len(table) == 4096 and table[-1] == 1 and len(table) == 1
        # a row table of n = 16 holds the masks read, not all 2^16 of them
        rows, before = _op_table("h", (1,) * 16), len(_op_table("h", (1,) * 16))
        assert len(rows[1 | 1 << 15]) == 14 and len(rows) <= before + 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wedge_slots_carry_the_inversion_count_sign(self, n):
        for idx in _increasing_tuples(n):
            # dx^i ^ dx^idx: dx^i passes every index of idx below it
            want = [(i - 1, tuple(sorted(idx + (i,))), (-1) ** sum(i > j for j in idx),
                     _stepped(n, i - 1, 0)) for i in range(1, n + 1) if i not in idx]
            assert _decoded("d", idx, n) == want, idx

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contract_slots_carry_the_slot_sign(self, n):
        for idx in _increasing_tuples(n):
            want = [(a - 1, tuple(b for b in idx if b != a), (-1) ** j, _stepped(n, a - 1, 2))
                    for j, a in enumerate(idx)]
            assert _decoded("H", idx, n) == want, idx


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

    @pytest.mark.parametrize("k", [1.0, True, Fraction(1), -1])
    def test_grade_select_takes_int_grades(self, e2, k):
        # 1.0 == True == 1, but none of them is a grade
        with pytest.raises(GradeOutOfRange):
            B(e2, (1,)).grade_select(k)

    def test_eta(self, e2):
        assert B(e2, (1,)).eta() == B(e2, (1,)).scale(-1)
        assert B(e2, (1, 2)).eta() == B(e2, (1, 2))
        for i in range(10):
            w = random_form(e2, sample_rng(15, i))
            assert w.eta().eta() == w

    def test_equal_forms_hash_equal(self, e2):
        # the same form built in another term order, from terms, and through +
        p, q = var(e2, 1) * var(e2, 2) + Poly.const(2, Fraction(1, 3)), var(e2, 2).scale(-2)
        forms = [Form(e2, {0: {(): p}, 1: {(2,): q}}), Form(e2, {1: {(2,): q}, 0: {(): p}}),
                 Form.from_terms(e2, [((2,), (0, 1), -2), ((), (0, 0), Fraction(1, 3)),
                                      ((), (1, 1), 1)]),
                 B(e2, (2,), q) + Form.from_poly(e2, p),
                 Form.from_poly(e2, p) + B(e2, (1,)) + B(e2, (2,), q) - B(e2, (1,))]
        assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
        assert len(set(forms)) == 1 and forms[0] not in {Form.from_poly(e2, p)}
        assert {repr(f) for f in forms} == {
            "Form((Poly(1/3 + 1*y1^1*y2^1))*1 + (Poly(-2*y2^1))*dx2)"}
        assert repr(Form.zero(e2)) == "Form(0)"

    def test_components_is_a_read_only_view(self, e2):
        w = Form.scalar(e2, 2) + B(e2, (1,), var(e2, 2))
        view = w.components
        assert view == {0: {(): Poly.const(2, 2)}, 1: {(1,): var(e2, 2)}}
        view[1][(1,)].terms.clear()
        view[2] = {(1, 2): Poly.const(2, 1)}
        assert w.components == {0: {(): Poly.const(2, 2)}, 1: {(1,): var(e2, 2)}}
        with pytest.raises(AttributeError):
            w.components = {}

    def test_homogeneous_grade(self, e2):
        assert Form.zero(e2).homogeneous_grade() is None
        assert B(e2, (1, 2)).homogeneous_grade() == 2
        with pytest.raises(GradeOutOfRange):
            (Form.scalar(e2, 1) + B(e2, (1,))).homogeneous_grade()


# Operations on two operands, built on charts a and b; each must refuse a pair
# whose charts differ, in metric or in center alone.
CROSS_CHART_OPERATIONS = {
    "add": lambda a, b: B(a, (1,)) + B(b, (1,)),
    "sub": lambda a, b: B(a, (1,)) - B(b, (1,)),
    "wedge": lambda a, b: B(a, (1,)).wedge(B(b, (2,))),
    "interior": lambda a, b: interior(VectorField.frame(a, 1), B(b, (1,))),
    "clifford_vec_mul": lambda a, b: clifford_vec_mul(VectorField.frame(a, 1), B(b, (1,))),
    "kr_maxwell_couple": lambda a, b: kr_maxwell_couple(B(a, (1, 2)), B(b, (1,)),
                                                        Form.zero(a), Form.zero(a)),
    "vacuum_dirac_classify": lambda a, b: vacuum_dirac_classify(Form.zero(a), B(b, (1, 2))),
}


@pytest.mark.parametrize("other", [Context.minkowski(2), Context.euclidean(2, (Fraction(1, 7), 0))],
                         ids=["metric", "center"])
@pytest.mark.parametrize("operation", CROSS_CHART_OPERATIONS.values(),
                         ids=CROSS_CHART_OPERATIONS.keys())
def test_operands_on_different_charts_raise(e2, other, operation):
    with pytest.raises(DimensionMismatch, match="^operands live in different contexts$"):
        operation(e2, other)


# Public operators by the class of the operand slot they are handed x in.
OPERAND_SLOTS = {
    "hodge_star": (Form, lambda ctx, x: hodge_star(x)),
    "hodge_star_inv": (Form, lambda ctx, x: hodge_star_inv(x)),
    "codifferential": (Form, lambda ctx, x: codifferential(x)),
    "homotopy_H": (Form, lambda ctx, x: homotopy_H(x)),
    "cohomotopy_h": (Form, lambda ctx, x: cohomotopy_h(x)),
    "decompose-exact": (Form, lambda ctx, x: decompose(x, DecompositionMode.EXACT_ANTIEXACT)),
    "decompose-coexact": (Form, lambda ctx, x: decompose(x, DecompositionMode.COEXACT_ANTICOEXACT)),
    "laplace_beltrami": (Form, lambda ctx, x: laplace_beltrami(x)),
    "clifford_vec_mul-form": (Form, lambda ctx, x: clifford_vec_mul(k_field(ctx), x)),
    "clifford_vec_mul-vector": (VectorField, lambda ctx, x: clifford_vec_mul(x, B(ctx, (1,)))),
    "musical_flat": (VectorField, lambda ctx, x: musical_flat(x)),
}


@pytest.mark.parametrize("slot, operation", OPERAND_SLOTS.values(), ids=OPERAND_SLOTS.keys())
def test_an_operand_of_another_class_is_a_type_error_everywhere(e2, slot, operation):
    # the class is checked before any member is read, so no AttributeError escapes
    wrong = [3, var(e2, 1), k_field(e2) if slot is Form else B(e2, (1,), var(e2, 2))]
    for x in wrong:
        with pytest.raises(TypeError):
            operation(e2, x)


class TestEvaluation:
    def test_at_center(self, e2):
        assert B(e2, (2,), var(e2, 1)).at_center().is_zero

    def test_eval_point(self, e2):
        w = B(e2, (1, 2), var(e2, 1))
        assert w.eval_at([1, 0]) == B(e2, (1, 2))

    def test_constant_form_fixed(self, e2):
        w = Form.scalar(e2, Fraction(3, 7)) + B(e2, (1,), Poly.const(2, 2))
        assert w.eval_at([5, -1]) == w

    def test_point_has_one_entry_per_axis(self, e2):
        with pytest.raises(DimensionMismatch, match="point length != dimension"):
            B(e2, (1,)).eval_at([1, 2, 3])


class TestVectorField:
    def test_frame(self, e3):
        e1 = VectorField.frame(e3, 1)
        assert e1.components[0] == Poly.const(3, 1)
        assert e1.components[1].is_zero

    @pytest.mark.parametrize("i", [0, -1, 4, True, 1.0])
    def test_frame_takes_axes_in_range(self, e3, i):
        # comps[i - 1] would make axis 0 the last axis and True the first
        with pytest.raises(AxisOutOfRange):
            VectorField.frame(e3, i)

    @pytest.mark.parametrize("components, error, message", [
        ([Poly.const(3, 1)] * 2, DimensionMismatch, "vector field needs n components"),
        ([Poly.const(2, 1)] * 3, DimensionMismatch, "component dimension != context dimension"),
        ([1, 2, 3], TypeError, "component 1 is not a Poly"),
    ], ids=["count", "dimension", "not-a-poly"])
    def test_components_are_n_polys_on_the_chart(self, e3, components, error, message):
        with pytest.raises(error, match=message):
            VectorField(e3, components)

    def test_repr(self, e2):
        assert repr(VectorField.frame(e2, 2)) == "VectorField([Poly(0), Poly(1)])"


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


# Denominators of the term-sum tests: the coprime 7, 9 and 11 make the common
# denominator a product, not one of the inputs.
SUM_DENOMINATORS = (1, 2, 7, 9, 11)
SUM_FACTORS = (3, -1, Fraction(1, 7), Fraction(-2, 9), Fraction(5, 11), Fraction(7, 6))


def _sum_triples(ctx, rng, count):
    """Random triples over three index tuples and three exponent tuples, so
    that many collide and some cancel; coefficients are ints and Fractions."""
    indices = [tuple(sorted(rng.sample(range(1, ctx.n + 1), rng.randint(0, ctx.n))))
               for _ in range(3)]
    exponents = [tuple(rng.randint(0, 2) for _ in range(ctx.n)) for _ in range(3)]
    triples = []
    for _ in range(count):
        num, den = rng.randint(-3, 3), rng.choice(SUM_DENOMINATORS)
        triples.append((rng.choice(indices), rng.choice(exponents),
                        num if den == 1 else Fraction(num, den)))
    return triples


def _sum_map(idx, exps):
    """A term map with int and Fraction factors whose images collide across terms."""
    s = sum(exps) + len(idx)
    zeros = (0,) * len(exps)
    return [(idx, exps, *SUM_FACTORS[s % 6].as_integer_ratio()),
            ((), zeros, *SUM_FACTORS[(s + 1) % 6].as_integer_ratio()),
            (idx, zeros, *SUM_FACTORS[(s + 3) % 6].as_integer_ratio())]


def _only_fractions(form):
    return all(type(c) is Fraction for _, _, c in form.terms())


def _summed(omega, fn):
    """The linear extension of the term map ``fn`` by :func:`_sum_numerators`:
    each image ``(idx', exps', r, s)`` of a term with numerator N is the entry
    ``((idx', exps'), N * r, s)`` over the form's denominator; the reduced sums
    enter the form through ``Form.from_terms``, each over the common D'."""
    D, nums = _sum_numerators(
        [((out_idx, out_exps), N * r, s) for (idx, exps), N in term_numerators(omega)
         for out_idx, out_exps, r, s in fn(idx, exps)], omega._den)
    return Form.from_terms(omega.ctx, [(idx, exps, Fraction(v, D))
                                       for (idx, exps), v in nums.items()])


class TestTermSum:
    """Form.from_terms, _sum_numerators and every operator sum on integers
    over one common denominator; a plain Fraction fold must give the same form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_from_terms_matches_fraction_fold(self, seed):
        for ctx in oracle_contexts():
            triples = _sum_triples(ctx, sample_rng(seed, ctx.n), 40)
            form = Form.from_terms(ctx, triples)
            assert form == fraction_fold(ctx, triples)
            assert _only_fractions(form)

    @pytest.mark.parametrize("seed", range(4))
    def test_termwise_matches_fraction_fold(self, seed):
        # every operator against its old term map folded in Fractions: the
        # interior field's components lie over different denominators, so one
        # term's images fall in several groups
        for ctx in [*oracle_contexts(), offcenter_contexts()[-1]]:
            rng = sample_rng(seed, 10 + ctx.n)
            omega = _operator_sample(ctx, rng)
            cases = _operator_cases(ctx, rng, omega)
            field = next(args[0] for name, _, _, args in cases if name == "interior")
            assert len({p._den for p in field}) == ctx.n
            assert _summed(omega, _sum_map) == fraction_termwise(omega, _sum_map)
            for name, (image, source), fn, args in cases:
                oracle = fraction_termwise(source, lambda idx, exps: fn(idx, exps, *args))
                assert image == oracle, name
                assert _only_fractions(image)

    @pytest.mark.parametrize("images", [
        lambda idx, exps: [(idx, exps, 2, 5), (idx, exps, -2, 5)],
        lambda idx, exps: [(idx, exps, 1, 2), ((), exps, 2, 3),
                           (idx, exps, -3, 6), ((), exps, -4, 6)],
    ], ids=["one-denominator", "several-denominators"])
    def test_images_that_all_cancel_are_the_zero_form(self, images):
        for ctx in oracle_contexts():
            omega = fraction_fold(ctx, _sum_triples(ctx, sample_rng(7, ctx.n), 12))
            assert omega._den > 1
            image = _summed(omega, images)
            assert (image._den, image._nums) == (1, {})
            assert image == fraction_termwise(omega, images) == Form.zero(ctx)

    def test_cancelled_entries_leave_no_exponent_index_or_grade(self, e2):
        ninth, seventh = Fraction(1, 9), Fraction(2, 7)
        form = Form.from_terms(e2, [
            ((1,), (1, 0), ninth), ((1,), (0, 1), 5), ((1,), (1, 0), -ninth),
            ((1, 2), (0, 0), seventh), ((1, 2), (0, 0), -seventh),
            ((), (2, 0), Fraction(3, 11)), ((), (2, 0), Fraction(-3, 11)),
        ])
        assert form.components == {1: {(1,): Poly(2, {(0, 1): 5})}}
        assert list(form.components[1][(1,)].terms) == [(0, 1)]
        # y1 dx1 / 9 and 2 y2 dx1 / 11 map to 1 and -1 on the same term
        omega = Form.from_terms(e2, [((1,), (1, 0), ninth), ((1,), (0, 1), Fraction(2, 11))])
        image = _summed(omega, lambda idx, exps: [((), (0, 0), *((9, 1) if exps[0] else (-11, 2)))])
        assert image.components == {}

    def test_coefficients_are_fractions_never_ints(self, e2):
        # int coefficients and int factors whose sums all have denominator 1
        form = Form.from_terms(e2, [((1,), (1, 0), 2), ((1,), (1, 0), 3), ((), (0, 2), 4)])
        assert form == fraction_fold(e2, [((1,), (1, 0), 5), ((), (0, 2), 4)])
        for out in (form, form.wedge(Form.scalar(e2, 5)), form.d(),
                    form + form, form.scale(Fraction(1, 5))):
            assert not out.is_zero and _only_fractions(out)

    def test_empty_input_is_the_zero_form(self, e2):
        assert Form.from_terms(e2, []) == Form.zero(e2)
        assert Form.from_terms(e2, iter(())).components == {}
        assert _sum_numerators([]) == _sum_numerators([], 7) == (1, {})
        assert B(e2, (1,)).grade_select(0) == center_pullback(B(e2, (1,))) == Form.zero(e2)
        assert _summed(Form.zero(e2), _sum_map) == Form.zero(e2)

    @pytest.mark.parametrize("ctx", offcenter_contexts(), ids=chart_id)
    def test_relabels_keep_the_denominator_and_filters_never_raise_it(self, ctx):
        # star, star_inv and eta move or sign each term, so the denominator and
        # the term count stay; a filter can only drop terms and the common gcd
        for seed in range(4):
            omega = _operator_sample(ctx, sample_rng(seed, 20 + ctx.n))
            for image in (hodge_star(omega), hodge_star_inv(omega), omega.eta()):
                assert (image._den, len(image._nums)) == (omega._den, len(omega._nums))
            kept = [omega.at_center(), center_pullback(omega), center_top_eval(omega),
                    *(omega.grade_select(k) for k in range(ctx.n + 1))]
            assert all(omega._den % image._den == 0 for image in kept)
            assert any(image._den < omega._den for image in kept)


def _operator_sample(ctx, rng):
    """A form of :func:`_sum_triples` with constant terms of grades 0, 1 and
    n added, so that the filters keep some terms and drop others."""
    n = ctx.n
    constants = [((), (0,) * n, Fraction(-3, 2)), (tuple(range(1, n + 1)), (0,) * n, Fraction(5, 3)),
                 ((n,), (0,) * n, Fraction(1, 4))]
    return fraction_fold(ctx, _sum_triples(ctx, rng, 12) + constants)


def _operator_cases(ctx, rng, omega) -> list:
    """``(name, (image, source form), term map, its args)`` per operator that
    sums, relabels or filters: the image is the operator on omega and the
    reference folds the term map over the source form.  The interior field's
    i-th component is scaled by 1/11^i, so that its components lie over
    different denominators."""
    signature, right = ctx.signature, random_form(ctx, rng)
    field = tuple(random_poly(rng, ctx.n).scale(Fraction(1, 11 ** i)) for i in range(ctx.n))
    point = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(ctx.n)]
    delta = codifferential(omega)
    return [
        ("star", (hodge_star(omega), omega), star_terms, (signature,)),
        ("star_inv", (hodge_star_inv(omega), omega), star_terms, (signature, True)),
        ("eta", (omega.eta(), omega), eta_terms, ()),
        *((f"grade {k}", (omega.grade_select(k), omega), grade_terms, (k,))
          for k in range(ctx.n + 1)),
        ("at_center", (omega.at_center(), omega), constant_terms, ()),
        ("s*", (center_pullback(omega), omega), center_terms, (0,)),
        ("S", (center_top_eval(omega), omega), center_terms, (ctx.n,)),
        ("wedge", (omega.wedge(right), omega), wedge_terms,
         (term_numerators(right), right._den)),
        ("interior", (interior(VectorField(ctx, field), omega), omega), interior_terms,
         (field, signature)),
        ("box", (laplace_beltrami(omega), omega), box_terms, (signature,)),
        ("eval_at", (omega.eval_at(point), omega), eval_terms, (point,)),
        *((f"laplace_solve {k}", (laplace_solve(omega.grade_select(k), k), omega.grade_select(k)),
           inverse_box_terms, (signature,)) for k in range(ctx.n + 1)),
        ("wedge factor", (anticoexact_wedge_factor(omega), delta), wedge_factor_terms,
         (signature,)),
    ]


def _loop_samples(ctx, seed):
    """Forms for the whole-form loops: every grade at once with coefficient
    degrees 0..4, so H and h sum over several weights; the same with a
    constant 0-form and a constant top form added, whose terms H and h
    (weight 0, no rows) skip; and the zero form."""
    n, top = ctx.n, tuple(range(1, ctx.n + 1))
    for i in range(4):
        rng = sample_rng(seed, 10 * n + i)
        w = Form.zero(ctx)
        for k in range(n + 1):
            w = w + random_homogeneous(ctx, rng, k, 4, 2)
        yield w
        yield w + Form.scalar(ctx, Fraction(-3, 2)) + B(ctx, top, Poly.const(n, Fraction(5, 3)))
    yield Form.zero(ctx)


class TestWholeFormLoops:
    """d, delta, H, h, d G and delta G each run as one loop over the whole
    form; each equals the per-term map it replaced, folded in ``Fraction``s."""

    LOOPS = [("d", _lower, lower_terms), ("delta", _lower, lower_terms),
             ("H", _raise, raise_terms), ("h", _raise, raise_terms),
             ("d", _op_g, op_g_terms), ("delta", _op_g, op_g_terms)]

    @pytest.mark.parametrize("ctx", offcenter_contexts(), ids=chart_id)
    def test_each_loop_matches_its_per_term_map(self, ctx):
        signature, weights = ctx.signature, set()
        for omega in _loop_samples(ctx, 509):
            for op, loop, terms in self.LOOPS:
                image = loop(omega, op)
                assert image == fraction_termwise(
                    omega, lambda idx, exps: terms(idx, exps, op, signature)), (loop, op)
                assert _only_fractions(image)
            # H's weight |a| + k on each term it has rows on: H groups over several
            weights |= {sum(exps) + len(idx) for idx, exps, _ in omega.terms() if idx}
        assert len(weights) >= 3, weights


class TestCanonicalForm:
    """A form reached by different routes compares and hashes the same: equal
    forms are stored alike, whatever sums and scalings built them."""

    @staticmethod
    def _same(a, b):
        assert a == b
        assert hash(a) == hash(b)

    def test_adding_then_subtracting_gives_the_form_back(self):
        for ctx in oracle_contexts():
            rng = sample_rng(431, ctx.n)
            for _ in range(6):
                w, v = random_form(ctx, rng), random_form(ctx, rng)
                self._same((w + v) - v, w)
                self._same(w - w, Form.zero(ctx))

    def test_scaling_there_and_back_gives_the_form_back(self):
        for ctx in oracle_contexts():
            w = random_form(ctx, sample_rng(433, ctx.n))
            self._same(w.scale(Fraction(2, 3)).scale(Fraction(3, 2)), w)
            self._same(-(-w), w)
            # scale multiplies the numerators; from_terms sums the scaled terms anew
            for c in (0, -1, Fraction(3, 7), "-2/9", 5):
                factor = _as_fraction(c)
                self._same(w.scale(c), Form.from_terms(
                    ctx, [(idx, exps, coef * factor) for idx, exps, coef in w.terms()]))
            with pytest.raises(TypeError, match=re.escape("not an exact rational: 2.0")):
                w.scale(2.0)

    def test_summed_sixths_are_a_third(self, e2):
        sixth = Fraction(1, 6)
        summed = Form.from_terms(e2, [((1,), (1, 0), sixth), ((1,), (1, 0), sixth)])
        self._same(summed, Form.from_terms(e2, [((1,), (1, 0), Fraction(1, 3))]))
        self._same(summed, B(e2, (1,), var(e2, 1)).scale(Fraction(1, 3)))

    def test_a_sum_that_cancels_is_the_zero_form(self, e2):
        w = Form.from_terms(e2, [((1,), (1, 0), Fraction(2, 7)), ((), (0, 1), Fraction(5, 3))])
        v = Form.from_terms(e2, [((1,), (1, 0), Fraction(-4, 14)), ((), (0, 1), Fraction(-10, 6))])
        self._same(w + v, Form.zero(e2))
        self._same(Form.from_terms(e2, [*w.terms(), *v.terms()]), Form.zero(e2))

    def test_every_read_gives_fractions(self, e2):
        w = Form.from_terms(e2, [((1,), (1, 0), 2), ((1,), (0, 1), Fraction(3, 4)),
                                 ((1, 2), (0, 0), Fraction(-5, 6))])
        for out in (w, -w, w + w, w.scale(Fraction(4, 3)), w.d()):
            assert _only_fractions(out)
            for row in out.components.values():
                for poly in row.values():
                    assert all(type(c) is Fraction for c in poly.terms.values())
            for idx in ((1,), (1, 2)):
                assert all(type(c) is Fraction for c in out.coefficient(idx).terms.values())


def _y1(ctx, e: int, idx=(), coef=1) -> Form:
    """coef * y_1^e dx^idx."""
    return B(ctx, idx, Poly.monomial(ctx.n, (e,) + (0,) * (ctx.n - 1), coef))


class TestWidthRule:
    """A polynomial's total degree, and so a form's total coefficient degree, is
    at most MAX_DEGREE = 65 535, the width of its key's fields: at each edge and
    after each operator that raises the degree, a result of degree 65 535 passes
    and the next one up raises."""

    TOP = "coefficient degree 65536 above 65535"

    def test_the_bound_is_one_16_bit_field(self):
        assert MAX_DEGREE == 65535 == 0xFFFF

    def test_poly_constructors_products_and_powers_check_the_degree(self):
        # deg(pq) = deg p + deg q and deg p^e = e deg p, so each is checked
        # exactly, before a key is formed; a power past the width raises before
        # it squares
        y1 = Poly.variable(1, 1)
        assert Poly.monomial(1, (65535,)).terms == {(65535,): 1}
        assert (y1 ** 65535).terms == {(65535,): 1}
        assert (Poly.monomial(1, (40000,)) * Poly.monomial(1, (25535,))).terms == {(65535,): 1}
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            Poly.monomial(1, (65536,))
        start = time.process_time()
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            y1 ** 65536
        assert time.process_time() - start < 0.1
        with pytest.raises(DegreeOutOfRange, match="^coefficient degree 80000 above 65535$"):
            Poly.monomial(1, (40000,)) * Poly.monomial(1, (40000,))

    def test_the_constructors_check_the_degree(self, e2):
        assert Form(e2, {1: {(1,): Poly.monomial(2, (65000, 535))}}).max_coeff_degree() == 65535
        assert Form.from_terms(e2, [((1, 2), (535, 65000), 3)]).max_coeff_degree() == 65535
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            Form(e2, {1: {(1,): Poly.monomial(2, (65000, 536))}})
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            Form.from_terms(e2, [((1, 2), (536, 65000), 3)])
        # a single exponent past a field is past the degree too: nothing carries
        with pytest.raises(DegreeOutOfRange, match="coefficient degree 70000 above 65535"):
            Form.from_terms(e2, [((), (70000, 0), 1), ((), (70000, 0), -1)])

    def test_the_parser_checks_the_degree(self, e2):
        assert parse_form("((x1^1000)^65 * x2^535) dx1", e2).max_coeff_degree() == 65535
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            parse_form("((x1^1000)^65 * x2^536) dx1", e2)

    @pytest.mark.parametrize("op, grade", [(homotopy_H, 1), (cohomotopy_h, 0)], ids=["H", "h"])
    def test_H_and_h_raise_the_degree_by_one(self, op, grade):
        e1 = Context.euclidean(1)
        idx = (1,) * grade
        assert op(_y1(e1, 65534, idx)).max_coeff_degree() == 65535
        with pytest.raises(DegreeOutOfRange, match="^coefficient degree above 65535$"):
            op(_y1(e1, 65535, idx))
        # a term with no rows raises no degree: H of a 0-form, h of a top form
        assert op(_y1(e1, 65535, (1,) * (1 - grade))).is_zero

    def test_wedge_adds_the_degrees(self, e2):
        left = _y1(e2, 30000, (1,))
        assert left.wedge(_y1(e2, 35535, (2,))).max_coeff_degree() == 65535
        with pytest.raises(DegreeOutOfRange, match="^coefficient degree above 65535$"):
            left.wedge(_y1(e2, 35536, (2,)))
        # terms whose masks meet give no term, so no degree
        assert left.wedge(_y1(e2, 35536, (1,))).is_zero

    def test_interior_adds_the_component_degree(self):
        e1 = Context.euclidean(1)
        v = VectorField(e1, [Poly.monomial(1, (1,))])
        assert interior(v, _y1(e1, 65534, (1,))).max_coeff_degree() == 65535
        with pytest.raises(DegreeOutOfRange, match="^coefficient degree above 65535$"):
            interior(v, _y1(e1, 65535, (1,)))
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            interior(VectorField(e1, [Poly.monomial(1, (65536,))]), _y1(e1, 0, (1,)))

    def test_op_g_packs_its_gradient_under_the_rule(self, monkeypatch):
        # d/dy_i G(y^a) has degree |a| + 1, the degree of op G's image; G of a
        # degree near 65 535 takes ~10^9 steps, so the end-to-end check runs
        # with the bound lowered, and the packing itself at the real one
        assert _packed((65535, 0), 2) == 65535 * _UNITS[2][0]
        with pytest.raises(DegreeOutOfRange, match=f"^{self.TOP}$"):
            _packed((65535, 1), 2)
        # G itself has degree |a| + 2, checked before its keys are formed; the
        # gradient is cached, so no entry made under the real bound is read
        _inverse_box_grad.cache_clear()
        monkeypatch.setattr("axc.polyring.MAX_DEGREE", 5)
        e1 = Context.euclidean(1)
        assert _op_g(_y1(e1, 3), "d").max_coeff_degree() == 4
        with pytest.raises(DegreeOutOfRange, match="^coefficient degree 6 above 5$"):
            _op_g(_y1(e1, 4), "d")

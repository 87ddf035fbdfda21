import itertools
import operator
import random
import re
from fractions import Fraction

import pytest

from axc import Context, Form, Poly, rebase
from axc.errors import AxcError, AxisOutOfRange, DimensionMismatch
from axc.randforms import _random_terms, random_poly, random_rational, sample_rng
from tests.oracles import loop_poly_add, loop_poly_mul, loop_poly_partial, product_shift


def y(i, n=2):
    return Poly.variable(n, i)


def c(v, n=2):
    return Poly.const(n, Fraction(v))


class TestArithmetic:
    def test_add_cancellation(self):
        assert (y(1) + c(1)) + (-y(1)) == c(1)

    def test_add_identity(self):
        p = y(1) * y(2) + c("1/3")
        assert Poly.zero(2) + p == p

    def test_add_like_terms(self):
        half_sq = Poly.monomial(2, (2, 0), Fraction(1, 2))
        assert half_sq + half_sq == Poly.monomial(2, (2, 0), 1)

    def test_mul_difference_of_squares(self):
        assert (y(1) + y(2)) * (y(1) - y(2)) == y(1) * y(1) - y(2) * y(2)

    def test_mul_by_int_scales(self):
        p = y(1) * y(2) + c("1/3")
        assert p * 3 == 3 * p == p.scale(3) == p + p + p
        assert p * 0 == Poly.zero(2)

    @pytest.mark.parametrize("product", [lambda p: p * 2.0, lambda p: 2.0 * p, lambda p: p * None],
                             ids=["poly*float", "float*poly", "poly*None"])
    def test_mul_by_a_non_rational_is_a_type_error(self, product):
        # the scalar rule is scale's, as for Poly.scale(2.0) and Poly * True
        with pytest.raises(TypeError, match="not an exact rational"):
            product(y(1) + c("1/3"))

    @pytest.mark.parametrize("op, operation", [
        ("+", lambda p, w: p + 1),
        ("-", lambda p, w: p - 2.0),
        ("+", lambda p, w: p + None),
        ("+", lambda p, w: w + 1),
        ("-", lambda p, w: w - p),
        ("+", lambda p, w: p + w),
    ], ids=["poly+int", "poly-float", "poly+None", "form+int", "form-poly", "poly+form"])
    def test_add_and_sub_of_another_class_are_type_errors(self, op, operation):
        # a number is not lifted to a constant, and the error names the
        # operator the caller wrote, "-" too
        p = y(1) + c("1/3")
        w = Form.from_poly(Context.euclidean(2), p)
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {op}:")):
            operation(p, w)

    def test_a_poly_never_equals_a_form(self):
        p = y(1) + c("1/3")
        w = Form.from_poly(Context.euclidean(2), p)
        assert p != w and w != p

    def test_equal_polys_hash_equal(self):
        # the same polynomial built in another term order, from pairs, and through +
        polys = [Poly(2, {(1, 1): 1, (0, 0): Fraction(1, 3)}),
                 Poly(2, {(0, 0): Fraction(1, 3), (1, 1): 1}),
                 Poly.from_terms(2, [((1, 1), 2), ((0, 0), Fraction(1, 3)), ((1, 1), -1)]),
                 c("1/3") + y(1) * y(2), y(1) * y(2) + y(1) + c("1/3") - y(1)]
        assert all(p == polys[0] and hash(p) == hash(polys[0]) for p in polys)
        assert len(set(polys)) == 1 and polys[0] not in {y(1) * y(2), Poly.zero(2)}
        assert {repr(p) for p in polys} == {"Poly(1/3 + 1*y1^1*y2^1)"}
        assert repr(Poly.zero(2)) == "Poly(0)"

    def test_mul_by_zero(self):
        assert (y(1) + c(5)) * Poly.zero(2) == Poly.zero(2)

    def test_mul_rational_coefficients(self):
        assert (y(1).scale(Fraction(1, 3))) * (y(2).scale(3)) == y(1) * y(2)

    def test_dimension_mismatch(self):
        # the message a Form's operands on different charts raise
        for operation in (operator.add, operator.sub, operator.mul):
            with pytest.raises(DimensionMismatch, match="^operands live in different contexts$"):
                operation(Poly.variable(2, 1), Poly.variable(3, 1))


class TestCalculus:
    def test_partial_product(self):
        p = y(1) * y(1) * y(2)
        assert p.partial(1) == (y(1) * y(2)).scale(2)

    def test_partial_absent_variable(self):
        assert y(1).partial(2) == Poly.zero(2)

    def test_partial_constant(self):
        assert c(5).partial(1) == Poly.zero(2)

    def test_partial_axis_range(self):
        with pytest.raises(AxisOutOfRange):
            y(1).partial(3)

    @pytest.mark.parametrize("i", [True, 1.0, Fraction(1), 0])
    def test_partial_takes_int_axes(self, i):
        # True == 1.0 == 1, but none of them is an axis
        with pytest.raises(AxisOutOfRange):
            (y(1) * y(2)).partial(i)

    @pytest.mark.parametrize("i", [True, 1.0, Fraction(1), 0, 3])
    def test_variable_takes_int_axes(self, i):
        with pytest.raises(AxisOutOfRange):
            Poly.variable(2, i)

    def test_eval(self):
        assert (y(1) * y(2)).eval([2, 3]) == 6

    def test_eval_at_origin_is_constant_term(self):
        p = y(1) * y(1) + c("7/2")
        assert p.eval([0, 0]) == Fraction(7, 2)

    @pytest.mark.parametrize("call, message", [
        (lambda p: p.eval([1]), "point length != dimension"),
        (lambda p: p.shift([1, 2, 3]), "shift vector length != dimension"),
        (lambda p: rebase(p, [0], [0, 0]), "center length != dimension"),
        (lambda p: rebase(p, [0, 0], [0, 0, 0]), "center length != dimension"),
    ], ids=["eval", "shift", "rebase-old", "rebase-new"])
    def test_points_have_one_entry_per_axis(self, call, message):
        with pytest.raises(DimensionMismatch, match=message):
            call(y(1) + c(1))


class TestRebase:
    def test_shift_by_one(self):
        # y1 centered at 0, re-centered at 1: y1' + 1
        assert rebase(y(1), [0, 0], [1, 0]) == y(1) + c(1)

    def test_constant_unchanged(self):
        assert rebase(c("2/3"), [0, 0], [5, -1]) == c("2/3")

    def test_round_trip(self):
        rng = sample_rng(17, 0)
        for i in range(30):
            p = random_poly(sample_rng(17, i), 3, max_degree=3, max_terms=3)
            a = [Fraction(1), Fraction(-2, 3), Fraction(0)]
            b = [Fraction(5, 7), Fraction(2), Fraction(-1)]
            assert rebase(rebase(p, a, b), b, a) == p


class TestRingAxioms:
    def test_ring_axioms_sampled(self):
        for i in range(50):
            rng = sample_rng(23, i)
            p = random_poly(rng, 2, 3, 3)
            q = random_poly(rng, 2, 3, 3)
            r = random_poly(rng, 2, 3, 3)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_partials_commute(self):
        for i in range(50):
            p = random_poly(sample_rng(29, i), 3, 4, 3)
            assert p.partial(1).partial(2) == p.partial(2).partial(1)

    def test_everything_is_fraction(self):
        for i in range(20):
            p = random_poly(sample_rng(31, i), 2, 3, 3)
            q = p * p + p
            assert all(isinstance(v, Fraction) for v in q.terms.values())
        # int coefficients in, Fractions out, through +, partial and scale too
        p = Poly.from_terms(2, [((1, 2), 3), ((0, 2), 2), ((1, 2), 4)])
        for q in (p, p + p, p + Poly.from_terms(2, [((0, 0), 5)]), p.partial(2), p.scale(3)):
            assert q.terms and all(type(v) is Fraction for v in q.terms.values())


class TestCanonicalForm:
    """A polynomial reached by different routes compares and hashes the same:
    equal polynomials store equal integers over one reduced denominator."""

    @staticmethod
    def _same(a, b):
        assert a == b
        assert hash(a) == hash(b)

    def test_summed_sixths_are_a_third(self):
        summed = Poly.const(1, Fraction(1, 6)) + Poly.const(1, Fraction(1, 6))
        self._same(summed, Poly.const(1, Fraction(1, 3)))
        assert summed._den == 3

    def test_sums_and_scalings_there_and_back_give_the_poly_back(self):
        for i in range(20):
            rng = sample_rng(37, i)
            p, q = random_poly(rng, 3, 3, 3), random_poly(rng, 3, 3, 3)
            self._same((p + q) - q, p)
            self._same(p.scale(Fraction(2, 3)).scale(Fraction(3, 2)), p)
            self._same(p - p, Poly.zero(3))
            assert (p - p)._den == 1

    def test_integer_results_store_denominator_one(self):
        half_sq = Poly.monomial(2, (2, 0), Fraction(1, 2))
        self._same(half_sq.partial(1), y(1))
        assert half_sq.partial(1)._den == 1
        product = y(2).scale(Fraction(2, 3)) * y(1).scale(Fraction(3, 2))
        self._same(product, y(1) * y(2))
        assert product._den == 1

    def test_every_read_gives_fractions(self):
        p = Poly.from_terms(2, [((1, 0), 2), ((0, 1), Fraction(3, 4)), ((0, 0), -5)])
        shifted = p.shift([1, Fraction(1, 2)])
        for q in (p, -p, p * p, p.scale(Fraction(4, 3)), p.partial(1), shifted):
            assert q.terms and all(type(v) is Fraction for v in q.terms.values())
            assert all(type(v) is Fraction for _, v in q.sorted_terms())
            for point in ([0, 0], [1, Fraction(1, 3)]):
                assert type(q.eval(point)) is Fraction

    def test_terms_is_read_only(self):
        p = y(1) + c("1/3")
        with pytest.raises(AttributeError):
            p.terms = {}
        p.terms.clear()  # a fresh dict per read: clearing it leaves p as it was
        assert p == y(1) + c("1/3")


class TestRandomDraws:
    def test_random_rational_draws_as_random_terms_do(self):
        # the benchmark draws dense coefficients by random_rational and the
        # kernel's random forms by _random_terms; both take the same two draws
        for i in range(30):
            terms_rng, rational_rng = sample_rng(41, i), sample_rng(41, i)
            [(_, num, den)] = _random_terms(terms_rng, 1, max_degree=0, max_terms=1)
            rational_rng.randint(1, 1)  # the term count _random_terms draws first
            rational_rng.randint(0, 0)  # and the degree budget, which draws no exponent
            assert random_rational(rational_rng) == Fraction(num, den)
            assert rational_rng.getstate() == terms_rng.getstate()


class TestContext:
    def test_equality_hash_and_immutability(self):
        a = Context(2, ("1/7", 0), (1, -1))
        b = Context(2, (Fraction(1, 7), Fraction(0)), (1, -1))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Context(2, (Fraction(1, 7), Fraction(0)), (1, 1))
        assert a.center == (Fraction(1, 7), Fraction(0)) and a.signature == (1, -1)
        for field in ("n", "center", "signature"):
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(b, field))
        with pytest.raises(DimensionMismatch):
            Context(0, (), ())
        with pytest.raises(DimensionMismatch):
            Context(n=2, center=(0, 0), signature=(1,))
        with pytest.raises(DimensionMismatch):
            a._replace(signature=(1, 2))
        assert a._replace(center=("2/3", 0)).center == (Fraction(2, 3), Fraction(0))

    def test_signature_product(self):
        assert Context.minkowski(4).sig == -1
        assert Context.euclidean(3).sig == 1

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            Context(2, (0,), (1, 1))
        with pytest.raises(DimensionMismatch):
            Context(2, (0, 0), (1, 2))

    @pytest.mark.parametrize("build", [
        lambda: Context(2.0, (0, 0), (1, 1)),
        lambda: Context(True, (0,), (1,)),
        lambda: Poly(1, {(True,): 1}),
        lambda: Poly.monomial(2, (True, 0)),
        lambda: Poly.monomial(2, (1.0, 0)),
    ], ids=["float-dimension", "bool-dimension", "bool-exponent", "bool-monomial",
            "float-monomial"])
    def test_dimensions_and_exponents_are_ints(self, build):
        # bool is an int subclass and 2.0 == 2; neither is a dimension or an exponent
        with pytest.raises(DimensionMismatch):
            build()

    @pytest.mark.parametrize("terms", [{range(1, 2): 1, (1,): 2}, {(1,): 0, range(1, 2): 2}],
                             ids=["both-nonzero", "first-zero"])
    def test_two_keys_for_one_exponent_tuple_are_an_input_error(self, terms):
        # the constructor keeps what it is handed and sums nothing
        with pytest.raises(ValueError, match="given twice"):
            Poly(1, terms)

    @pytest.mark.parametrize("exps, error", [
        ((1,), DimensionMismatch), ((1, -1), ValueError),
        ((True, 0), DimensionMismatch), ((1.0, 0), DimensionMismatch),
    ], ids=["short", "negative", "bool", "float"])
    @pytest.mark.parametrize("cancelled", [False, True], ids=["alone", "cancelled"])
    def test_from_terms_takes_the_constructors_exponents(self, exps, error, cancelled):
        # each pair is checked before anything is summed, so one that a later
        # pair cancels is an input error too
        with pytest.raises(error):
            Poly.from_terms(2, [(exps, 1), (exps, -1)] if cancelled else [(exps, 1)])

    def test_from_terms_takes_the_constructors_coefficients_and_dimension(self):
        # a bool coefficient that would be summed is no rational either
        with pytest.raises(TypeError):
            Poly.from_terms(2, [((1, 0), True), ((1, 0), -1)])
        for n in (0, True, 2.0):
            with pytest.raises(DimensionMismatch, match="dimension must be a positive integer"):
                Poly.from_terms(n, [])

    @pytest.mark.parametrize("n", [2.0, True, 0, -1, Fraction(2)])
    def test_poly_dimension_is_a_positive_int(self, n):
        # the rule and the message of Context's dimension
        with pytest.raises(DimensionMismatch, match="dimension must be a positive integer"):
            Poly(n)

    def test_signature_entries_are_integers(self):
        # int() would read 1.9 as 1 and True as 1
        for signature in [(1.9, -1), (1.0, -1), (True, -1), (Fraction(1), -1), ("1", -1)]:
            with pytest.raises(DimensionMismatch):
                Context(2, (0, 0), signature)

    @pytest.mark.parametrize("e", [True, False, 2.0, Fraction(2)])
    def test_power_takes_int_exponents(self, e):
        # True == 1 and 2.0 == 2, but neither is an exponent
        with pytest.raises(TypeError):
            Poly.variable(2, 1) ** e

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            Poly.variable(2, 1) ** -1

    def test_bools_are_not_rationals(self):
        # bool is an int subclass; JSON rejects true, and so does the library
        with pytest.raises(TypeError):
            Context(2, (True, 0), (1, 1))
        with pytest.raises(TypeError):
            Poly.const(2, True)
        with pytest.raises(TypeError):
            Poly.monomial(2, (1, 0), False)
        with pytest.raises(TypeError):
            y(1).scale(True)

    def test_string_values_follow_the_grammar(self):
        # Fraction(str) would read all of these; the text grammar and JSON reject them
        assert Poly.const(1, " -3/4 ") == Poly.const(1, Fraction(-3, 4))
        assert Context(1, ("1/7",), (1,)).center == (Fraction(1, 7),)
        for text in ["1.5", "1e3", " 1_0 ", "1/0", ""]:
            with pytest.raises(AxcError):
                Poly.const(1, text)
            with pytest.raises(AxcError):
                Context(1, (text,), (1,))


# Shift entries: zeros, negatives, and denominators 7 and 9.
_SHIFT_ENTRIES = [Fraction(0), Fraction(-3, 7), Fraction(2, 9), Fraction(0), Fraction(-1),
                  Fraction(5, 7), Fraction(-4, 9), Fraction(3)]


def _seeded_terms(rng: random.Random, n: int) -> dict:
    """A plain exponent -> coefficient map; empty (the zero polynomial) now and then."""
    max_degree = 4 if n <= 3 else 3
    out = {}
    for _ in range(rng.randint(0, 5)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Fraction(rng.choice([-9, -5, -2, -1, 1, 3, 7]), rng.choice([1, 2, 7, 9]))
    return out


def _seeded_pairs(n: int, count: int = 12):
    """(p, q) maps for dimension n; every third q cancels part of p."""
    rng = random.Random(4000 + n)
    pairs = [({}, _seeded_terms(rng, n)), ({}, {})]
    for i in range(count):
        p, q = _seeded_terms(rng, n), _seeded_terms(rng, n)
        if i % 3 == 0:
            q.update({exps: -coef for exps, coef in itertools.islice(p.items(), 2)})
        pairs.append((p, q))
    return pairs


def _shift_vectors(n: int):
    vectors = [(Fraction(0),) * n]
    for start in range(4):
        vectors.append(tuple(_SHIFT_ENTRIES[(start + i) % len(_SHIFT_ENTRIES)] for i in range(n)))
    return vectors


class TestAgainstLoops:
    """The term driver against the term-by-term loops on plain dicts, n = 1..6."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_add_and_mul(self, n):
        for p, q in _seeded_pairs(n):
            assert (Poly(n, p) + Poly(n, q)).terms == loop_poly_add(p, q)
            assert (Poly(n, p) * Poly(n, q)).terms == loop_poly_mul(p, q)
            assert (Poly(n, p) - Poly(n, p)).terms == {}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_from_terms_over_repeated_exponents(self, n):
        # few exponent tuples, so they repeat, and some zero coefficients; every
        # fourth pair cancels an earlier one; short lists often repeat nothing
        rng = random.Random(4200 + n)
        pool = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(4)]
        for _ in range(10):
            pairs = []
            for i in range(rng.randint(0, 14)):
                if i % 4 == 3:
                    exps, coef = rng.choice(pairs)
                    pairs.append((exps, -coef))
                    continue
                pairs.append((rng.choice(pool), Fraction(rng.choice([-9, -5, -2, 0, 1, 3, 7]),
                                                         rng.choice([1, 2, 7, 9, 11]))))
            want = {}
            for exps, coef in pairs:
                want = loop_poly_add(want, {exps: coef})
            assert Poly.from_terms(n, pairs).terms == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partial(self, n):
        for p, _ in _seeded_pairs(n):
            for i in range(1, n + 1):
                assert Poly(n, p).partial(i).terms == loop_poly_partial(p, i)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shift(self, n):
        for p, q in _seeded_pairs(n):
            for delta in _shift_vectors(n):
                assert Poly(n, p).shift(delta).terms == product_shift(p, delta)
                assert Poly(n, q).shift(delta).terms == product_shift(q, delta)

    def test_shift_with_zero_axes(self):
        p = {(5, 0, 2): Fraction(-3, 7), (0, 9, 1): Fraction(2, 9)}
        assert Poly(3, p).shift([0, 0, 0]).terms == p
        assert Poly(3, p).shift([0, Fraction(1, 7), 0]).terms == product_shift(p, [0, Fraction(1, 7), 0])

    def test_shift_lines_with_gaps(self):
        # one line per fixed exponent of the other axis; gaps inside each line
        p = {(7, 0): Fraction(-3, 7), (2, 3): Fraction(5, 9), (0, 5): Fraction(1),
             (4, 3): Fraction(2), (0, 0): Fraction(-1, 2)}
        for delta in ([Fraction(2, 9), 0], [0, Fraction(-3, 7)], [Fraction(5, 7), Fraction(-4, 9)]):
            assert Poly(2, p).shift(delta).terms == product_shift(p, delta)

    def test_shift_integer_negative_and_zero_entries(self):
        # every line on an axis is scaled by Q^A with the axis' largest exponent A,
        # also the lines of lower degree
        p = {(6, 1, 0): Fraction(1, 3), (1, 0, 2): Fraction(-7, 2), (0, 4, 5): Fraction(4, 9),
             (2, 2, 2): Fraction(-1)}
        for delta in ([3, Fraction(-5, 7), 0], [0, -2, Fraction(7, 3)],
                      [Fraction(-1, 8), 0, -1], [1, 1, 1]):
            assert Poly(3, p).shift(delta).terms == product_shift(p, delta)

    def test_high_degree_shift_round_trip(self):
        p = Poly(2, {(1000, 0): Fraction(1), (0, 1000): Fraction(-3, 4)})
        delta = [Fraction(1, 7), Fraction(3, 5)]
        there = p.shift(delta)
        assert len(there.terms) == 2001  # the two constant terms add up
        assert there.shift([-d for d in delta]) == p

    def test_power(self):
        for p, _ in _seeded_pairs(2, count=6):
            want = {(0, 0): Fraction(1)}
            for e in range(5):
                assert (Poly(2, p) ** e).terms == want
                want = loop_poly_mul(want, p)

    def test_scale_and_negation(self):
        p = {(2, 0, 1): Fraction(-3, 7), (0, 1, 0): Fraction(5, 9), (0, 0, 0): Fraction(1)}
        assert (-Poly(3, p)).terms == {exps: -coef for exps, coef in p.items()}
        assert Poly(3, p).scale(Fraction(-2, 9)).terms == {exps: coef * Fraction(-2, 9)
                                                          for exps, coef in p.items()}
        assert Poly(3, p).scale(0).terms == {}

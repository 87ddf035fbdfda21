import hashlib
import itertools
import json
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from axc import (
    Context,
    Form,
    OperatorTag,
    Poly,
    apply_operator,
    codifferential,
    cohomotopy_h,
    dirac_source_solve,
    form_from_json,
    form_to_json,
    hodge_star,
    hodge_star_inv,
    homotopy_H,
    identities,
    kalb_ramond_solve,
    maxwell_solve,
    maxwell_solve_magnetic,
    oscillator_eigencheck,
    parse_form,
    print_form,
    vacuum_dirac_classify,
)
from axc import cli
from axc.cli import main
from axc.errors import (DimensionMismatch, FormSyntaxError, InconsistentSystem,
                        NonRationalLiteral, NotASolution)
from axc.polyring import MAX_DIMENSION, _exponents, _packed
from axc.textio import (
    MAX_EXPONENT, MAX_NESTING, MAX_TERMS, _Parser, load_form_text, parse_rational)
from axc.randforms import random_form, random_homogeneous, sample_rng
from tests.conftest import B, cli_choices, cli_subcommands_with, offcenter_contexts, var
from tests.oracles import loop_poly_mul


class TestParser:
    def test_basis_one_form(self, e2):
        assert parse_form("dx1", e2) == B(e2, (1,))

    def test_polynomial_coefficient(self, e2):
        got = parse_form("(3/2*x1^2 - 1) dx1^dx2", e2)
        coeff = (var(e2, 1) * var(e2, 1)).scale(Fraction(3, 2)) + Poly.const(2, -1)
        assert got == B(e2, (1, 2), coeff)

    def test_reordered_basis_picks_up_sign(self, e2):
        assert parse_form("dx2^dx1", e2) == B(e2, (1, 2)).scale(-1)

    def test_repeated_basis_is_zero(self, e2):
        assert parse_form("dx1^dx1", e2).is_zero

    def test_term_and_basis_signs_multiply(self, e3):
        got = parse_form("-(x1 - 2) dx2^dx1 + (3*x2) dx1^dx1 - x2 dx3^dx1^dx2", e3)
        want = B(e3, (1, 2), var(e3, 1) - Poly.const(3, 2)) + B(e3, (1, 2, 3), -var(e3, 2))
        assert got == want

    def test_mixed_grades(self, e2):
        got = parse_form("3 + x1 dx2", e2)
        assert got == Form.scalar(e2, 3) + B(e2, (2,), var(e2, 1))

    def test_aliases_small(self, e3):
        assert parse_form("dy", e3) == B(e3, (2,))
        assert parse_form("z dx", e3) == B(e3, (1,), var(e3, 3))

    def test_aliases_four(self, m4):
        assert parse_form("dt^dz", m4) == B(m4, (1, 4))

    def test_center_rebase(self):
        ctx = Context.euclidean(2, [Fraction(1), Fraction(0)])
        got = parse_form("x1 dx1", ctx)
        # absolute x1 = centered y1 + 1
        assert got == Form.basis(ctx, (1,), Poly.variable(2, 1) + Poly.const(2, 1))

    def test_rejects_float_literal(self, e2):
        with pytest.raises(NonRationalLiteral):
            parse_form("1.5 dx1", e2)

    def test_parenthesized_power_coefficient(self, e2):
        assert parse_form("(x1)^3 dx2", e2) == parse_form("x1^3 dx2", e2)
        assert parse_form("(x1 + 1)^2", e2) == parse_form("(x1^2 + 2*x1 + 1)", e2)

    def test_nesting_cap(self, e2):
        ok = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING + " dx1"
        assert parse_form(ok, e2) == B(e2, (1,), var(e2, 1))
        deep = "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1) + " dx1"
        with pytest.raises(FormSyntaxError):
            parse_form(deep, e2)
        with pytest.raises(FormSyntaxError):
            parse_form("-" * (MAX_NESTING + 2) + "1", e2)

    @pytest.mark.parametrize("text, same_as", [
        ("(x2 + -x1^2) dx1", "(x2 - x1^2) dx1"),
        ("(x2*-x1^2) dx1", "(-x1^2*x2) dx1"),
        ("-x1^2 dx1", "(-(x1^2)) dx1"),
        ("(-x1)^2 dx1", "(x1^2) dx1"),
        ("(-2/5^2) dx1", "(-4/25) dx1"),
        ("(x2*--x1^3) dx1", "(x1^3*x2) dx1"),
    ])
    def test_unary_minus_binds_looser_than_a_power(self, e2, text, same_as):
        # "-" factor negates the factor's power, wherever the "-" stands
        assert parse_form(text, e2) == parse_form(same_as, e2)

    def test_a_power_after_a_unary_minus_takes_no_second_power(self, e2):
        for text in ("-x1^2^3 dx1", "(x2 + -x1^2^3) dx1"):
            with pytest.raises(FormSyntaxError, match="found '\\^'"):
                parse_form(text, e2)

    def test_unary_minus_signs_count_toward_the_nesting_cap(self, e2):
        # a "-" that opens a sum is its sign; the one after "*" is a unary minus
        ok = "(" * (MAX_NESTING - 1) + "x2*-x1" + ")" * (MAX_NESTING - 1) + " dx1"
        assert parse_form(ok, e2) == B(e2, (1,), -var(e2, 1) * var(e2, 2))
        deep = "(" * MAX_NESTING + "x2*-x1" + ")" * MAX_NESTING + " dx1"
        with pytest.raises(FormSyntaxError) as raised:
            parse_form(deep, e2)
        assert str(raised.value) == (
            f"polynomial nested deeper than {MAX_NESTING} (at position {MAX_NESTING + 3})")

    def test_rejects_zero_denominator(self, e2):
        with pytest.raises(NonRationalLiteral):
            parse_form("(1/0) dx1", e2)

    def test_exponent_cap(self, e2):
        top = Poly.monomial(2, (MAX_EXPONENT, 0))
        assert parse_form(f"x1^{MAX_EXPONENT} dx1", e2) == B(e2, (1,), top)
        # the error names the bound and the position of the exponent
        for text, position in [(f"x1^{MAX_EXPONENT + 1} dx1", 3), (f"(x1 + 1/7)^{MAX_EXPONENT + 1}", 11)]:
            with pytest.raises(FormSyntaxError) as raised:
                parse_form(text, e2)
            assert str(raised.value) == (
                f"exponent {MAX_EXPONENT + 1} above {MAX_EXPONENT} (at position {position})")

    def test_explicit_star_before_a_basis(self, e2):
        got = parse_form("2*dx1 - x2*dx2^dx1", e2)
        assert got == parse_form("2 dx1 + x2 dx1^dx2", e2)
        assert got == B(e2, (1,), Poly.const(2, 2)) + B(e2, (1, 2), var(e2, 2))

    @pytest.mark.parametrize("text, n, terms", [
        ("((1+x1)^99*(1+x2)^99) dx1", 2, MAX_TERMS),
        ("((1+x1)^100*(1+x1)^100) dx1", 1, 201),
    ], ids=["bound-at-cap", "bound-clamped"])
    def test_expansion_up_to_the_cap_parses(self, text, n, terms):
        # 100 x 100 products are bounded by exactly MAX_TERMS; the 101 x 101
        # products in one variable are 10 201 pairs, bounded by the C(1 + 200, 1)
        # monomials of degree at most 200
        got = parse_form(text, Context.euclidean(n))
        assert len(got.coefficient((1,)).terms) == terms

    @pytest.mark.parametrize("method", ["parse_poly_factor", "parse_poly_term"])
    def test_factors_and_terms_are_integer_numerators_over_one_denominator(self, method):
        # the kernel's one number format, (D, {key: int}): a positive int D and
        # nonzero int numerators keyed by valid monomial keys (each the packing of
        # its own exponents, mask 0), read to the end of each text
        ctx = Context(3, (Fraction(1, 7), Fraction(-2, 3), Fraction(5)), (1, -1, 1))
        texts = ["0", "3/4", "x2", "-x1^3", "(x1 - x1)", "(x1 + 1/2)^3", "-(2/3*x1 - 5/9*x2)",
                 "(0)^0", "(x1*x2 - 1/6)^0", "--7/4^2"]
        if method == "parse_poly_term":
            texts += ["2/3*x1^2*-x2*(x1 + 1/5)^2", "(1/6)^2*0*x3", "(x1 + x2)*(x1 - x2)*1/3"]
        for text in texts:
            parser = _Parser(text, ctx)
            D, nums = getattr(parser, method)()
            assert parser.peek()[0] == "end", text
            assert type(D) is int and D > 0, text
            assert all(type(v) is int and v for v in nums.values()), text
            assert all(type(e) is int and e == _packed(_exponents(e, 3), 3) for e in nums), text

    def test_term_is_the_product_of_its_factors(self, e2):
        # rationals and variables fold into one monomial, and only parenthesized
        # factors multiply as Polys; the term is still the product of them all
        x1, x2, one = var(e2, 1), var(e2, 2), Poly.const(2, 1)
        cases = {
            "(2/3*x1^2*-x2*x1) dx1": (x1 * x1 * x2 * x1).scale(Fraction(-2, 3)),
            "(x2*(x1 + 1)^2*-3) dx1": x2 * (x1 + one) * (x1 + one) * Poly.const(2, -3),
            "(-(x1 - x2)*x1*(x1 + x2)*1/2) dx1": ((x2 - x1) * x1 * (x1 + x2)).scale(Fraction(1, 2)),
            "(0*(x1 + 1)*x2 + x1*(x2 - x2)) dx1": Poly.zero(2),
            "-(x1 + 1)^2 dx1": -((x1 + one) * (x1 + one)),
        }
        for text, coeff in cases.items():
            assert parse_form(text, e2) == B(e2, (1,), coeff), text

    def test_rejects_garbage(self, e2):
        with pytest.raises(FormSyntaxError):
            parse_form("dx1 ^^ dx2", e2)

    def test_rejects_unknown_variable(self, e2):
        with pytest.raises(FormSyntaxError):
            parse_form("q dx1", e2)

    @pytest.mark.parametrize("text", ["\u00b2", "1\u00b2", "\u0663"], ids=["sup2", "1sup2", "arabic3"])
    def test_rejects_non_ascii_digits_in_rationals(self, text):
        # str.isdigit accepts all three: int() then raised ValueError on the
        # superscript and read the Arabic-Indic digit as 3
        with pytest.raises((FormSyntaxError, NonRationalLiteral)):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["x\u0663 dx1", "x1^\u00b2 dx1"], ids=["axis", "exponent"])
    def test_rejects_non_ascii_digits_in_forms(self, e2, text):
        with pytest.raises((FormSyntaxError, NonRationalLiteral)):
            parse_form(text, e2)

    def test_power_matches_repeated_products(self, e2):
        bases = {"(x1 + 1/7)": {(1, 0): Fraction(1), (0, 0): Fraction(1, 7)},
                 "(2/3*x1 - 5/9*x2 + 1/2)": {(1, 0): Fraction(2, 3), (0, 1): Fraction(-5, 9),
                                            (0, 0): Fraction(1, 2)},
                 "(x2 - 1)": {(0, 1): Fraction(1), (0, 0): Fraction(-1)}}
        for text, base in bases.items():
            want = {(0, 0): Fraction(1)}
            for e in range(7):
                assert parse_form(f"{text}^{e} dx1", e2) == B(e2, (1,), Poly(2, want))
                want = loop_poly_mul(want, base)


class TestPrinter:
    def test_zero(self, e2):
        assert print_form(Form.zero(e2)) == "0"

    def test_negative_area_form(self, e2):
        assert print_form(B(e2, (1, 2)).scale(-1)) == "(-1) dx1^dx2"

    def test_prints_absolute_coordinates(self):
        ctx = Context.euclidean(2, [Fraction(1), Fraction(0)])
        w = Form.basis(ctx, (1,), Poly.variable(2, 1))  # centered y1 = x1 - 1
        assert print_form(w) == "(-1 + x1) dx1"

    def test_round_trip_random(self):
        for ctx in offcenter_contexts():
            for i in range(25):
                w = random_form(ctx, sample_rng(263, 100 * ctx.n + i))
                text = print_form(w)
                again = parse_form(text, ctx)
                assert again == w
                assert print_form(again) == text

    # SHA-1 of the text and JSON below as printed when ``Poly.shift`` still
    # multiplied out (y + delta)^e factor by factor; the closed binomial
    # expansion must print every byte the same.
    GOLDEN_SHA1 = "0447d82ee8163905f9bf9106105319001eae12c0"

    @staticmethod
    def _golden_forms():
        """Dense seeded forms, n = 1..4, on off-center charts with negative centers."""
        rng = random.Random(6007)
        entries = [Fraction(-3, 7), Fraction(2, 9), Fraction(-1), Fraction(5, 9),
                   Fraction(0), Fraction(-4, 9), Fraction(6, 7)]
        for n in range(1, 5):
            degree = 5 if n <= 2 else 3
            for sample in range(3):
                center = [entries[(sample + 2 * i) % len(entries)] for i in range(n)]
                signature = [rng.choice((1, -1)) for _ in range(n)]
                components = {}
                for k in sorted(rng.sample(range(n + 1), min(2, n + 1))):
                    idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
                    components[k] = {idx: Poly(n, {
                        exps: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for exps in itertools.product(range(degree + 1), repeat=n)
                        if sum(exps) <= degree})}
                yield Form(Context(n, center, signature), components)

    def test_golden_digest(self):
        printed = []
        for w in self._golden_forms():
            printed += [print_form(w), json.dumps(form_to_json(w), indent=2, sort_keys=True)]
        digest = hashlib.sha1("\n".join(printed).encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN_SHA1


class TestJson:
    def test_round_trip_random(self):
        for ctx in offcenter_contexts():
            for i in range(10):
                w = random_form(ctx, sample_rng(269, 100 * ctx.n + i))
                assert form_from_json(form_to_json(w)) == w

    def test_no_floats_anywhere(self, e2):
        w = B(e2, (1,), Poly.const(2, Fraction(1, 3)))
        text = json.dumps(form_to_json(w))
        doc = json.loads(text)

        def scan(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    scan(v)
            elif isinstance(node, list):
                for v in node:
                    scan(v)

        scan(doc)

    def test_rejects_float_coefficient(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["components"]["1"]["[1]"][0]["coef"] = 0.5
        with pytest.raises(NonRationalLiteral):
            form_from_json(doc)

    def test_rejects_zero_denominator(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["components"]["1"]["[1]"][0]["coef"] = "1/0"
        with pytest.raises(NonRationalLiteral):
            form_from_json(doc)

    def test_rejects_decimal_coefficient_string(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["components"]["1"]["[1]"][0]["coef"] = "1.5"
        with pytest.raises(NonRationalLiteral):
            form_from_json(doc)

    def test_rejects_float_center(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["center"] = [0.1, "0"]
        with pytest.raises(NonRationalLiteral):
            form_from_json(doc)

    @pytest.mark.parametrize("field", ["coef", "center"])
    def test_rejects_bool_rational(self, e2, field):
        doc = form_to_json(B(e2, (1,)))
        if field == "coef":
            doc["components"]["1"]["[1]"][0]["coef"] = True
        else:
            doc["center"] = [True, "0"]
        with pytest.raises(NonRationalLiteral, match="^JSON number True"):
            form_from_json(doc)

    def test_rejects_fractional_exponent(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["components"]["1"]["[1]"][0]["exp"] = [1.5, 0]
        with pytest.raises(DimensionMismatch):
            form_from_json(doc)

    def test_exponent_cap(self, e2):
        doc = form_to_json(B(e2, (1,)))
        doc["components"]["1"]["[1]"][0]["exp"] = [MAX_EXPONENT, 0]
        assert form_from_json(doc) == B(e2, (1,), Poly.monomial(2, (MAX_EXPONENT, 0)))
        doc["components"]["1"]["[1]"][0]["exp"] = [0, MAX_EXPONENT + 1]
        with pytest.raises(DimensionMismatch):
            form_from_json(doc)

    @staticmethod
    def _doc(center, entries, key="[1]"):
        return {"n": 2, "center": center, "metric": [1, 1], "components": {"1": {key: entries}}}

    def test_entries_with_one_exponent_add_up(self):
        ctx = Context.euclidean(2, [Fraction(1, 2), Fraction(0)])
        doc = self._doc(["1/2", "0"], [{"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1/2"}])
        assert form_from_json(doc) == parse_form("(3/2*x1) dx1", ctx)

    def test_keys_naming_one_index_tuple_add_up(self, e2):
        doc = self._doc(["0", "0"], [{"exp": [0, 1], "coef": "1"}])
        doc["components"]["1"]["[01]"] = [{"exp": [0, 1], "coef": "2"}]
        assert form_from_json(doc) == B(e2, (1,), Poly.monomial(2, (0, 1), 3))
        # the form is built after grouping, so it never sees two keys for (1, 2)
        doc["components"]["2"] = {"[1,2]": [{"exp": [1, 0], "coef": "1"}],
                                  "[01,002]": [{"exp": [1, 0], "coef": "-1/2"}]}
        assert form_from_json(doc) == (B(e2, (1,), Poly.monomial(2, (0, 1), 3))
                                       + B(e2, (1, 2), Poly.monomial(2, (1, 0), Fraction(1, 2))))

    def test_cancelling_entries_leave_no_key(self):
        doc = self._doc(["1/2", "0"], [{"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"}])
        omega = form_from_json(doc)
        assert omega.is_zero and omega.components == {}

    def test_exponent_cap_holds_for_zero_coefficients(self):
        doc = self._doc(["0", "0"], [{"exp": [MAX_EXPONENT + 1, 0], "coef": "0"}])
        with pytest.raises(DimensionMismatch, match=f"above {MAX_EXPONENT}"):
            form_from_json(doc)

    def test_rational_strings_in_header_and_body(self):
        ctx = Context.euclidean(2, [Fraction(-2, 9), Fraction(1, 7)])
        doc = form_to_json(B(ctx, (2,), Poly.const(2, Fraction(-3, 4))))
        assert doc["center"] == ["-2/9", "1/7"]
        assert form_from_json(doc) == B(ctx, (2,), Poly.const(2, Fraction(-3, 4)))


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "axc.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestCli:
    def test_apply_d(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("(x1*x2)")
        code = main(["--dim", "2", "apply", "--op", "d", "--in", str(src)])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "(x2) dx1 + (x1) dx2"

    def test_member_exit_codes(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("(1/2*x1) dx1 + (1/2*x2) dx2")
        assert main(["--dim", "2", "member", "--space", "Y", "--in", str(src)]) == 0
        assert main(["--dim", "2", "member", "--space", "C", "--in", str(src)]) == 1

    def test_decompose(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("x1 dx2")
        assert main(["--dim", "2", "decompose", "--mode", "exact", "--in", str(src)]) == 0
        out = capsys.readouterr().out
        assert "exact =" in out and "antiexact =" in out

    def test_solve_maxwell(self, tmp_path, capsys):
        src = tmp_path / "j.txt"
        src.write_text("dx2")
        assert main(["--dim", "2", "solve", "maxwell", "--in", str(src)]) == 0
        out = capsys.readouterr().out
        assert "F = (-x1) dx1^dx2" in out
        assert "status: success" in out

    # SHA-1 of stdout as printed when G still summed its series with Poly
    # powers of Q: degree 50 in 2-D and degree 40 on a mixed 3-D metric take
    # Horner chains of 26 and 21 steps, where the golden reports take a few
    @pytest.mark.parametrize("flags, text, sha1", [
        (["--dim", "2"], "((x1+1)^50) dx1", "afec8c71b76e0341a7f44a2787d9a6d3967664df"),
        (["--metric", "++-"], "((x3+1)^40) dx1", "79fbb8b4220b62dcf2e248d84a565d91be3e25e4"),
    ], ids=["2d-degree-50", "3d-degree-40"])
    def test_high_degree_dirac_solve_is_pinned(self, tmp_path, capsys, flags, text, sha1):
        src = tmp_path / "b.txt"
        src.write_text(text)
        assert main([*flags, "solve", "dirac-source", "--approach", "2", "--in", str(src)]) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha1

    def test_copotential_top_grade_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("dx1^dx2")
        assert main(["--dim", "2", "copotential", "--in", str(src)]) == 2

    @pytest.mark.parametrize("flags, command, text", [
        (["--metric", "+x-"], ["apply", "--op", "d"], "dx1"),
        (["--dim", "2"], ["apply", "--op", "d"], "x3 dx1"),
        (["--dim", "2"], ["apply", "--op", "d"], "dx1^x2"),
        (["--dim", "2"], ["apply", "--op", "d"], ""),
        (["--dim", "2"], ["solve", "dirac-source"], "x1"),
    ], ids=["metric-letter", "axis-above-dim", "basis-not-a-differential", "empty-input",
            "dirac-source-0-form"])
    def test_input_error_exit_code(self, tmp_path, capsys, flags, command, text):
        src = tmp_path / "w.txt"
        src.write_text(text)
        assert main([*flags, *command, "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("1.5 dx1")
        assert main(["--dim", "2", "apply", "--op", "d", "--in", str(src)]) == 2

    def test_zero_denominator_in_form_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("(1/0) dx1")
        assert main(["--dim", "2", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_zero_denominator_in_center_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("x1 dx1")
        assert main(["--center", "1/0,0", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_decimal_center_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("x1 dx1")
        assert main(["--center", "1.5,0", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_negative_center_as_separate_argument(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("x1 dx1")
        assert main(["--center=-2/9,1/7", "apply", "--op", "H", "--in", str(src)]) == 0
        joined = capsys.readouterr().out
        assert main(["--center", "-2/9,1/7", "apply", "--op", "H", "--in", str(src)]) == 0
        assert capsys.readouterr().out == joined
        assert main(["apply", "--op", "H", "--in", str(src)]) == 0
        assert capsys.readouterr().out != joined

    @pytest.mark.parametrize("text", [
        '{"n": 1, "center": [0.1], "metric": [1], "components": {}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"0": {"[]": [{"exp": [1], "coef": "1.5"}]}}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"0": {"[]": [{"exp": [1.5], "coef": "1"}]}}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"0": {"[]": [{"exp": [true], "coef": "1"}]}}}',
        '{"n": 1.9, "center": ["0"], "metric": [1.5], "components": {}}',
        '{"n": 2, "center": ["0", "0"], "metric": [1, true], "components": {}}',
        '{"n": "1", "center": ["0"], "metric": [1], "components": {}}',
        '{"n": 1, "center": ["0"], "metric": ["-1"], "components": {}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"0": {"[]": [{"exp": 1, "coef": "1"}]}}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"0": {"[]": [{"exp": [1]}]}}}',
        '{"n": 1, "center": ["0"], "metric": [1], "components": {"1": [1]}}',
        '{"n": 1, "center": ["0"], "components": {}}',
    ], ids=["float-center", "decimal-coefficient", "fractional-exponent", "bool-exponent",
            "float-header", "bool-metric", "string-dimension", "string-metric",
            "exponent-not-a-list", "missing-coefficient", "grade-not-an-object", "missing-metric"])
    def test_non_rational_json_is_input_error(self, tmp_path, capsys, text):
        src = tmp_path / "w.json"
        src.write_text(text)
        assert main(["apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("n, components", [
        (2, {"7": {}}),
        (2, {"abc": {}}),
        (2, {"-1": {}}),
        (2, {"5": {"[1,2,3,4,5]": []}}),
        (2, {"2": {"[2,1]": []}}),
        (2, {"1": {"[0]": []}}),
        (2, {"1": {"[1,2]": []}}),
        (2, {"1": {"[x]": []}}),
        (2, {"1": {"[[2]]": [{"exp": [0, 0], "coef": "1"}]}}),
        (2, {"2": {"1,2": [{"exp": [0, 0], "coef": "1"}]}}),
        (2, {"2": {"[1,,2]": [{"exp": [0, 0], "coef": "1"}]}}),
        (10, {"1": {"[1_0]": [{"exp": [0] * 10, "coef": "1"}]}}),
        (2, {"1": {"[\u0661]": [{"exp": [0, 0], "coef": "1"}]}}),
        (2, {"\u0661": {"[1]": [{"exp": [0, 0], "coef": "1"}]}}),
    ], ids=["empty-grade-above-n", "non-numeric-grade", "negative-grade",
            "empty-index-above-n", "empty-index-unsorted", "empty-axis-zero",
            "empty-index-wrong-length", "non-numeric-axis", "double-brackets",
            "no-brackets", "empty-axis", "underscore-axis",
            "non-ascii-axis", "non-ascii-grade"])
    def test_bad_json_key_is_input_error(self, tmp_path, capsys, n, components):
        doc = {"n": n, "center": ["0"] * n, "metric": [1] * n, "components": components}
        with pytest.raises(DimensionMismatch):
            form_from_json(json.loads(json.dumps(doc)))
        src = tmp_path / "w.json"
        src.write_text(json.dumps(doc))
        assert main(["--dim", "2", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_empty_json_maps_under_good_keys_are_zero(self):
        doc = {"n": 2, "center": ["0", "0"], "metric": [1, 1],
               "components": {"0": {"[]": []}, "1": {}, "2": {"[1,2]": []}}}
        assert form_from_json(doc).is_zero

    def test_deep_json_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.json"
        src.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("name,text", [
        ("w.txt", "x1^100000000 dx1"),
        ("w.json", '{"n": 2, "center": ["1/7", "-3/5"], "metric": [1, 1], '
                   '"components": {"1": {"[1]": [{"exp": [100000000, 0], "coef": "1"}]}}}'),
    ], ids=["text", "json"])
    def test_huge_exponent_is_input_error(self, tmp_path, capsys, name, text):
        src = tmp_path / name
        src.write_text(text)
        assert main(["--center=1/7,-3/5", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("name,text,flags,bound,where", [
        ("w.txt", "(" + " + ".join(f"x{i}" for i in range(1, 10)) + ")^200 dx1", ["--dim", "9"],
         75_824_205_888_366, " (at position 45)"),
        ("w.txt", "((1+x1)^99*(1+x2)^100) dx1", ["--dim", "2"], 10_100, " (at position 10)"),
        ("w.txt", "(x1^1000*x2^1000*x3^1000) dx1", ["--dim", "3", "--center=1/7,1/7,1/7"],
         1_003_003_001, ""),
        ("w.json", '{"n": 3, "center": ["1/7", "1/7", "1/7"], "metric": [1, 1, 1], '
                   '"components": {"1": {"[1]": [{"exp": [1000, 1000, 1000], "coef": "1"}]}}}',
         ["--dim", "3", "--center=1/7,1/7,1/7"], 1_003_003_001, ""),
    ], ids=["power", "product-past-cap", "recentered-text", "recentered-json"])
    def test_expansion_cap(self, tmp_path, capsys, name, text, flags, bound, where):
        # the bound is C(8 + 200, 8) multisets for the power, 100 * 101 pairs for
        # the product and 1001^3 re-centered terms; the grammar's errors name the
        # position of the exponent or "*" they stop at
        src = tmp_path / name
        src.write_text(text)
        start = time.perf_counter()
        assert main([*flags, "apply", "--op", "d", "--in", str(src)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: expansion to up to {bound} terms, above {MAX_TERMS}{where}\n")

    def test_high_power_off_center(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("x1^1000 dx2")
        assert main(["--dim", "2", "--center=1/7,3/5", "apply", "--op", "d", "--in", str(src)]) == 0
        assert capsys.readouterr().out == "(1000*x1^999) dx1^dx2\n"

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("(" * 3000 + "1" + ")" * 3000 + " dx1")
        assert main(["--dim", "2", "apply", "--op", "d", "--in", str(src)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--samples", "-2"], ["--samples", "0"],
                                       ["--max-degree", "-1"]])
    def test_identities_flags_below_range_are_input_errors(self, capsys, flags):
        assert main(["--dim", "3", "identities", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the message is run_identities' own, naming its argument
        name = flags[0][2:].replace("-", "_")
        low = {"samples": 1, "max_degree": 0}[name]
        assert captured.err == f"error: {name} {flags[1]} is below {low}\n"

    def test_identities_failure_is_exit_1_with_its_sample(self, capsys, monkeypatch):
        calls = []

        def third_sample_fails(ctx, w, rng):
            calls.append(w)
            return len(calls) < 3

        monkeypatch.setitem(identities.CHECKS, "h2_zero", third_sample_fails)
        assert main(["--dim", "2", "identities", "--samples", "4", "--seed", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(identities.CHECKS) and len(calls) == 3
        width = max(map(len, identities.CHECKS))
        assert [line for line in lines if not line.startswith("ok  ")] == [
            f"FAIL {'h2_zero'.ljust(width)} samples=4  (sample 2)"]

    @pytest.mark.parametrize("error, code, prefix", [
        (NotASolution(["gauss"]), 1, "not a solution: violated equations: gauss"),
        (InconsistentSystem("0 = 1"), 3, "inconsistent system: 0 = 1"),
    ], ids=["not-a-solution", "inconsistent"])
    def test_solve_error_exit_codes(self, tmp_path, capsys, monkeypatch, error, code, prefix):
        # no shipped system raises either error, so one is made to; the contract
        # still gives each its own exit code and stderr line
        def raises(source, approach):
            raise error

        monkeypatch.setitem(cli._SYSTEMS, "maxwell", raises)
        src = tmp_path / "j.txt"
        src.write_text("dx2")
        assert main(["--dim", "2", "solve", "maxwell", "--in", str(src)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix)

    def test_identities_flags_at_their_lower_bounds(self, capsys):
        assert main(["--dim", "2", "identities", "--samples", "1", "--max-degree", "0"]) == 0
        assert "samples=1" in capsys.readouterr().out

    @staticmethod
    def _dimension_argv(tmp_path, kind, n):
        """argv applying d to x1 dx2 on an n-dimensional chart named by ``kind``."""
        src = tmp_path / "w.txt"
        if kind == "json":
            src.write_text(json.dumps({
                "n": n, "center": ["0"] * n, "metric": [1] * n,
                "components": {"1": {"[2]": [{"exp": [1] + [0] * (n - 1), "coef": "1"}]}}}))
            return ["apply", "--op", "d", "--in", str(src)]
        src.write_text("x1 dx2")
        chart = ["--dim", str(n)] if kind == "dim" else ["--metric=+" + "-" * (n - 1)]
        return [*chart, "apply", "--op", "d", "--in", str(src)]

    @pytest.mark.parametrize("kind", ["dim", "metric", "json"])
    def test_dimension_cap(self, tmp_path, capsys, kind):
        assert main(self._dimension_argv(tmp_path, kind, MAX_DIMENSION)) == 0
        assert capsys.readouterr().out.strip() == "(1) dx1^dx2"
        assert main(self._dimension_argv(tmp_path, kind, MAX_DIMENSION + 1)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_coefficient_degree_above_the_width_is_input_error(self, tmp_path, capsys):
        # each exponent passes MAX_EXPONENT, but the power's degree 70 000 does
        # not fit a form key's 16-bit degree field
        src = tmp_path / "w.txt"
        # the grammar checks each power and product as it is formed, so one that
        # a later factor sends to zero is an input error too
        for text in ("(x1^1000)^70 dx1", "((x1^1000)^70 * 0) dx1"):
            src.write_text(text)
            assert main(["--dim", "1", "apply", "--op", "d", "--in", str(src)]) == 2
            assert capsys.readouterr() == ("", "error: coefficient degree 70000 above 65535\n")

    def test_dimension_16_builds_only_the_rows_it_reads(self, tmp_path):
        # the row tables are built per mask on first use: all 2^16 masks'
        # rows, built at once, took seconds and 84 MB for this one form
        src = tmp_path / "w.txt"
        src.write_text("(x1*x16^3) dx1^dx2 + (x5) dx3^dx9")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = run_cli(["--dim", "16", "apply", "--op", "h", "--in", str(src)])
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("(-1/18*x1*x3*x16^3) dx1^dx2^dx3 + ")
        assert done.stdout.count(" dx") == 14 + 14
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert cpu < 1, cpu

    def test_metric_flag(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("dt")
        assert main(["--metric", "+---", "apply", "--op", "star", "--in", str(src)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(1) dx2^dx3^dx4"

    def test_dim_must_agree_with_metric(self, tmp_path, capsys):
        # --metric sets the dimension; a --dim beside it may only repeat it
        src = tmp_path / "w.txt"
        src.write_text("x1 dx2")
        argv = ["apply", "--op", "d", "--in", str(src)]
        assert main(["--dim", "2", "--metric", "+-", *argv]) == 0
        assert capsys.readouterr().out == "(1) dx1^dx2\n"
        assert main(["--dim", "3", "--metric", "++", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "--dim 3" in err and "--metric '++'" in err
        args = cli._build_parser().parse_args(["--dim", "3", "--metric", "++", *argv])
        with pytest.raises(DimensionMismatch):
            cli._context_from_args(args)

    def test_json_output_round_trips(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("(x1^2) dx1")
        assert main(["--dim", "2", "apply", "--op", "H", "--in", str(src),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ctx = Context.euclidean(2)
        got = form_from_json(doc)
        x1 = Poly.variable(2, 1)
        expected = Form.from_poly(ctx, (x1 * x1 * x1).scale(Fraction(1, 3)))
        assert got == expected

    def test_identities_deterministic_across_processes(self):
        first = run_cli(["--dim", "2", "identities", "--samples", "5", "--seed", "42"])
        second = run_cli(["--dim", "2", "identities", "--samples", "5", "--seed", "42"])
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert "FAIL" not in first.stdout


def _write(tmp_path, name: str, omega: Form) -> str:
    path = tmp_path / name
    path.write_text(print_form(omega))
    return str(path)


def _named_forms(lines, ctx) -> dict:
    """``name = form`` lines read back into forms."""
    return dict((name, load_form_text(text, ctx))
                for name, text in (line.split(" = ", 1) for line in lines))


# A small valid input for each subcommand that takes --json: (arguments, form text).
_JSON_SAMPLES = {
    "apply": (["--op", "H"], "(x1^2) dx2"),
    "decompose": (["--mode", "coexact"], "(x1) dx2"),
    "potential": ([], "dx1^dx2"),
    "copotential": ([], "(x2) dx1"),
    "solve": (["maxwell"], "dx2"),
}


# The library call behind each `axc apply --op` choice.
_APPLY_OPS = {
    "d": Form.d,
    "delta": codifferential,
    "H": homotopy_H,
    "h": cohomotopy_h,
    "star": hodge_star,
    "star-inv": hodge_star_inv,
    "eta": Form.eta,
    "dirac": lambda w: apply_operator(OperatorTag.DIRAC, w),
    "antidirac": lambda w: apply_operator(OperatorTag.ANTI_DIRAC, w),
    "laplace": lambda w: apply_operator(OperatorTag.LAPLACE_BELTRAMI, w),
    "hbar": lambda w: apply_operator(OperatorTag.OSCILLATOR_HBAR, w),
}


class TestCliAgainstLibrary:
    """Each subcommand's output read back and compared with the library call."""

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("op", cli_choices("apply", "op"))
    def test_apply_prints_the_library_operator(self, tmp_path, capsys, op, as_json):
        # every grade, on a signature with an odd number of minus signs (so
        # that star_inv = -star) and an off-origin center
        ctx = Context(3, (Fraction(1, 7), Fraction(-2, 5), 3), (1, 1, -1))
        w = load_form_text("(x1^2*x2 - 3*x3) + (x2^2 + 1/2*x1*x3) dx1 - (x3^3) dx2"
                           " + (x1*x3^2) dx2^dx3 + (x1^2 - x2) dx1^dx2^dx3", ctx)
        argv = ["--metric", "++-", "--center=1/7,-2/5,3", "apply", "--op", op,
                "--in", _write(tmp_path, "w.txt", w)]
        assert main(argv + ["--json"] * as_json) == 0
        expected = _APPLY_OPS[op](w)
        assert not expected.is_zero
        printed = (json.dumps(form_to_json(expected), indent=2, sort_keys=True) if as_json
                   else print_form(expected))
        assert capsys.readouterr().out == printed + "\n"

    @pytest.mark.parametrize("flags", [["--metric", "+++"], ["--dim", "2", "--center=-2/9,1/7"]],
                             ids=["metric", "dim-and-center"])
    def test_json_header_overrides_the_chart_flags(self, tmp_path, capsys, flags):
        # a JSON document names its own chart: its n, metric and center win
        # over --dim, --metric and --center
        ctx = Context(3, (Fraction(1, 2), 0, -1), (1, 1, -1))
        w = load_form_text("(x1*x3) dx1 + (x2^2) dx2^dx3", ctx)
        src = tmp_path / "w.json"
        src.write_text(json.dumps(form_to_json(w)))
        assert main([*flags, "apply", "--op", "star", "--in", str(src), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["n"], out["metric"], out["center"]) == (3, [1, 1, -1], ["1/2", "0", "-1"])
        assert out == form_to_json(hodge_star(w))

    @pytest.mark.parametrize("command", cli_subcommands_with("json"))
    def test_json_flag_prints_json(self, tmp_path, capsys, command):
        assert command in _JSON_SAMPLES, f"no sample input for {command} --json"
        args, text = _JSON_SAMPLES[command]
        src = tmp_path / "w.txt"
        src.write_text(text)
        argv = ["--dim", "2", command, *args, "--in", str(src), "--json"]
        assert main(argv) == 0
        json.loads(capsys.readouterr().out)

    def test_classify_vacuum_dirac_gauge_case(self, tmp_path, capsys, e3):
        alpha, beta = Form.scalar(e3, 1), Form.basis(e3, (1, 2))
        result = vacuum_dirac_classify(alpha, beta, 1)
        code = main(["--dim", "3", "classify", "vacuum-dirac", "--grade", "1",
                     "--alpha", _write(tmp_path, "a.txt", alpha),
                     "--beta", _write(tmp_path, "b.txt", beta)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines == [result.kind.value]

    def test_classify_vacuum_dirac_not_a_solution(self, tmp_path, capsys, e3):
        alpha, beta = Form.basis(e3, (2,), var(e3, 1)), Form.zero(e3)
        result = vacuum_dirac_classify(alpha, beta, 2)
        code = main(["--dim", "3", "classify", "vacuum-dirac", "--grade", "2",
                     "--alpha", _write(tmp_path, "a.txt", alpha),
                     "--beta", _write(tmp_path, "b.txt", beta)])
        kind, *residuals = capsys.readouterr().out.splitlines()
        assert code == 1
        assert kind == result.kind.value
        assert all(line.startswith("residual ") for line in residuals)
        assert _named_forms([line[len("residual "):] for line in residuals], e3) == {
            name: form for name, form in result.residuals.items() if not form.is_zero}

    def test_oscillator_eigenvector(self, tmp_path, capsys, e3):
        w = cohomotopy_h(codifferential(random_homogeneous(e3, sample_rng(191, 0), 2)))
        report = oscillator_eigencheck(w)
        assert report.is_eigenvector
        code = main(["--dim", "3", "oscillator", "--in", _write(tmp_path, "w.txt", w)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"eigenvector with eigenvalue {report.eigenvalue:+d}"]

    def test_oscillator_non_eigenvector(self, tmp_path, capsys, e2):
        w = Form.basis(e2, (1,), var(e2, 1))
        report = oscillator_eigencheck(w)
        code = main(["--dim", "2", "oscillator", "--in", _write(tmp_path, "w.txt", w)])
        head, *parts = capsys.readouterr().out.splitlines()
        assert code == 0
        assert head == "not an eigenvector"
        assert _named_forms(parts, e2) == {"coexact part": report.coexact_part,
                                           "anticoexact part": report.anticoexact_part}

    @pytest.mark.parametrize("system,flags,approach", [
        ("maxwell-magnetic", ["--dim", "3"], 1),
        ("kalb-ramond", ["--metric", "+---"], 1),
        ("dirac-source", ["--dim", "3"], 2),
    ])
    def test_solve_text_report(self, tmp_path, capsys, system, flags, approach):
        rng = sample_rng(271, 0)
        if system == "maxwell-magnetic":
            ctx = Context.euclidean(3)
            source = random_homogeneous(ctx, rng, 2).d()
            report = maxwell_solve_magnetic(source)
        elif system == "kalb-ramond":
            ctx = Context.minkowski(4)
            source = codifferential(random_homogeneous(ctx, rng, 3))
            report = kalb_ramond_solve(source)
        else:
            ctx = Context.euclidean(3)
            source = (codifferential(cohomotopy_h(random_homogeneous(ctx, rng, 1))).d()
                      - codifferential(random_homogeneous(ctx, rng, 2).d()))
            report = dirac_source_solve(source, approach)
        assert report.success and not source.is_zero
        code = main([*flags, "solve", system, "--approach", str(approach),
                     "--in", _write(tmp_path, "src.txt", source)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[-1] == "status: success"
        notes = [line for line in lines if line.startswith("gauge: ")]
        assert notes == [f"gauge: {note}" for note in report.gauge_notes]
        residuals = [line[len("residual "):] for line in lines if line.startswith("residual ")]
        assert _named_forms(residuals, ctx) == report.residuals
        outputs = lines[:len(report.outputs)]
        assert _named_forms(outputs, ctx) == report.outputs
        assert len(lines) == len(outputs) + len(residuals) + len(notes) + 1

    def test_solve_maxwell_json(self, tmp_path, capsys, m4):
        j = codifferential(random_homogeneous(m4, sample_rng(271, 1), 2))
        report = maxwell_solve(j)
        code = main(["--metric", "+---", "solve", "maxwell", "--json",
                     "--in", _write(tmp_path, "j.txt", j)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc.keys() == {"outputs", "residuals", "gauge_notes", "success"}
        assert {k: form_from_json(v) for k, v in doc["outputs"].items()} == report.outputs
        assert {k: form_from_json(v) for k, v in doc["residuals"].items()} == report.residuals
        assert doc["gauge_notes"] == list(report.gauge_notes)
        assert doc["success"] is True

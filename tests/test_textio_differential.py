"""Seeded differential test of the text grammar.  Random expression trees
(rationals, variables, unary minus, nested parentheses, powers, products and
sums, each times a basis) are rendered to text and parsed, and the form is
compared with the same tree evaluated by public ``Poly`` arithmetic in absolute
coordinates and moved to the chart's center by ``rebase``."""

import functools
import operator
import random
from fractions import Fraction

import pytest

from axc import Context, Form, Poly, parse_form, rebase
from tests.conftest import chart_id

CHARTS = [Context.euclidean(3), Context(3, (Fraction(1, 7), Fraction(-2, 3), Fraction(5)), (1, -1, 1))]


def _tree(rng, n, depth=0):
    """``("rat", r)``, ``("var", i)``, ``("neg", t)``, ``("pow", t, e)``,
    ``("mul", [t, ...])`` or ``("add", [(sign, t), ...])``."""
    r = rng.random()
    if depth == 3 or r < 0.3:
        if rng.random() < 0.5:
            return "rat", Fraction(rng.randint(0, 12), rng.randint(1, 9))
        return "var", rng.randint(1, n)
    if r < 0.45:
        return "neg", _tree(rng, n, depth + 1)
    if r < 0.6:
        return "pow", _tree(rng, n, depth + 1), rng.randint(0, 3)
    if r < 0.8:
        return "mul", [_tree(rng, n, depth + 1) for _ in range(rng.randint(2, 3))]
    return "add", [(rng.choice((1, -1)), _tree(rng, n, depth + 1)) for _ in range(rng.randint(2, 3))]


def _value(t, n: int) -> Poly:
    """The tree's polynomial in absolute coordinates, by ``Poly`` arithmetic."""
    kind = t[0]
    if kind == "rat":
        return Poly.const(n, t[1])
    if kind == "var":
        return Poly.variable(n, t[1])
    if kind == "neg":
        return -_value(t[1], n)
    if kind == "pow":
        return _value(t[1], n) ** t[2]
    if kind == "mul":
        return functools.reduce(operator.mul, (_value(c, n) for c in t[1]))
    return functools.reduce(operator.add, (_value(c, n).scale(s) for s, c in t[1]))


def _base(t, rng) -> str:
    """A base: a rational or a variable, at times in redundant parentheses,
    and any other tree in parentheses."""
    kind = t[0]
    if kind == "rat":
        text = str(t[1])
    elif kind == "var":
        text = f"x{t[1]}"
    else:
        return f"({_expr(t, rng)})"
    return f"({text})" if rng.random() < 0.1 else text


def _factor(t, rng) -> str:
    """"-" factor, or a base and its power.  "^" binds tighter than a unary
    minus, so a negated tree is raised in parentheses, (-t)^e."""
    if t[0] == "neg":
        return "-" + _factor(t[1], rng)
    if t[0] != "pow":
        return _base(t, rng)
    base = f"({_factor(t[1], rng)})" if t[1][0] == "neg" else _base(t[1], rng)
    return f"{base}^{t[2]}"


def _term(t, rng) -> str:
    return "*".join(_factor(c, rng) for c in t[1]) if t[0] == "mul" else _factor(t, rng)


def _lead(sign: int, term: str, rng) -> str:
    """The first term of a sum with its sign.  A leading "-" reads the same
    as the sum's sign and as a unary minus on the term's first factor."""
    return ("-" if sign < 0 else rng.choice(("", "+"))) + term


def _expr(t, rng) -> str:
    if t[0] != "add":
        return _lead(1, _term(t, rng), rng)
    (s, first), *rest = t[1]
    return _lead(s, _term(first, rng), rng) + "".join(
        (" - " if s < 0 else " + ") + _term(c, rng) for s, c in rest)


def _form_case(rng, ctx):
    """Text of one to three signed terms, each a coefficient tree times a basis
    in random order (an index may repeat), and the form it names."""
    n, text, want = ctx.n, "", Form.zero(ctx)
    for j in range(rng.randint(1, 3)):
        axes = [rng.randint(1, n) for _ in range(rng.randint(0, n))]
        tree, sign = _tree(rng, n), rng.choice((1, -1))
        basis = "^".join(f"dx{i}" for i in axes)
        if axes and rng.random() < 0.1:  # a bare basis, its coefficient 1
            tree, term = ("rat", Fraction(1)), basis
        else:
            coeff = _factor(tree, rng)
            term = f"{coeff}{rng.choice((' ', '*'))}{basis}" if axes else coeff
        text += f" {'-' if sign < 0 else '+'} {term}" if j else _lead(sign, term, rng)
        if len(set(axes)) == len(axes):
            inversions = sum(a > b for i, a in enumerate(axes) for b in axes[i + 1:])
            poly = rebase(_value(tree, n), (0,) * n, ctx.center)
            want = want + Form.basis(ctx, sorted(axes), poly).scale(sign * (-1) ** inversions)
    return text, want


@pytest.mark.parametrize("ctx", CHARTS, ids=chart_id)
def test_parsed_text_equals_the_tree_in_poly_arithmetic(ctx):
    rng = random.Random(f"textio-{chart_id(ctx)}")
    for _ in range(400):
        text, want = _form_case(rng, ctx)
        assert parse_form(text, ctx) == want, text

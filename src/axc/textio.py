"""Form-expression text format, canonical printer, and JSON serialization.

Text grammar (coordinates are absolute; the metric and center live in CLI
flags or the JSON header, never inside an expression):

    form   := [sign] term { ("+" | "-") term }
    term   := factor ["*"] basis | factor | basis
    basis  := "d" var { "^" "d" var }
    factor := "-" factor | base ["^" digits]
    base   := "(" polynomial over rationals with + - * ^ ")" | rational | var
    var    := "x" digits; aliases x,y,z -> x1,x2,x3 when n <= 3 and
              t,x,y,z -> x1..x4 when n = 4

A term's coefficient is one factor, so ``(x1)^3 dx2`` reads like
``x1^3 dx2``; a product such as ``x1*x2`` needs parentheses.  The polynomial
grammar sums integer numerators over one denominator, ``(D, {key: int})`` with
the kernel's monomial keys, and builds a ``Fraction`` only for a rational literal.
Each product and power is checked by the width rule before it is formed.
Parentheses and unary minus signs nest at most :data:`MAX_NESTING` deep; no
exponent, in text or JSON, exceeds :data:`MAX_EXPONENT`, nor any product, power or
re-centered input :data:`MAX_TERMS` terms.

Printing, JSON and re-centering read rows by one walk, :func:`axc.forms._rows`;
the parser and re-centering lift rows back into a form by :func:`axc.forms._lifted`.
Printing is canonical: grades ascending, index lists lexicographic (that walk's
order), monomials lexicographic, rationals reduced; parse o print is the identity.
JSON carries every number as an exact string or integer -- never a float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (AxcError, AxisOutOfRange, DimensionMismatch, FormSyntaxError,
                     GradeOutOfRange, NonRationalLiteral)
from .forms import _INDICES, _WEDGE_SIGNS, Form, _form, _lifted, _rows
from .polyring import (_UNITS, Context, Poly, _as_fraction, _degree, _exponents, _int_mul, _poly,
                       _reduced, _require_degree, _require_operand, _sum_numerators)

_ALIASES_SMALL = {"x": 1, "y": 2, "z": 3}
_ALIASES_FOUR = {"t": 1, "x": 2, "y": 3, "z": 4}

# Deeper polynomial nesting is a syntax error, raised well before the
# recursive-descent parser could reach Python's recursion limit.
MAX_NESTING = 100
# Larger exponents are an input error, raised before anything is multiplied
# or re-centered: y^a expands to a + 1 terms on an off-center chart.
MAX_EXPONENT = 1000
# Larger expansions are an input error, raised before each "^" and "*" of the
# grammar and before re-centering: (x1+...+x9)^8 alone has 12 870 terms.
MAX_TERMS = 10_000


# -- tokenizer -------------------------------------------------------------

# ASCII only: str.isdigit also accepts superscripts and other scripts' digits.
_DIGITS = "0123456789"


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()/":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == ".":
                raise NonRationalLiteral(f"floating-point literal at position {i}")
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise FormSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    # var names -> 1-based axis, honoring the alias table for the dimension
    def axis_of(self, name: str, position: int) -> int:
        n = self.ctx.n
        if name.startswith("x") and name[1:].isascii() and name[1:].isdigit():
            axis = int(name[1:])
        elif n <= 3 and name in _ALIASES_SMALL:
            axis = _ALIASES_SMALL[name]
        elif n == 4 and name in _ALIASES_FOUR:
            axis = _ALIASES_FOUR[name]
        else:
            raise FormSyntaxError(f"unknown variable {name!r}", position)
        if not 1 <= axis <= n:
            raise AxisOutOfRange(f"variable {name!r} outside dimension {n}")
        return axis

    # -- polynomial sub-grammar (absolute coordinates, centered at 0) -----

    def parse_rational(self) -> Fraction:
        tok = self.take("int")
        value = Fraction(int(tok[1]))
        if self.peek()[0] == "/":
            self.take("/")
            den = self.take("int")
            if int(den[1]) == 0:
                raise NonRationalLiteral(f"zero denominator at position {den[2]}")
            value /= int(den[1])
        return value

    def nested(self, parse_one):
        """Take a "(" or a unary "-" and ``parse_one()`` one level deeper:
        parentheses and unary minus signs nest at most :data:`MAX_NESTING` deep."""
        position = self.take()[2]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormSyntaxError(f"polynomial nested deeper than {MAX_NESTING}", position)
        item = parse_one()
        self.depth -= 1
        return item

    def parse_poly_base(self) -> tuple[int, dict]:
        """A base as ``(D, {key: int})``: a rational or a variable is one
        term, and a parenthesized expression is its sum."""
        kind, value, position = self.peek()
        if kind == "int":
            r = self.parse_rational()
            return r.denominator, {0: r.numerator} if r else {}
        if kind == "name":
            self.take("name")
            return 1, {_UNITS[self.ctx.n][self.axis_of(value, position) - 1]: 1}
        if kind != "(":
            raise FormSyntaxError(f"expected polynomial, found {value!r}", position)
        base = self.nested(self.parse_poly_expr)
        self.take(")")
        return base

    def parse_poly_factor(self) -> tuple[int, dict]:
        """``"-" factor``, which flips the signs, or a base and its optional
        power, as ``(D, {key: int})``: "^" binds tighter than a unary minus."""
        if self.peek()[0] == "-":
            D, nums = self.nested(self.parse_poly_factor)
            return D, {a: -v for a, v in nums.items()}
        base = self.parse_poly_base()
        if self.peek()[0] != "^":
            return base
        self.take("^")
        _, digits, position = self.take("int")
        e = int(digits)
        if e > MAX_EXPONENT:
            raise FormSyntaxError(f"exponent {digits} above {MAX_EXPONENT}", position)
        D, nums = base
        if len(nums) == 1:
            _require_degree(e * _degree(nums, self.ctx.n))
            return D ** e, {key * e: v ** e for key, v in nums.items()}
        # a power of t terms is a sum over the multisets of e of them
        terms = math.comb(len(nums) + e - 1, e) if e else 1
        _require_terms(_term_bound(self.ctx.n, terms, e * _degree(nums, self.ctx.n)), position)
        p = _poly(self.ctx.n, *_reduced(D, nums)) ** e
        return p._den, p._nums

    def parse_poly_term(self) -> tuple[int, dict]:
        """Factors joined by "*" as one ``(D, {key: int})``, not yet reduced."""
        D, nums = self.parse_poly_factor()
        while self.peek()[0] == "*":
            position = self.take("*")[2]
            D2, nums2 = self.parse_poly_factor()
            degree = _degree(nums, self.ctx.n) + _degree(nums2, self.ctx.n)
            if len(nums) > 1 or len(nums2) > 1:
                _require_terms(_term_bound(self.ctx.n, len(nums) * len(nums2), degree), position)
            _require_degree(degree)
            D, nums = D * D2, _int_mul(nums, nums2)
        return D, nums

    def take_sign(self) -> int:
        """Consume an optional "+" or "-" and return its sign."""
        if self.peek()[0] in ("+", "-"):
            return -1 if self.take()[0] == "-" else 1
        return 1

    def signed(self, parse_one):
        """``[sign] item { ("+" | "-") item }`` as ``(sign, item)`` pairs."""
        yield self.take_sign(), parse_one()
        while self.peek()[0] in ("+", "-"):
            yield self.take_sign(), parse_one()

    def parse_poly_expr(self) -> tuple[int, dict]:
        return _sum_numerators([(key, sign * v, D)
                                for sign, (D, nums) in self.signed(self.parse_poly_term)
                                for key, v in nums.items()])

    # -- form grammar ------------------------------------------------------

    def parse_basis(self) -> tuple[tuple, int]:
        """One d-monomial; returns (sorted index tuple, permutation sign) or
        sign 0 when an index repeats: each dx^i wedges onto the mask read so far."""
        mask, sign = 0, 1
        while True:
            kind, value, position = self.take("name")
            if not value.startswith("d") or len(value) < 2:
                raise FormSyntaxError(f"expected basis dx<i>, found {value!r}", position)
            bit = 1 << self.axis_of(value[1:], position) - 1
            sign *= _WEDGE_SIGNS[mask << 16 | bit]
            mask |= bit
            if self.peek()[0] == "^":
                self.take("^")
                continue
            break
        return (_INDICES[mask], sign) if sign else ((), 0)

    def at_basis(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "name" and value.startswith("d") and len(value) > 1

    def parse_term(self) -> tuple[tuple, int, Poly]:
        """One term as (index tuple, basis sign, coefficient); the sign is 0
        when a basis index repeats."""
        if self.at_basis():
            poly = Poly.const(self.ctx.n, 1)
        else:
            poly = _poly(self.ctx.n, *_reduced(*self.parse_poly_factor()))
            if self.peek()[0] == "*":
                self.take("*")
            if not self.at_basis():
                return (), 1, poly
        return (*self.parse_basis(), poly)

    def parse_form(self) -> Form:
        """The whole expression, coefficients still in absolute coordinates."""
        pieces = list(self.signed(self.parse_term))
        self.take("end")
        return _form(self.ctx, *_lifted([(idx, poly.scale(sign * basis_sign))
                                         for sign, (idx, basis_sign, poly) in pieces]))


def _term_bound(n: int, terms: int, degree: int) -> int:
    """At most ``terms`` terms, and at most the C(n + degree, n) monomials
    in n variables of degree at most ``degree``."""
    return min(terms, math.comb(n + degree, n))


def _require_terms(bound: int, position: int | None = None):
    """An expansion bounded by more than :data:`MAX_TERMS` terms is an input
    error, raised before it is computed."""
    if bound > MAX_TERMS:
        message = f"expansion to up to {bound} terms, above {MAX_TERMS}"
        if position is None:
            raise DimensionMismatch(message)
        raise FormSyntaxError(message, position)


def parse_rational(text: str) -> Fraction:
    """One signed rational literal, ``[+|-] int ["/" int]``, by the grammar's rule."""
    parser = _Parser(text, None)
    sign = parser.take_sign()
    value = parser.parse_rational()
    parser.take("end")
    return sign * value


def parse_form(text: str, ctx: Context) -> Form:
    """Parse a form expression; absolute coordinates are re-centered."""
    _require_operand(ctx, Context)
    return _recentered(_Parser(text, ctx).parse_form())


def _recentered(absolute: Form) -> Form:
    """The form whose coefficients are given in absolute coordinates,
    re-expressed around its chart's center."""
    ctx, rows = absolute.ctx, _rows(absolute)
    # y^a re-centers to the product of a_i + 1 over the axes that move
    _require_terms(sum(
        _term_bound(ctx.n, sum(math.prod(a + 1 for a, c in zip(_exponents(key, ctx.n), ctx.center)
                                         if c) for key in poly._nums), _degree(poly._nums, ctx.n))
        for _, poly in rows))
    return _form(ctx, *_lifted([(idx, poly.shift(ctx.center)) for idx, poly in rows]))


# -- canonical printer -----------------------------------------------------

def _poly_text(p: Poly) -> str:
    """A nonzero polynomial's terms, lexicographic by exponents."""
    pieces = []
    for exps, coef in p.sorted_terms():
        mono = "*".join(
            f"x{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps) if e
        )
        if not mono:
            body = str(coef)
        elif coef == 1:
            body = mono
        elif coef == -1:
            body = f"-{mono}"
        else:
            body = f"{coef}*{mono}"
        pieces.append(body)
    text = pieces[0]
    for piece in pieces[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text


def print_form(omega: Form) -> str:
    """The canonical text of a form, in absolute coordinates."""
    _require_operand(omega, Form)
    back = [-c for c in omega.ctx.center]
    pieces = []
    for idx, poly in _rows(omega):
        base = "^".join(f"dx{i}" for i in idx)
        pieces.append(f"({_poly_text(poly.shift(back))})" + (f" {base}" if base else ""))
    return " + ".join(pieces) if pieces else "0"


# -- JSON ------------------------------------------------------------------

def form_to_json(omega: Form) -> dict:
    """Exact JSON dict: rationals as strings, coordinates absolute."""
    _require_operand(omega, Form)
    back = [-c for c in omega.ctx.center]
    components = {}
    for idx, poly in _rows(omega):
        key = "[" + ",".join(str(i) for i in idx) + "]"
        components.setdefault(str(len(idx)), {})[key] = [
            {"exp": list(exps), "coef": str(coef)} for exps, coef in poly.shift(back).sorted_terms()
        ]
    return {
        "n": omega.ctx.n,
        "center": [str(c) for c in omega.ctx.center],
        "metric": list(omega.ctx.signature),
        "components": components,
    }


def _json_rational(value) -> Fraction:
    """A JSON number: an integer, or a string read by the grammar's rational
    rule; the library's own rule, :func:`axc.polyring._as_fraction`."""
    try:
        return _as_fraction(value)
    except AxcError as exc:
        raise NonRationalLiteral(f"JSON number {value!r}: {exc}") from None
    except TypeError:
        raise NonRationalLiteral(
            f"JSON number {value!r} is not an integer or a rational string") from None


def form_from_json(data: dict) -> Form:
    """The form of a JSON document, coordinates absolute.  Only the syntax is
    read here; the integer and range rules are those of :class:`Context`,
    :class:`Poly` and :class:`Form`, built once each.  Entries that share an
    index tuple and exponents add up."""
    try:
        ctx = Context(data["n"],
                      tuple(_json_rational(c) for c in data["center"]),
                      tuple(data["metric"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise DimensionMismatch(f"bad JSON header: {exc}") from None
    pairs_by_key = {}
    try:
        for k_str, row in data.get("components", {}).items():
            # ASCII digits only, as in the text grammar
            if not re.fullmatch("[0-9]+", k_str):
                raise DimensionMismatch(f"JSON grade key {k_str!r} is not a grade")
            grade = pairs_by_key.setdefault(int(k_str), {})
            for key, entries in row.items():
                if not re.fullmatch(r"\[([0-9]+(,[0-9]+)*)?\]", key):
                    raise DimensionMismatch(f"JSON index key {key!r} is not a list [i,j,...]")
                pairs = grade.setdefault(tuple(int(s) for s in key[1:-1].split(",") if s), [])
                for term in entries:
                    exps = term["exp"]
                    if any(e > MAX_EXPONENT for e in exps):
                        raise DimensionMismatch(f"JSON exponent above {MAX_EXPONENT} in {exps}")
                    pairs.append((exps, _json_rational(term["coef"])))
        absolute = Form(ctx, {
            k: {idx: Poly.from_terms(ctx.n, pairs) for idx, pairs in grade.items()}
            for k, grade in pairs_by_key.items()})
    except (KeyError, ValueError, TypeError, AttributeError, GradeOutOfRange) as exc:
        raise DimensionMismatch(f"bad JSON body: {exc!r}") from None
    return _recentered(absolute)


def load_form_text(text: str, ctx: Context) -> Form:
    """Dispatch on content: JSON documents start with '{', else grammar text."""
    stripped = text.strip()
    if stripped.startswith("{"):
        import json  # here, so that reading grammar text never loads it

        try:
            data = json.loads(stripped)
        except RecursionError:
            raise FormSyntaxError("JSON document nested too deeply") from None
        return form_from_json(data)
    return parse_form(stripped, ctx)

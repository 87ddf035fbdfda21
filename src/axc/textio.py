"""Form-expression text format, canonical printer, and JSON serialization.

Text grammar (coordinates are absolute; the metric and center live in CLI
flags or the JSON header, never inside an expression):

    form  := [sign] term { ("+" | "-") term }
    term  := poly ["*"] basis | poly | basis
    basis := "d" var { "^" "d" var }
    poly  := "(" polynomial over rationals with + - * ^ ")" | rational
    var   := "x" digits; aliases x,y,z -> x1,x2,x3 when n <= 3 and
             t,x,y,z -> x1..x4 when n = 4

Printing is canonical: grades ascending, index lists lexicographic,
monomials lexicographic, rationals reduced; parse o print is the identity.
JSON carries every number as an exact string or integer -- never a float.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import AxisOutOfRange, DimensionMismatch, FormSyntaxError, NonRationalLiteral
from .forms import Form
from .polyring import Context, Poly, rebase

_ALIASES_SMALL = {"x": 1, "y": 2, "z": 3}
_ALIASES_FOUR = {"t": 1, "x": 2, "y": 3, "z": 4}


# -- tokenizer -------------------------------------------------------------

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
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
            while j < len(text) and text[j].isdigit():
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
        if name.startswith("x") and name[1:].isdigit():
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

    def parse_poly_base(self) -> Poly:
        kind, value, position = self.peek()
        if kind == "(":
            self.take("(")
            p = self.parse_poly_expr()
            self.take(")")
            return p
        if kind == "int":
            return Poly.const(self.ctx.n, self.parse_rational())
        if kind == "name":
            self.take("name")
            return Poly.variable(self.ctx.n, self.axis_of(value, position))
        if kind == "-":
            self.take("-")
            return -self.parse_poly_base()
        raise FormSyntaxError(f"expected polynomial, found {value!r}", position)

    def parse_poly_factor(self) -> Poly:
        base = self.parse_poly_base()
        if self.peek()[0] == "^":
            self.take("^")
            exp_tok = self.take("int")
            out = Poly.const(self.ctx.n, 1)
            for _ in range(int(exp_tok[1])):
                out = out * base
            return out
        return base

    def parse_poly_term(self) -> Poly:
        out = self.parse_poly_factor()
        while self.peek()[0] == "*":
            self.take("*")
            out = out * self.parse_poly_factor()
        return out

    def parse_poly_expr(self) -> Poly:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        out = self.parse_poly_term().scale(sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_poly_term()
            out = out + (term if op == "+" else -term)
        return out

    # -- form grammar ------------------------------------------------------

    def parse_basis(self) -> tuple[tuple, int]:
        """One d-monomial; returns (sorted index tuple, permutation sign) or
        sign 0 when an index repeats."""
        axes = []
        while True:
            kind, value, position = self.take("name")
            if not value.startswith("d") or len(value) < 2:
                raise FormSyntaxError(f"expected basis dx<i>, found {value!r}", position)
            axes.append(self.axis_of(value[1:], position))
            if self.peek()[0] == "^":
                self.take("^")
                continue
            break
        sign = 1
        ordered = []
        for axis in axes:
            pos = len(ordered)
            while pos > 0 and ordered[pos - 1] > axis:
                pos -= 1
            if pos > 0 and ordered[pos - 1] == axis:
                return (), 0
            sign *= (-1) ** (len(ordered) - pos)
            ordered.insert(pos, axis)
        return tuple(ordered), sign

    def at_basis(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "name" and value.startswith("d") and len(value) > 1

    def parse_term(self) -> Form:
        ctx = self.ctx
        if self.at_basis():
            idx, sign = self.parse_basis()
            if sign == 0:
                return Form.zero(ctx)
            return Form.basis(ctx, idx, Poly.const(ctx.n, sign))
        poly = self.parse_poly_factor() if self.peek()[0] != "(" else self.parse_poly_base()
        if self.peek()[0] == "*":
            self.take("*")
        if self.at_basis():
            idx, sign = self.parse_basis()
            if sign == 0:
                return Form.zero(ctx)
            return Form.basis(ctx, idx, poly.scale(sign))
        return Form.from_poly(ctx, poly)

    def parse_form(self) -> Form:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        out = self.parse_term().scale(sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_term()
            out = out + (term if op == "+" else term.scale(-1))
        self.take("end")
        return out


def parse_rational(text: str) -> Fraction:
    """One signed rational literal, ``[+|-] int ["/" int]``, by the grammar's rule."""
    parser = _Parser(text, None)
    sign = 1
    if parser.peek()[0] in "+-":
        sign = -1 if parser.take()[0] == "-" else 1
    value = parser.parse_rational()
    parser.take("end")
    return sign * value


def parse_form(text: str, ctx: Context) -> Form:
    """Parse a form expression; absolute coordinates are re-centered."""
    parsed = _Parser(text, ctx).parse_form()
    zeros = [Fraction(0)] * ctx.n
    out = Form.zero(ctx)
    for k, idx_map in parsed.components.items():
        for idx, poly in idx_map.items():
            out = out + Form.basis(ctx, idx, rebase(poly, zeros, ctx.center))
    return out


# -- canonical printer -----------------------------------------------------

def _poly_text(p: Poly) -> str:
    if p.is_zero:
        return "0"
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


def print_form(omega: Form, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(form_to_json(omega), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    ctx = omega.ctx
    zeros = [Fraction(0)] * ctx.n
    pieces = []
    for k in omega.grades():
        for idx in sorted(omega.components[k]):
            absolute = rebase(omega.components[k][idx], ctx.center, zeros)
            base = "^".join(f"dx{i}" for i in idx)
            body = f"({_poly_text(absolute)})"
            pieces.append(body + (f" {base}" if base else ""))
    return " + ".join(pieces) if pieces else "0"


# -- JSON ------------------------------------------------------------------

def form_to_json(omega: Form) -> dict:
    """Exact JSON dict: rationals as strings, coordinates absolute."""
    ctx = omega.ctx
    zeros = [Fraction(0)] * ctx.n
    components = {}
    for k in omega.grades():
        row = {}
        for idx in sorted(omega.components[k]):
            absolute = rebase(omega.components[k][idx], ctx.center, zeros)
            key = "[" + ",".join(str(i) for i in idx) + "]"
            row[key] = [
                {"exp": list(exps), "coef": str(coef)}
                for exps, coef in absolute.sorted_terms()
            ]
        components[str(k)] = row
    return {
        "n": ctx.n,
        "center": [str(c) for c in ctx.center],
        "metric": list(ctx.signature),
        "components": components,
    }


def form_from_json(data: dict) -> Form:
    try:
        ctx = Context(
            int(data["n"]),
            tuple(Fraction(c) for c in data["center"]),
            tuple(int(s) for s in data["metric"]),
        )
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise DimensionMismatch(f"bad JSON header: {exc}") from None
    zeros = [Fraction(0)] * ctx.n
    out = Form.zero(ctx)
    for k_str, row in data.get("components", {}).items():
        for key, terms in row.items():
            idx = tuple(int(s) for s in key.strip("[]").split(",") if s)
            if len(idx) != int(k_str):
                raise DimensionMismatch(f"index list {key} does not match grade {k_str}")
            poly = Poly.zero(ctx.n)
            for term in terms:
                coef = term["coef"]
                if isinstance(coef, float):
                    raise NonRationalLiteral(f"float coefficient {coef!r} in JSON")
                try:
                    value = Fraction(str(coef))
                except ZeroDivisionError:
                    raise NonRationalLiteral(f"zero denominator in JSON coefficient {coef!r}") from None
                poly = poly + Poly.monomial(ctx.n, tuple(term["exp"]), value)
            out = out + Form.basis(ctx, idx, rebase(poly, zeros, ctx.center))
    return out


def load_form_text(text: str, ctx: Context | None = None) -> Form:
    """Dispatch on content: JSON documents start with '{', else grammar text."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return form_from_json(json.loads(stripped))
    if ctx is None:
        raise DimensionMismatch("text form input needs an explicit context")
    return parse_form(stripped, ctx)

"""Exact multivariate polynomials over the rationals, centered at a chart point.

Every coefficient anywhere in the kernel is a :class:`fractions.Fraction`;
there is no floating point in any code path.  Polynomials are stored in
coordinates ``y_i = x_i - center_i`` because the homotopy operators have a
closed monomial form only in centered coordinates.  Sum, derivative and
scaling emit ``(exponent tuple, Fraction)`` pairs into
:meth:`Poly.from_terms`, which accumulates them and drops the ones that
cancel.  Products, powers and :meth:`Poly.shift` work instead on integer
numerators over one common denominator (:func:`_over_common_denominator`), so
their inner loops pay no gcd, and build each output ``Fraction`` once;
:func:`_int_mul` is the one product loop.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, NamedTuple

from .errors import AxisOutOfRange, DimensionMismatch

Rational = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        from .textio import parse_rational  # the grammar's rule; textio imports this module
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _over_common_denominator(terms: Mapping[tuple, Fraction]) -> tuple[int, dict]:
    """``(D, {exponents: integer numerator})`` with each coefficient equal to
    its numerator over D, the lcm of the denominators (1 for no terms)."""
    D = math.lcm(*(c.denominator for c in terms.values()))
    return D, {exps: c.numerator * (D // c.denominator) for exps, c in terms.items()}


def _from_numerators(n: int, numerators: dict, D: int) -> "Poly":
    """The polynomial with coefficients ``numerator / D``, each built once."""
    return Poly.from_terms(n, ((exps, Fraction(v, D)) for exps, v in numerators.items()))


def _int_mul(p: dict, q: dict) -> dict:
    """Product of two exponent -> integer maps; no Fraction, no gcd."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: v for e, v in out.items() if v}


def _taylor_shift_axis(numerators: dict, i: int, delta: Fraction) -> tuple[dict, int]:
    """Integer numerators of the substitution y_i -> y_i + P/Q, over a common
    denominator Q^A times the old one, A the largest exponent of y_i; returns
    them with Q^A.

    The terms that agree off axis i form a line f(z) = sum_a N_a z^a.  Its
    scaled copy h(z) = Q^A f(z/Q) has integer coefficients N_a Q^(A-a), and
    h(z + P) = Q^A f((z + P)/Q) comes from synthetic division by z - P, Horner
    style: O(A^2) additions and products by P.  Read back in y = z/Q, the
    coefficient of y^b in Q^A f(y + P/Q) is that of z^b in h(z + P) times Q^b.
    """
    P, Q = delta.numerator, delta.denominator
    A = max(exps[i] for exps in numerators)
    q_pow = [1]
    for _ in range(A):
        q_pow.append(q_pow[-1] * Q)
    lines: dict = {}
    for exps, v in numerators.items():
        lines.setdefault(exps[:i] + exps[i + 1:], {})[exps[i]] = v
    out = {}
    for rest, line in lines.items():
        top = max(line)
        c = [line.get(a, 0) * q_pow[A - a] for a in range(top + 1)]
        for low in range(top):
            for j in range(top - 1, low - 1, -1):
                c[j] += P * c[j + 1]
        for b, v in enumerate(c):
            if v:
                out[rest[:i] + (b,) + rest[i:]] = v * q_pow[b]
    return out, q_pow[A]


class _ContextFields(NamedTuple):
    n: int
    center: tuple[Fraction, ...]
    signature: tuple[int, ...]


class Context(_ContextFields):
    """Chart descriptor: dimension, star center, diagonal +-1 metric.

    Immutable and hashable; the dimension must be a positive ``int``, the
    center is read as exact rationals and the signature checked when the
    context is built.  The orientation is fixed once and for all as
    dx1^...^dxn positive.
    """

    __slots__ = ()

    def __new__(cls, n: int, center: Iterable, signature: Iterable) -> "Context":
        if type(n) is not int or n < 1:
            raise DimensionMismatch(f"dimension must be a positive integer, got {n!r}")
        center = tuple(_as_fraction(c) for c in center)
        signature = tuple(signature)
        if len(center) != n:
            raise DimensionMismatch("center length != dimension")
        if len(signature) != n:
            raise DimensionMismatch("signature length != dimension")
        if any(type(s) is not int or s not in (1, -1) for s in signature):
            raise DimensionMismatch(
                f"signature entries must be the integers 1 or -1: {signature}")
        return super().__new__(cls, n, center, signature)

    @classmethod
    def _make(cls, iterable) -> "Context":
        """Build through the checks above; ``_replace`` calls this too."""
        return cls(*iterable)

    @classmethod
    def euclidean(cls, n: int, center: Iterable = None) -> "Context":
        center = tuple(center) if center is not None else (Fraction(0),) * n
        return cls(n, center, (1,) * n)

    @classmethod
    def minkowski(cls, n: int, center: Iterable = None) -> "Context":
        """Signature (+, -, ..., -)."""
        center = tuple(center) if center is not None else (Fraction(0),) * n
        return cls(n, center, (1,) + (-1,) * (n - 1))

    @property
    def sig(self) -> int:
        """sig(g): product of the signature entries, +1 or -1."""
        return math.prod(self.signature)

    def require_same(self, other: "Context"):
        if self != other:
            raise DimensionMismatch("operands live in different contexts")


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        pairs = []
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise DimensionMismatch("multidegree length != dimension")
            if not all(type(e) is int for e in exps):
                raise DimensionMismatch(f"exponents must be integers, got {exps}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            pairs.append((exps, _as_fraction(coef)))
        self.n = n
        self.terms = Poly.from_terms(n, pairs).terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> "Poly":
        return cls(n, {(0,) * n: _as_fraction(value)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The centered coordinate y_i, 1-based axis."""
        if not 1 <= i <= n:
            raise AxisOutOfRange(f"axis {i} not in 1..{n}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps, coef=1) -> "Poly":
        return cls(n, {tuple(exps): _as_fraction(coef)})

    @classmethod
    def from_terms(cls, n: int, pairs) -> "Poly":
        """Sum ``(exponent tuple, Fraction)`` pairs, dropping terms that cancel.
        Exponent tuples must already be valid for dimension n."""
        acc: dict[tuple, Fraction] = {}
        for exps, coef in pairs:
            if exps in acc:
                acc[exps] += coef
            else:
                acc[exps] = coef
        p = cls.__new__(cls)
        p.n, p.terms = n, {exps: coef for exps, coef in acc.items() if coef}
        return p

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatch("polynomials over different dimensions")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly.from_terms(self.n, itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        D1, p = _over_common_denominator(self.terms)
        D2, q = _over_common_denominator(other.terms)
        return _from_numerators(self.n, _int_mul(p, q), D1 * D2)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        return Poly.from_terms(self.n, ((exps, c * v) for exps, v in self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Exact partial derivative d/dy_i, 1-based axis."""
        if not 1 <= i <= self.n:
            raise AxisOutOfRange(f"axis {i} not in 1..{self.n}")
        j = i - 1
        return Poly.from_terms(self.n, (
            (exps[:j] + (exps[j] - 1,) + exps[j + 1:], coef * exps[j])
            for exps, coef in self.terms.items() if exps[j]
        ))

    def eval(self, point) -> Fraction:
        """Value at a centered point (list of n rationals)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.n:
            raise DimensionMismatch("point length != dimension")
        return sum((coef * math.prod(x ** e for x, e in zip(point, exps) if e)
                    for exps, coef in self.terms.items()), Fraction(0))

    def shift(self, delta) -> "Poly":
        """Substitute y_i -> y_i + delta_i, the workhorse of :func:`rebase`.

        An exact integer Taylor shift (von zur Gathen and Gerhard, ISSAC
        1997): the coefficients are put over one common denominator, each axis
        with delta_i != 0 is shifted line by line by
        :func:`_taylor_shift_axis` with integer additions and products by
        delta_i's numerator, and each output ``Fraction`` is built once at the
        end.  An axis with delta_i = 0 passes its exponent through unchanged.
        """
        delta = [_as_fraction(v) for v in delta]
        if len(delta) != self.n:
            raise DimensionMismatch("shift vector length != dimension")
        D, numerators = _over_common_denominator(self.terms)
        for i, d in enumerate(delta):
            if d and numerators:
                numerators, scale = _taylor_shift_axis(numerators, i, d)
                D *= scale
        return _from_numerators(self.n, numerators, D)

    def __pow__(self, e: int) -> "Poly":
        """self^e, e >= 0, by repeated squaring on integer numerators over
        one common denominator; each output ``Fraction`` is built once."""
        if e < 0:
            raise ValueError("negative power")
        D, base = _over_common_denominator(self.terms)
        out = {(0,) * self.n: 1}
        for bit in bin(e)[2:]:
            out = _int_mul(out, out)
            if bit == "1":
                out = _int_mul(out, base)
        return _from_numerators(self.n, out, D ** e)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Deterministic (lexicographic by exponent tuple) term iteration."""
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(f"y{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def rebase(p: Poly, old_center, new_center) -> Poly:
    """Re-express ``p`` (centered at old_center) in coordinates centered at
    new_center, as the same polynomial function of the absolute point."""
    old = [_as_fraction(v) for v in old_center]
    new = [_as_fraction(v) for v in new_center]
    if len(old) != p.n or len(new) != p.n:
        raise DimensionMismatch("center length != dimension")
    # x - old = (x - new) + (new - old)
    return p.shift([b - a for a, b in zip(old, new)])


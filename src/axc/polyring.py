"""Exact multivariate polynomials over the rationals, centered at a chart point.

Every coefficient the kernel hands out is a :class:`fractions.Fraction`;
there is no floating point in any code path.  Polynomials are stored in
coordinates ``y_i = x_i - center_i``, where the homotopy operators have a
closed monomial form.  A :class:`Poly` and an :class:`axc.forms.Form` share
the integer format and the arithmetic of :class:`_Numerators`, so arithmetic
runs on integers alone.  A sum groups its terms by denominator, as ``+``,
:func:`_sum_numerators` and the whole-form operator loops of :mod:`axc.forms`
and :mod:`axc.solvers` do, and ends in :func:`_merged`,
the one merge tail, which lifts over an lcm only when the denominators
differ; :func:`_int_mul` is the one product loop, :func:`_taylor_shift_axis`
re-centers and :func:`_reduced` divides out the common gcd once per result.
No operator builds a ``Fraction``: only :func:`_as_fraction`, the grammar's
rational literal and the reads ``Poly.terms``, ``Poly.eval`` and ``Form.terms`` do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, attrgetter
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


def _require_dimension(n) -> None:
    """The dimension rule of :class:`Context` and :class:`Poly`: a positive
    ``int``, never coerced (no bool, no float)."""
    if type(n) is not int or n < 1:
        raise DimensionMismatch(f"dimension must be a positive integer, got {n!r}")


def _require_same(a, b) -> None:
    """Operands in one space: equal contexts, or equal dimensions."""
    if a != b:
        raise DimensionMismatch("operands live in different contexts")


def _require_operand(x, cls) -> None:
    """An operand of a public operator is a ``cls``: another class is a
    ``TypeError``, not the ``AttributeError`` of a member it lacks."""
    if not isinstance(x, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _require_axis(i, n: int) -> None:
    """A 1-based axis: an ``int`` in 1..n, never coerced."""
    if type(i) is not int or not 1 <= i <= n:
        raise AxisOutOfRange(f"axis {i!r} not in 1..{n}")


def _require_exponents(exps: tuple, n: int) -> None:
    """An exponent tuple: n ``int`` entries, never coerced (no bool, no float),
    none negative."""
    if len(exps) != n:
        raise DimensionMismatch("multidegree length != dimension")
    if not all(type(e) is int for e in exps):
        raise DimensionMismatch(f"exponents must be integers, got {exps}")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")


def _sum_numerators(entries, D: int = 1) -> tuple[int, dict]:
    """Sum ``(key, numerator, denominator)`` entries, each numerator /
    (denominator * D), to the reduced ``(D', {key: int})`` of :func:`_merged`,
    grouped by denominator: the one driver for sums whose terms can meet and
    whose denominators are not known before the loop."""
    groups: dict = {}
    for key, num, den in entries:
        group = groups.get(den)
        if group is None:
            group = groups[den] = {}
        group[key] = group.get(key, 0) + num
    return _merged(groups, D)


def _merged(groups: dict, D: int = 1) -> tuple[int, dict]:
    """The one merge tail of every sum: ``{denominator: {key: int}}`` groups,
    each numerator over denominator * D, to ``(D', {key: int})`` over the
    nonzero sums, gcd(D', all) == 1.  One group is taken as it is; only
    several are lifted over the lcm of their denominators."""
    if len(groups) == 1:
        (L, acc), = groups.items()
    elif groups:
        L, acc = math.lcm(*groups), {}
        for den, group in groups.items():
            lift = L // den
            for key, v in group.items():
                acc[key] = acc.get(key, 0) + v * lift
    else:
        return 1, {}
    if 0 in acc.values():
        acc = {key: v for key, v in acc.items() if v}
    return _reduced(D * L, acc)


def _reduced(D: int, nums: dict) -> tuple[int, dict]:
    """``(D', {key: int})``, the nonzero numerators ``nums`` over D > 0 with
    their common gcd divided out, so gcd(D', all) == 1 (D' == 1 for none)."""
    if D == 1:
        return 1, nums
    g = math.gcd(D, *nums.values())
    return D // g, ({key: v // g for key, v in nums.items()} if g > 1 else nums)


def _poly(n: int, D: int, nums: dict) -> "Poly":
    """The polynomial of valid, distinct, nonzero ``{exponents: int}``
    numerators over D, canonical as :class:`_Numerators` states, unchecked."""
    p = Poly.__new__(Poly)
    p.n, p._den, p._nums = n, D, nums
    return p


def _int_mul(p: dict, q: dict) -> dict:
    """``Poly``'s product of two exponent -> integer maps; no Fraction, no gcd."""
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
        _require_dimension(n)
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
        center = tuple(center) if center is not None else (0,) * n
        return cls(n, center, (1,) * n)

    @classmethod
    def minkowski(cls, n: int, center: Iterable = None) -> "Context":
        """Signature (+, -, ..., -)."""
        center = tuple(center) if center is not None else (0,) * n
        return cls(n, center, (1,) + (-1,) * (n - 1))

    @property
    def sig(self) -> int:
        """sig(g): product of the signature entries, +1 or -1."""
        return math.prod(self.signature)

    require_same = _require_same


class _Numerators:
    """Nonzero integer numerators ``_nums`` (key -> int) over one denominator
    ``_den`` > 0, gcd(D, every numerator) == 1, so equal values store equal
    integers; the arithmetic of that format, once.  A subclass supplies its
    ``_space``, which ``==``, ``hash`` and the same-space check read, and
    ``_build(space, D, nums)``, its unchecked builder."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _require_same(self._space, other._space)
        D1, D2 = self._den, other._den
        if D1 == D2:
            acc = dict(self._nums)
            for key, v in other._nums.items():
                acc[key] = acc.get(key, 0) + v
            groups = {D1: acc}
        else:
            groups = {D1: self._nums, D2: other._nums}
        return self._build(self._space, *_merged(groups))

    def __neg__(self):
        return self._build(self._space, self._den, {key: -v for key, v in self._nums.items()})

    def __sub__(self, other):
        # a check of its own, so that a wrong operand's TypeError names "-"
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """c times self; sums nothing."""
        c = _as_fraction(c)
        return self._build(self._space, *_reduced(self._den * c.denominator, {
            key: v * c.numerator for key, v in self._nums.items()} if c else {}))

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self)) and self._space == other._space
                and self._den == other._den and self._nums == other._nums)

    def __hash__(self):
        return hash((self._space, self._den, frozenset(self._nums.items())))


class Poly(_Numerators):
    """``n`` and the numerators ``_nums`` over ``_den`` of :class:`_Numerators`, private to it."""

    __slots__ = ("n", "_den", "_nums")
    _space = property(attrgetter("n"))
    _build = staticmethod(_poly)

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        """Keep the nonzero coefficients, summing nothing: two keys that read as
        one exponent tuple, such as ``range(1, 2)`` and ``(1,)``, are an error."""
        _require_dimension(n)
        coefs = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            _require_exponents(exps, n)
            if exps in coefs:
                raise ValueError(f"exponent tuple {exps} given twice")
            coefs[exps] = _as_fraction(coef)
        self.n = n
        self._den, self._nums = _sum_numerators(
            [(exps, c.numerator, c.denominator) for exps, c in coefs.items()])

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
        _require_dimension(n)
        _require_axis(i, n)
        return _poly(n, 1, {tuple(1 if j == i - 1 else 0 for j in range(n)): 1})

    @classmethod
    def monomial(cls, n: int, exps, coef=1) -> "Poly":
        return cls(n, {tuple(exps): _as_fraction(coef)})

    @classmethod
    def from_terms(cls, n: int, pairs) -> "Poly":
        """Sum ``(exponent tuple, int or Fraction)`` pairs where their exponents
        meet, dropping terms that cancel.  Every pair, a cancelling one too,
        is checked first by the constructor's rules."""
        _require_dimension(n)
        pairs = [(tuple(exps), _as_fraction(c)) for exps, c in pairs]
        for exps, _ in pairs:
            _require_exponents(exps, n)
        return _poly(n, *_sum_numerators([(exps, c.numerator, c.denominator) for exps, c in pairs]))

    # -- ring operations ---------------------------------------------------

    # bound here, not only inherited, so that the tracer can wrap Poly's own
    __add__ = _Numerators.__add__

    def __mul__(self, other) -> "Poly":
        """The product with a ``Poly``, or :meth:`scale` by anything else."""
        if not isinstance(other, Poly):
            return self.scale(other)
        _require_same(self.n, other.n)
        return _poly(self.n, *_reduced(self._den * other._den, _int_mul(self._nums, other._nums)))

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Exact partial derivative d/dy_i, 1-based axis; sums nothing."""
        _require_axis(i, self.n)
        j = i - 1
        return _poly(self.n, *_reduced(self._den, {
            exps[:j] + (exps[j] - 1,) + exps[j + 1:]: v * exps[j]
            for exps, v in self._nums.items() if exps[j]}))

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
        1997): each axis with delta_i != 0 shifts the stored numerators line
        by line by :func:`_taylor_shift_axis`, with integer additions and
        products by delta_i's numerator, and the result is reduced once at
        the end.  An axis with delta_i = 0 passes its exponent through unchanged.
        """
        delta = [_as_fraction(v) for v in delta]
        if len(delta) != self.n:
            raise DimensionMismatch("shift vector length != dimension")
        D, numerators = self._den, self._nums
        for i, d in enumerate(delta):
            if d and numerators:
                numerators, scale = _taylor_shift_axis(numerators, i, d)
                D *= scale
        return _poly(self.n, *_reduced(D, numerators))

    def __pow__(self, e: int) -> "Poly":
        """self^e, e >= 0, by repeated squaring on the integer numerators,
        reduced once at the end."""
        if type(e) is not int:
            raise TypeError(f"power {e!r} is not an int")
        if e < 0:
            raise ValueError("negative power")
        out = {(0,) * self.n: 1}
        for bit in bin(e)[2:]:
            out = _int_mul(out, out)
            if bit == "1":
                out = _int_mul(out, self._nums)
        return _poly(self.n, *_reduced(self._den ** e, out))

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """``{exponents: Fraction}`` over the nonzero terms, built anew on each read."""
        return {exps: Fraction(v, self._den) for exps, v in self._nums.items()}

    def sorted_terms(self):
        """Deterministic (lexicographic by exponent tuple) term iteration."""
        return sorted(self.terms.items())

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
    _require_operand(p, Poly)
    old = [_as_fraction(v) for v in old_center]
    new = [_as_fraction(v) for v in new_center]
    if len(old) != p.n or len(new) != p.n:
        raise DimensionMismatch("center length != dimension")
    # x - old = (x - new) + (new - old)
    return p.shift([b - a for a, b in zip(old, new)])


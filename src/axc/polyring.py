"""Exact multivariate polynomials over the rationals, centered at a chart point.

Every coefficient anywhere in the kernel is a :class:`fractions.Fraction`;
there is no floating point in any code path.  Polynomials are stored in
coordinates ``y_i = x_i - center_i`` because the homotopy operators have a
closed monomial form only in centered coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import AxisOutOfRange, DimensionMismatch

Rational = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Context:
    """Chart descriptor: dimension, star center, diagonal +-1 metric.

    The orientation is fixed once and for all as dx1^...^dxn positive.
    """

    n: int
    center: tuple[Fraction, ...]
    signature: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.n}")
        object.__setattr__(self, "center", tuple(_as_fraction(c) for c in self.center))
        object.__setattr__(self, "signature", tuple(int(s) for s in self.signature))
        if len(self.center) != self.n:
            raise DimensionMismatch("center length != dimension")
        if len(self.signature) != self.n:
            raise DimensionMismatch("signature length != dimension")
        if any(s not in (1, -1) for s in self.signature):
            raise DimensionMismatch("signature entries must be +1 or -1")

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
        out = 1
        for s in self.signature:
            out *= s
        return out

    def require_same(self, other: "Context"):
        if self != other:
            raise DimensionMismatch("operands live in different contexts")


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        self.n = n
        clean = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise DimensionMismatch("multidegree length != dimension")
                if not all(isinstance(e, int) for e in exps):
                    raise DimensionMismatch(f"exponents must be integers, got {exps}")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                coef = _as_fraction(coef)
                if coef != 0:
                    acc = clean.get(exps)
                    coef = coef if acc is None else acc + coef
                    if coef != 0:
                        clean[exps] = coef
                    else:
                        clean.pop(exps, None)
        self.terms = clean

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

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatch("polynomials over different dimensions")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            s = out.get(exps, Fraction(0)) + coef
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.n = self.n
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = Poly.__new__(Poly)
        p.n, p.terms = self.n, out
        return p

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        p = Poly.__new__(Poly)
        p.n = self.n
        p.terms = {e: c * v for e, v in self.terms.items()} if c else {}
        return p

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Exact partial derivative d/dy_i, 1-based axis."""
        if not 1 <= i <= self.n:
            raise AxisOutOfRange(f"axis {i} not in 1..{self.n}")
        out = {}
        j = i - 1
        for exps, coef in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            lowered = exps[:j] + (e - 1,) + exps[j + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + coef * e
        return Poly(self.n, out)

    def eval(self, point) -> Fraction:
        """Value at a centered point (list of n rationals)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.n:
            raise DimensionMismatch("point length != dimension")
        total = Fraction(0)
        for exps, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def shift(self, delta) -> "Poly":
        """Substitute y_i -> y_i + delta_i (exact binomial expansion).

        This is the workhorse of re-centering: a polynomial centered at c
        expressed in coordinates centered at c' is ``shift(c' - c)``... with
        the sign convention handled by :func:`rebase`.
        """
        delta = [_as_fraction(v) for v in delta]
        if len(delta) != self.n:
            raise DimensionMismatch("shift vector length != dimension")
        out = Poly.zero(self.n)
        for exps, coef in self.terms.items():
            term = Poly.const(self.n, coef)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                base = Poly(self.n, {
                    tuple(1 if j == i else 0 for j in range(self.n)): Fraction(1),
                    (0,) * self.n: delta[i],
                })
                for _ in range(e):
                    term = term * base
            out = out + term
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

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


def eval_absolute(p: Poly, ctx: Context, point) -> Fraction:
    """Value of ``p`` at a point given in absolute (unshifted) coordinates."""
    point = [_as_fraction(v) for v in point]
    if len(point) != ctx.n:
        raise DimensionMismatch("point length != dimension")
    return p.eval([x - c for x, c in zip(point, ctx.center)])

"""Graded differential forms with polynomial coefficients.

A :class:`Form` is inhomogeneous by design: grades are a map
``k -> (strictly increasing index tuple -> Poly)``.  Clifford fields in the
Dirac machinery are just forms mixing several grades.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping

from .errors import DimensionMismatch, GradeOutOfRange
from .polyring import Context, Poly, _as_fraction


@functools.lru_cache(maxsize=4096)
def _merge_indices(a: tuple, b: tuple):
    """dx^a ^ dx^b for any index tuples a and b, in any order.

    Returns (sorted tuple, (-1)^(inversions of a + b)) or None when an index
    repeats.  Cached: every term map asks for the same few index pairs again
    and again.
    """
    s = a + b
    if len(set(s)) < len(s):
        return None
    return tuple(sorted(s)), (-1) ** sum(x > y for x, y in itertools.combinations(s, 2))


class Form:
    __slots__ = ("ctx", "components")

    def __init__(self, ctx: Context, components: Mapping[int, Mapping[tuple, Poly]] | None = None):
        """Keep the nonzero coefficients of a grade -> (index tuple -> Poly) map.
        Grades and index entries must be ``int``, never coerced (no bool, no
        float); an index tuple is strictly increasing in 1..n, as long as its grade."""
        comps: dict[int, dict[tuple, Poly]] = {}
        for k, idx_map in (components or {}).items():
            if type(k) is not int or not 0 <= k <= ctx.n:
                raise GradeOutOfRange(f"grade {k!r} outside 0..{ctx.n}")
            for idx, poly in idx_map.items():
                idx = tuple(idx)
                if len(idx) != k:
                    raise GradeOutOfRange(f"index tuple {idx} has wrong length for grade {k}")
                if any(type(i) is not int for i in idx) or list(idx) != sorted(set(idx)):
                    raise GradeOutOfRange(f"index tuple {idx} not strictly increasing integers")
                if idx and (idx[0] < 1 or idx[-1] > ctx.n):
                    raise GradeOutOfRange(f"index tuple {idx} outside 1..{ctx.n}")
                if poly.n != ctx.n:
                    raise DimensionMismatch("coefficient dimension != context dimension")
                if poly.terms:
                    comps.setdefault(k, {})[idx] = poly
        self.ctx = ctx
        self.components = comps

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "Form":
        return cls(ctx)

    @classmethod
    def scalar(cls, ctx: Context, value) -> "Form":
        return cls(ctx, {0: {(): Poly.const(ctx.n, value)}})

    @classmethod
    def from_poly(cls, ctx: Context, poly: Poly) -> "Form":
        return cls(ctx, {0: {(): poly}})

    @classmethod
    def basis(cls, ctx: Context, indices, coeff: Poly | None = None) -> "Form":
        """coeff * dx^{i1} ^ ... ^ dx^{ik} for strictly increasing indices."""
        indices = tuple(indices)
        if coeff is None:
            coeff = Poly.const(ctx.n, 1)
        return cls(ctx, {len(indices): {indices: coeff}})

    @classmethod
    def from_terms(cls, ctx: Context, terms) -> "Form":
        """Sum ``(index tuple, exponent tuple, Fraction)`` triples into a form.

        This is the accumulation loop of the term-map operators; entries that
        cancel are dropped.  Index tuples must already be strictly increasing
        within 1..n, which every term map here guarantees by construction.
        """
        acc: dict[tuple, dict[tuple, Fraction]] = {}
        for idx, exps, coef in terms:
            row = acc.get(idx)
            if row is None:
                acc[idx] = {exps: coef}
            elif exps in row:
                row[exps] += coef
            else:
                row[exps] = coef
        comps: dict[int, dict[tuple, Poly]] = {}
        for idx, row in acc.items():
            row = {exps: coef for exps, coef in row.items() if coef}
            if row:
                p = Poly.__new__(Poly)
                p.n, p.terms = ctx.n, row
                comps.setdefault(len(idx), {})[idx] = p
        f = cls.__new__(cls)
        f.ctx = ctx
        f.components = comps
        return f

    # -- linear structure --------------------------------------------------

    def _check(self, other: "Form"):
        self.ctx.require_same(other.ctx)

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        return Form.from_terms(self.ctx, itertools.chain(self.terms(), other.terms()))

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = _as_fraction(c)
        return self.termwise(lambda idx, exps: [(idx, exps, c)])

    def mul_poly(self, p: Poly) -> "Form":
        return self.wedge(Form.from_poly(self.ctx, p))

    # -- graded operations -------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        right = list(other.terms())

        def wedge_terms(idx, exps):
            for idx2, exps2, coef2 in right:
                merged = _merge_indices(idx, idx2)
                if merged is not None:
                    new_idx, sign = merged
                    yield new_idx, tuple(a + b for a, b in zip(exps, exps2)), sign * coef2

        return self.termwise(wedge_terms)

    def eta(self) -> "Form":
        """Grade-parity involution: (-1)^p on the grade-p part."""
        return self.termwise(lambda idx, exps: [(idx, exps, (-1) ** len(idx))])

    def terms(self):
        """Every basis term as an ``(index tuple, exponent tuple, Fraction)`` triple."""
        for idx_map in self.components.values():
            for idx, poly in idx_map.items():
                for exps, coef in poly.terms.items():
                    yield idx, exps, coef

    def termwise(self, fn) -> "Form":
        """Linear extension of a map on basis terms.

        ``fn(idx, exps)`` returns the image of ``y^exps dx^idx`` as
        ``(idx', exps', factor)`` triples; each is scaled by the term's
        coefficient and summed by :meth:`from_terms`.
        """
        return Form.from_terms(self.ctx, (
            (out_idx, out_exps, coef * factor)
            for idx, exps, coef in self.terms()
            for out_idx, out_exps, factor in fn(idx, exps)
        ))

    def grade_select(self, k: int) -> "Form":
        if not 0 <= k <= self.ctx.n:
            raise GradeOutOfRange(f"grade {k} outside 0..{self.ctx.n}")
        f = Form.__new__(Form)
        f.ctx = self.ctx
        f.components = {k: dict(self.components[k])} if k in self.components else {}
        return f

    def d(self) -> "Form":
        """Exterior derivative (coordinate chart, so d = sum_i dx_i ^ d/dy_i)."""
        return self.termwise(d_terms)

    def eval_at(self, point) -> "Form":
        """Freeze coefficients to their value at a point; result is a
        constant-coefficient form (the pullback along the constant map)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.ctx.n:
            raise DimensionMismatch("point length != dimension")
        zeros = (0,) * self.ctx.n
        return self.termwise(lambda idx, exps: [
            (idx, zeros, math.prod(x ** e for x, e in zip(point, exps) if e))])

    def at_center(self) -> "Form":
        """The constant terms: every coefficient's value at the chart center."""
        return self.termwise(lambda idx, exps: [] if any(exps) else [(idx, exps, 1)])

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def grades(self) -> list[int]:
        return sorted(self.components)

    def homogeneous_grade(self):
        """Grade of a homogeneous form; None for zero, error if mixed."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise GradeOutOfRange(f"form mixes grades {gs}")
        return gs[0]

    def coefficient(self, indices) -> Poly:
        indices = tuple(indices)
        return self.components.get(len(indices), {}).get(indices, Poly.zero(self.ctx.n))

    def max_coeff_degree(self) -> int:
        return max((sum(exps) for _, exps, _ in self.terms()), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.ctx == other.ctx
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(
            (k, idx, poly) for k, m in self.components.items() for idx, poly in m.items()
        ))))

    def __repr__(self):
        if self.is_zero:
            return "Form(0)"
        bits = []
        for k in self.grades():
            for idx in sorted(self.components[k]):
                base = "^".join(f"dx{i}" for i in idx) or "1"
                bits.append(f"({self.components[k][idx]!r})*{base}")
        return "Form(" + " + ".join(bits) + ")"


def d_terms(idx: tuple, exps: tuple) -> list:
    """d on one basis term: d(y^a dx^I) = sum_{i not in I} a_i y^(a - e_i) dx^i ^ dx^I,
    with dx^i moved into place by the sign of :func:`_merge_indices`."""
    out = []
    for i, e in enumerate(exps, start=1):
        if e and i not in idx:
            new_idx, sign = _merge_indices((i,), idx)
            out.append((new_idx, exps[:i - 1] + (e - 1,) + exps[i:], sign * e))
    return out


class VectorField:
    """n polynomial components in the coordinate frame d/dx_i."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: Context, components):
        components = tuple(components)
        if len(components) != ctx.n:
            raise DimensionMismatch("vector field needs n components")
        for p in components:
            if p.n != ctx.n:
                raise DimensionMismatch("component dimension != context dimension")
        self.ctx = ctx
        self.components = components

    @classmethod
    def frame(cls, ctx: Context, i: int) -> "VectorField":
        """The constant coordinate vector d/dx_i."""
        comps = [Poly.zero(ctx.n) for _ in range(ctx.n)]
        comps[i - 1] = Poly.const(ctx.n, 1)
        return cls(ctx, comps)

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.ctx == other.ctx
            and self.components == other.components
        )

    def __repr__(self):
        return f"VectorField({list(self.components)!r})"


def interior(v: VectorField, omega: Form) -> Form:
    """Insertion antiderivative i_v: contracts each slot with alternating sign,
    i_v(y^a dx^I) = sum_j (-1)^j v_{i_j} y^a dx^{I minus i_j}."""
    v.ctx.require_same(omega.ctx)

    def interior_terms(idx, exps):
        for j, axis in enumerate(idx):
            rest = idx[:j] + idx[j + 1:]
            for v_exps, v_coef in v.components[axis - 1].terms.items():
                yield rest, tuple(a + b for a, b in zip(exps, v_exps)), -v_coef if j % 2 else v_coef

    return omega.termwise(interior_terms)


def form_linear(a, omega: Form, b, phi: Form) -> Form:
    """a*omega + b*phi, gradewise."""
    omega._check(phi)
    return omega.scale(a) + phi.scale(b)

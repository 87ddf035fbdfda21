"""Graded differential forms with polynomial coefficients.

A :class:`Form` is inhomogeneous by design: grades are a map
``k -> (strictly increasing index tuple -> Poly)``.  Clifford fields in the
Dirac machinery are just forms mixing several grades.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DimensionMismatch, GradeOutOfRange
from .polyring import Context, Poly, _as_fraction


def _merge_indices(a: tuple, b: tuple):
    """Concatenate two strictly increasing index tuples.

    Returns (sorted tuple, permutation sign) or None when an index repeats.
    """
    merged = list(a)
    sign = 1
    for idx in b:
        pos = len(merged)
        # insertion sort step; each swap flips the sign
        while pos > 0 and merged[pos - 1] > idx:
            pos -= 1
        if pos > 0 and merged[pos - 1] == idx:
            return None
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, idx)
    return tuple(merged), sign


class Form:
    __slots__ = ("ctx", "components")

    def __init__(self, ctx: Context, components: Mapping[int, Mapping[tuple, Poly]] | None = None):
        self.ctx = ctx
        comps: dict[int, dict[tuple, Poly]] = {}
        if components:
            for k, idx_map in components.items():
                for idx, poly in idx_map.items():
                    idx = tuple(int(i) for i in idx)
                    if len(idx) != k:
                        raise GradeOutOfRange(f"index tuple {idx} has wrong length for grade {k}")
                    if list(idx) != sorted(set(idx)):
                        raise GradeOutOfRange(f"index tuple {idx} not strictly increasing")
                    if idx and (idx[0] < 1 or idx[-1] > ctx.n):
                        raise GradeOutOfRange(f"index tuple {idx} outside 1..{ctx.n}")
                    if not 0 <= k <= ctx.n:
                        raise GradeOutOfRange(f"grade {k} outside 0..{ctx.n}")
                    if poly.n != ctx.n:
                        raise DimensionMismatch("coefficient dimension != context dimension")
                    if not poly.is_zero:
                        grade = comps.setdefault(k, {})
                        acc = grade.get(idx)
                        poly = poly if acc is None else acc + poly
                        if poly.is_zero:
                            grade.pop(idx, None)
                        else:
                            grade[idx] = poly
        self.components = {k: v for k, v in comps.items() if v}

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
            row = acc.setdefault(idx, {})
            s = row.get(exps)
            row[exps] = coef if s is None else s + coef
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
        out = {k: dict(v) for k, v in self.components.items()}
        for k, idx_map in other.components.items():
            tgt = out.setdefault(k, {})
            for idx, poly in idx_map.items():
                s = tgt.get(idx)
                s = poly if s is None else s + poly
                if s.is_zero:
                    tgt.pop(idx, None)
                else:
                    tgt[idx] = s
        f = Form.__new__(Form)
        f.ctx = self.ctx
        f.components = {k: v for k, v in out.items() if v}
        return f

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = _as_fraction(c)
        f = Form.__new__(Form)
        f.ctx = self.ctx
        if c == 0:
            f.components = {}
        else:
            f.components = {
                k: {idx: poly.scale(c) for idx, poly in idx_map.items()}
                for k, idx_map in self.components.items()
            }
        return f

    def mul_poly(self, p: Poly) -> "Form":
        if p.n != self.ctx.n:
            raise DimensionMismatch("polynomial dimension != context dimension")
        out = {}
        for k, idx_map in self.components.items():
            row = {}
            for idx, poly in idx_map.items():
                q = poly * p
                if not q.is_zero:
                    row[idx] = q
            if row:
                out[k] = row
        f = Form.__new__(Form)
        f.ctx = self.ctx
        f.components = out
        return f

    # -- graded operations -------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        out = Form.zero(self.ctx)
        acc: dict[int, dict[tuple, Poly]] = {}
        for p, left in self.components.items():
            for q, right in other.components.items():
                if p + q > self.ctx.n:
                    continue
                for idx1, c1 in left.items():
                    for idx2, c2 in right.items():
                        merged = _merge_indices(idx1, idx2)
                        if merged is None:
                            continue
                        idx, sign = merged
                        poly = (c1 * c2).scale(sign)
                        tgt = acc.setdefault(p + q, {})
                        s = tgt.get(idx)
                        s = poly if s is None else s + poly
                        if s.is_zero:
                            tgt.pop(idx, None)
                        else:
                            tgt[idx] = s
        out.components = {k: v for k, v in acc.items() if v}
        return out

    def eta(self) -> "Form":
        """Grade-parity involution: (-1)^p on the grade-p part."""
        f = Form.__new__(Form)
        f.ctx = self.ctx
        f.components = {
            k: (idx_map if k % 2 == 0 else {i: -p for i, p in idx_map.items()})
            for k, idx_map in self.components.items()
        }
        return f

    def termwise(self, fn) -> "Form":
        """Linear extension of a map on basis terms.

        ``fn(idx, exps)`` returns the image of ``y^exps dx^idx`` as
        ``(idx', exps', factor)`` triples; each is scaled by the term's
        coefficient and summed by :meth:`from_terms`.
        """
        return Form.from_terms(self.ctx, (
            (out_idx, out_exps, coef * factor)
            for idx_map in self.components.values()
            for idx, poly in idx_map.items()
            for exps, coef in poly.terms.items()
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

    def eval_at(self, point, absolute: bool = False) -> "Form":
        """Freeze coefficients to their value at a point; result is a
        constant-coefficient form (the pullback along the constant map)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.ctx.n:
            raise DimensionMismatch("point length != dimension")
        if absolute:
            point = [x - c for x, c in zip(point, self.ctx.center)]
        out = {}
        for k, idx_map in self.components.items():
            row = {}
            for idx, poly in idx_map.items():
                v = poly.eval(point)
                if v:
                    row[idx] = Poly.const(self.ctx.n, v)
            if row:
                out[k] = row
        f = Form.__new__(Form)
        f.ctx = self.ctx
        f.components = out
        return f

    def at_center(self) -> "Form":
        return self.eval_at([Fraction(0)] * self.ctx.n)

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
        deg = -1
        for idx_map in self.components.values():
            for poly in idx_map.values():
                deg = max(deg, poly.degree())
        return deg

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
    """Insertion antiderivative i_v: contracts each slot with alternating sign."""
    v.ctx.require_same(omega.ctx)
    acc: dict[int, dict[tuple, Poly]] = {}
    for k, idx_map in omega.components.items():
        if k == 0:
            continue
        for idx, poly in idx_map.items():
            for j, axis in enumerate(idx):
                comp = v.components[axis - 1]
                if comp.is_zero:
                    continue
                term = (poly * comp).scale((-1) ** j)
                rest = idx[:j] + idx[j + 1:]
                tgt = acc.setdefault(k - 1, {})
                s = tgt.get(rest)
                s = term if s is None else s + term
                if s.is_zero:
                    tgt.pop(rest, None)
                else:
                    tgt[rest] = s
    f = Form.__new__(Form)
    f.ctx = omega.ctx
    f.components = {k: m for k, m in acc.items() if m}
    return f


def form_linear(a, omega: Form, b, phi: Form) -> Form:
    """a*omega + b*phi, gradewise."""
    omega._check(phi)
    return omega.scale(a) + phi.scale(b)

"""Graded differential forms with polynomial coefficients.

A :class:`Form` stores its nonzero terms y^a dx^I as integer numerators keyed
by ``(index tuple, exponents)`` in the format of :class:`axc.polyring._Numerators`,
as a ``Poly`` does.  Every operator sums integers, so only the read
``Form.terms`` builds a ``Fraction``.  :func:`_rows` reads rows as ``Poly``s in
canonical order for ``repr``, ``Form.components`` (grade -> (index tuple ->
Poly)) and :mod:`axc.textio`; :func:`_lifted` lifts them back.

d, delta, H and h read one row table, :func:`_op_rows`, by the operator's name,
each as one loop over the whole form that groups its sums by denominator:
:func:`_lower` runs d and delta, :func:`_raise` H and h, and
:func:`axc.solvers._op_g` d G and delta G.  ``Form.wedge`` is one such loop
over a single group, and :func:`interior`, i_v, hands its images over H's rows
to :func:`axc.polyring._sum_numerators`.  Terms are summed only where they can
meet: eta and the filters ``Form._kept`` keep the form's keys, so they sum nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, attrgetter
from typing import Mapping

from .errors import DimensionMismatch, GradeOutOfRange
from .polyring import (Context, Poly, _as_fraction, _merged, _Numerators, _poly, _reduced,
                       _require_axis, _require_exponents, _require_operand, _sum_numerators)


@functools.lru_cache(maxsize=4096)
def _merge_indices(a: tuple, b: tuple):
    """dx^a ^ dx^b for any index tuples a and b, in any order.

    Returns (sorted tuple, (-1)^(inversions of a + b)) or None when an index
    repeats.  Cached: the wedge loop and the row tables ask for the same few
    index pairs again and again.
    """
    s = a + b
    if len(set(s)) < len(s):
        return None
    return tuple(sorted(s)), (-1) ** sum(x > y for x, y in itertools.combinations(s, 2))


def _wedge_slots(idx: tuple, n: int) -> tuple:
    """The generator dx^i ^ on dx^idx: a ``(i - 1, sorted idx + (i,), sign)`` row,
    axis 0-based, per i in 1..n not in idx; the sign is :func:`_merge_indices`'s."""
    return tuple((i - 1, *_merge_indices((i,), idx)) for i in range(1, n + 1) if i not in idx)


def _contract_slots(idx: tuple) -> tuple:
    """The generator i(d/dx_a) on dx^idx: a ``(a - 1, idx minus a, (-1)^j)`` row,
    axis 0-based, per slot j of idx, a = idx[j]."""
    return tuple((a - 1, idx[:j] + idx[j + 1:], (-1) ** j) for j, a in enumerate(idx))


@functools.lru_cache(maxsize=4096)
def _op_rows(op: str, idx: tuple, signature: tuple) -> tuple:
    """The ``(i, I', sign)`` rows, axis i 0-based, of "d" and "H" on dx^idx, the
    generators :func:`_wedge_slots` and :func:`_contract_slots`, and of their
    star-conjugates "delta" and "h", the same generators swapped, each sign times
    -eps_i: the one place that twist is written.  Cached as ``_star_row`` is."""
    rows = _wedge_slots(idx, len(signature)) if op in ("d", "h") else _contract_slots(idx)
    if op in ("d", "H"):
        return rows
    return tuple((i, out, -sign * signature[i]) for i, out, sign in rows)


def _lower(omega: "Form", op: str) -> "Form":
    """d (op "d") or delta (op "delta") on the whole form, in one loop: each
    term y^a dx^I with numerator N adds sign * a_i * N to y^(a - e_i) dx^I' over
    op's rows, every factor an integer, so one group over 1 holds the image."""
    signature, acc = omega.ctx.signature, {}
    for (idx, exps), N in omega._nums.items():
        for i, out_idx, sign in _op_rows(op, idx, signature):
            e = exps[i]
            if e:
                stepped = list(exps)
                stepped[i] = e - 1
                key = (out_idx, tuple(stepped))
                acc[key] = acc.get(key, 0) + sign * e * N
    return _form(omega.ctx, *_merged({1: acc}, omega._den))


def _raise(omega: "Form", op: str) -> "Form":
    """H (op "H") or h (op "h") on the whole form, in one loop: each term
    y^a dx^I with numerator N adds sign * N to y^(a + e_i) dx^I' over op's rows,
    in the group of its :func:`_weight`.  A term with no rows adds nothing and
    opens no group: its weight may be 0, which no lcm lifts over."""
    signature, groups = omega.ctx.signature, {}
    for (idx, exps), N in omega._nums.items():
        rows = _op_rows(op, idx, signature)
        if not rows:
            continue
        w = _weight(exps, rows)
        group = groups.get(w)
        if group is None:
            group = groups[w] = {}
        for i, out_idx, sign in rows:
            stepped = list(exps)
            stepped[i] += 1
            key = (out_idx, tuple(stepped))
            group[key] = group.get(key, 0) + sign * N
    return _form(omega.ctx, *_merged(groups, omega._den))


def _weight(exps: tuple, rows: tuple) -> int:
    """|a| + (number of rows), |a| + k for H and |a| + n - k for h: the Koszul weight
    (Arnold, Falk & Winther 2006, section 3), never 0 where a row exists."""
    return sum(exps) + len(rows)


def _require_grade(k, n: int) -> None:
    """A grade: an ``int`` in 0..n, never coerced (no bool, no float)."""
    if type(k) is not int or not 0 <= k <= n:
        raise GradeOutOfRange(f"grade {k!r} outside 0..{n}")


def _require_indices(idx: tuple, n: int) -> None:
    """An index tuple: ``int`` entries, never coerced, strictly increasing in 1..n."""
    if any(type(i) is not int for i in idx) or list(idx) != sorted(set(idx)):
        raise GradeOutOfRange(f"index tuple {idx} not strictly increasing integers")
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise GradeOutOfRange(f"index tuple {idx} outside 1..{n}")


def _form(ctx: Context, D: int, nums: dict) -> "Form":
    """The form of valid, distinct, nonzero ``{(index tuple, exponents): int}``
    numerators over D, canonical as :class:`_Numerators` states, unchecked."""
    f = Form.__new__(Form)
    f.ctx, f._den, f._nums = ctx, D, nums
    return f


def _rows(form: "Form") -> list:
    """The one walk over a form's rows: ``(index tuple, Poly)`` pairs, grades
    ascending and then index tuples sorted."""
    rows: dict = {}
    for (idx, exps), v in form._nums.items():
        rows.setdefault(idx, {})[exps] = v
    return [(idx, _poly(form.ctx.n, *_reduced(form._den, rows[idx])))
            for idx in sorted(rows, key=lambda i: (len(i), i))]


def _lifted(rows) -> tuple[int, dict]:
    """The inverse of :func:`_rows`: ``(D, nums)`` of (index tuple, Poly) rows, summed."""
    return _sum_numerators([((idx, e), v, p._den) for idx, p in rows for e, v in p._nums.items()])


class Form(_Numerators):
    """``ctx`` and the numerators ``_nums`` over ``_den`` of :class:`_Numerators`, private to it."""

    __slots__ = ("ctx", "_den", "_nums")
    _space = property(attrgetter("ctx"))
    _build = staticmethod(_form)

    def __init__(self, ctx: Context, components: Mapping[int, Mapping[tuple, Poly]] | None = None):
        """Keep the nonzero coefficients of a grade -> (index tuple -> Poly) map, flat,
        summing nothing: two keys that read as one index tuple are an error.
        Grades and index entries must be ``int``, never coerced (no bool, no
        float); an index tuple is strictly increasing in 1..n, as long as its grade."""
        rows: dict[tuple, Poly] = {}
        for k, idx_map in (components or {}).items():
            _require_grade(k, ctx.n)
            for idx, poly in idx_map.items():
                idx = tuple(idx)
                if len(idx) != k:
                    raise GradeOutOfRange(f"index tuple {idx} has wrong length for grade {k}")
                _require_indices(idx, ctx.n)
                if not isinstance(poly, Poly):
                    raise TypeError(f"coefficient {poly!r} is not a Poly")
                if poly.n != ctx.n:
                    raise DimensionMismatch("coefficient dimension != context dimension")
                if idx in rows:
                    raise ValueError(f"index tuple {idx} given twice")
                rows[idx] = poly
        self.ctx = ctx
        self._den, self._nums = _lifted(rows.items())

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
        """Sum ``(index tuple, exponent tuple, int or Fraction)`` triples into a
        form by :func:`_sum_numerators`.  Every triple, a cancelling one too, is
        checked first: its index tuple by the constructor's rule (so its grade is
        in 0..n), its exponents and coefficient by :class:`Poly`'s."""
        entries = []
        for idx, exps, c in terms:
            idx, exps, c = tuple(idx), tuple(exps), _as_fraction(c)
            _require_indices(idx, ctx.n)
            _require_exponents(exps, ctx.n)
            entries.append(((idx, exps), c.numerator, c.denominator))
        return _form(ctx, *_sum_numerators(entries))

    # -- linear structure --------------------------------------------------

    # bound here, not only inherited, so that the tracer can wrap Form's own
    __add__ = _Numerators.__add__

    def mul_poly(self, p: Poly) -> "Form":
        return self.wedge(Form.from_poly(self.ctx, p))

    # -- graded operations -------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        """One loop: each pair of terms adds sign * N * M to their merged basis
        term, all integers, so one group over the two denominators' product holds it."""
        if not isinstance(other, Form):
            raise TypeError(f"cannot wedge a Form with {type(other).__name__}")
        self.ctx.require_same(other.ctx)
        right, acc = other._nums.items(), {}
        for (idx, exps), N in self._nums.items():
            for (idx2, exps2), M in right:
                merged = _merge_indices(idx, idx2)
                if merged is not None:
                    key = (merged[0], tuple(map(add, exps, exps2)))
                    acc[key] = acc.get(key, 0) + merged[1] * N * M
        return _form(self.ctx, *_merged({1: acc}, self._den * other._den))

    def eta(self) -> "Form":
        """Grade-parity involution: (-1)^p on the grade-p part; a sign flip sums nothing."""
        return _form(self.ctx, self._den, {key: -N if len(key[0]) % 2 else N
                                           for key, N in self._nums.items()})

    def terms(self):
        """Every basis term as an ``(index tuple, exponent tuple, Fraction)`` triple."""
        return ((idx, exps, Fraction(v, self._den)) for (idx, exps), v in self._nums.items())

    def _kept(self, k, constant: bool) -> "Form":
        """The terms of grade k (any grade for None), only the constant ones if
        ``constant``: a filter sums nothing, and only the common gcd can drop."""
        return _form(self.ctx, *_reduced(self._den, {
            key: N for key, N in self._nums.items()
            if (k is None or len(key[0]) == k) and not (constant and any(key[1]))}))

    def grade_select(self, k: int) -> "Form":
        _require_grade(k, self.ctx.n)
        return self._kept(k, False)

    def d(self) -> "Form":
        """Exterior derivative (coordinate chart, so d = sum_i dx_i ^ d/dy_i)."""
        return _lower(self, "d")

    def eval_at(self, point) -> "Form":
        """Freeze coefficients to their value at a point; result is a
        constant-coefficient form (the pullback along the constant map)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != self.ctx.n:
            raise DimensionMismatch("point length != dimension")
        zeros, entries = (0,) * self.ctx.n, []
        for (idx, exps), N in self._nums.items():
            r, s = math.prod(x ** e for x, e in zip(point, exps) if e).as_integer_ratio()
            entries.append(((idx, zeros), N * r, s))
        return _form(self.ctx, *_sum_numerators(entries, self._den))

    def at_center(self) -> "Form":
        """The constant terms: every coefficient's value at the chart center."""
        return self._kept(None, True)

    # -- queries -----------------------------------------------------------

    @property
    def components(self) -> dict[int, dict[tuple, Poly]]:
        """The grade -> (index tuple -> Poly) view of :func:`_rows`, built anew on each read."""
        comps: dict = {}
        for idx, poly in _rows(self):
            comps.setdefault(len(idx), {})[idx] = poly
        return comps

    def grades(self) -> list[int]:
        return sorted({len(idx) for idx, _ in self._nums})

    def homogeneous_grade(self):
        """Grade of a homogeneous form; None for zero, error if mixed."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise GradeOutOfRange(f"form mixes grades {gs}")
        return gs[0]

    def coefficient(self, indices) -> Poly:
        """The coefficient of dx^indices; the indices follow the constructor's rule."""
        indices = tuple(indices)
        _require_indices(indices, self.ctx.n)
        return _poly(self.ctx.n, *_reduced(
            self._den, {e: v for (i, e), v in self._nums.items() if i == indices}))

    def max_coeff_degree(self) -> int:
        return max((sum(exps) for _, exps in self._nums), default=-1)

    def __repr__(self):
        bits = [f"({poly!r})*" + ("^".join(f"dx{i}" for i in idx) or "1")
                for idx, poly in _rows(self)]
        return "Form(" + (" + ".join(bits) or "0") + ")"


class VectorField:
    """n polynomial components in the coordinate frame d/dx_i."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: Context, components):
        components = tuple(components)
        if len(components) != ctx.n:
            raise DimensionMismatch("vector field needs n components")
        for p in components:
            if not isinstance(p, Poly):
                raise TypeError(f"component {p!r} is not a Poly")
            if p.n != ctx.n:
                raise DimensionMismatch("component dimension != context dimension")
        self.ctx = ctx
        self.components = components

    @classmethod
    def frame(cls, ctx: Context, i: int) -> "VectorField":
        """The constant coordinate vector d/dx_i."""
        _require_axis(i, ctx.n)
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
    """Insertion antiderivative i_v: i_v(y^a dx^I) = sum_j (-1)^j v_{i_j} y^a
    dx^{I minus i_j} over H's rows in :func:`_op_rows`, each image over the
    denominator of its component of v, summed by :func:`_sum_numerators`."""
    if not isinstance(v, VectorField) or not isinstance(omega, Form):
        raise TypeError("interior takes a VectorField and a Form")
    v.ctx.require_same(omega.ctx)
    signature, entries = omega.ctx.signature, []
    for (idx, exps), N in omega._nums.items():
        for i, rest, sign in _op_rows("H", idx, signature):
            p = v.components[i]
            for v_exps, c in p._nums.items():
                entries.append(((rest, tuple(map(add, exps, v_exps))), sign * N * c, p._den))
    return _form(omega.ctx, *_sum_numerators(entries, omega._den))


def form_linear(a, omega: Form, b, phi: Form) -> Form:
    """a*omega + b*phi, gradewise."""
    _require_operand(omega, Form)
    _require_operand(phi, Form)
    return omega.scale(a) + phi.scale(b)

"""Graded differential forms with polynomial coefficients.

A :class:`Form` stores its terms y^a dx^I as integer numerators in the format of
:class:`axc.polyring._Numerators`, each keyed by one ``int``, key = mask + y^a's
key in the layout :mod:`axc.polyring` states: bit i - 1 of the 16-bit mask is
dx^i, so a coefficient's key is ``key & ~0xFFFF`` and a row lifts by ``mask + key``.
The width rule is :class:`Poly`'s; after each operator that raises the degree,
:func:`_checked` raises ``DegreeOutOfRange`` past it.
Operators act on keys by integer arithmetic, the bitmap basis blades of Dorst,
Fontijne & Mann (2007, ch. 19) with the packed exponents of Monagan & Pearce
(CASC 2007): rows add offsets (:func:`_op_rows`), star flips the mask, a wedge
adds keys with disjoint masks, every basis sign is :func:`_wedge_sign`'s.
Index tuples are built only at the edges: :func:`_rows` reads ``(index tuple, Poly)``
rows in canonical order and :func:`_lifted` adds the masks back.  :func:`_lower`
(d, delta), :func:`_raise` (H, h), ``Form.wedge`` and
:func:`axc.solvers._op_g` (d G, delta G) are each one loop over the whole form
that groups its sums by denominator; eta and ``Form._kept`` sum nothing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Mapping

from .errors import DegreeOutOfRange, DimensionMismatch, GradeOutOfRange
from .polyring import (_UNITS, MAX_DEGREE, Context, Poly, _as_fraction, _degree, _exponents,
                       _merged, _Numerators, _packed, _poly, _reduced, _require_axis,
                       _require_same, _sum_numerators)


class _Table(dict):
    """Entries built on first read by ``build(key)``, all dropped at 4 096 of them."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        if len(self) >= 4096:
            self.clear()
        value = self[key] = self.build(key)
        return value


def _wedge_sign(pair: int) -> int:
    """dx^I ^ dx^J = sign * dx^(I | J) for the masks I = pair >> 16, J = pair & 0xFFFF:
    (-1)^(pairs i in I, j in J with i > j), the one basis sign rule; 0 if I & J."""
    I, J = pair >> 16, pair & 0xFFFF
    crossed = sum((I >> j).bit_count() for j in range(16) if J >> j & 1)
    return 0 if I & J else -1 if crossed & 1 else 1


_WEDGE_SIGNS = _Table(_wedge_sign)
_INDICES = _Table(lambda mask: tuple(i + 1 for i in range(16) if mask >> i & 1))  # mask -> I


def _op_rows(op: str, n: int, signature, mask: int) -> tuple:
    """The ``(shift, offset, sign)`` rows of op on dx^mask, one per axis i + 1 that
    op's generator acts on: d and h wedge dx^(i+1) on (bit i clear), H and delta
    contract it (bit i set).  a_(i+1) lies at ``shift``; key + offset moves bit i and
    steps a_(i+1) and |a| down for d and delta, up for H and h.  The sign is
    :func:`_wedge_sign`'s for dx^(i+1) and the rest of the mask, times -eps_(i+1)
    for delta and h, the one place that twist is written; d and H get no signature."""
    wedge, lower = op in ("d", "h"), op in ("d", "delta")
    rows = []
    for i, unit in enumerate(_UNITS[n]):
        bit = 1 << i
        if bool(mask & bit) is not wedge:
            sign = _WEDGE_SIGNS[bit << 16 | mask & ~bit] * (-signature[i] if signature else 1)
            rows.append((16 * i + 16, (bit if wedge else -bit) + (-unit if lower else unit), sign))
    return tuple(rows)


# (rule, *args) -> mask -> rule(*args, mask), built per mask: the row tables (d and
# H keyed by n alone, their rows reading no metric) and the star's signs
_TABLES = _Table(lambda key: _Table(functools.partial(*key)))


def _op_table(op: str, signature: tuple) -> _Table:
    return _TABLES[_op_rows, op, len(signature), signature if op in ("delta", "h") else None]


def _lower(omega: "Form", op: str) -> "Form":
    """d (op "d") or delta (op "delta") on the whole form, in one loop: each
    term y^a dx^I with numerator N adds sign * a_i * N to y^(a - e_i) dx^I' over
    op's rows, every factor an integer, so one group over 1 holds the image."""
    table, acc = _op_table(op, omega.ctx.signature), {}
    for key, N in omega._nums.items():
        for shift, offset, sign in table[key & 0xFFFF]:
            e = key >> shift & 0xFFFF
            if e:
                out = key + offset
                acc[out] = acc.get(out, 0) + sign * e * N
    return _form(omega.ctx, *_merged({1: acc}, omega._den))


def _raise(omega: "Form", op: str) -> "Form":
    """H (op "H") or h (op "h") on the whole form, in one loop: each term
    y^a dx^I with numerator N adds sign * N to y^(a + e_i) dx^I' over op's rows,
    in the group of its Koszul weight |a| + #rows (Arnold, Falk & Winther 2006,
    section 3).  A term with no rows opens no group: its weight may be 0."""
    ctx = omega.ctx
    table, top, groups = _op_table(op, ctx.signature), 16 * ctx.n + 16, {}
    for key, N in omega._nums.items():
        rows = table[key & 0xFFFF]
        if not rows:
            continue
        w = (key >> top) + len(rows)
        group = groups.get(w)
        if group is None:
            group = groups[w] = {}
        for _, offset, sign in rows:
            out = key + offset
            group[out] = group.get(out, 0) + sign * N
    return _checked(ctx, *_merged(groups, omega._den))


def _checked(ctx: Context, D: int, nums: dict) -> "Form":
    """:func:`_form` of an operator's image under the width rule, read off the largest
    key's degree field, which a carry out of an exponent past the rule only raises."""
    if _degree(nums, ctx.n) > MAX_DEGREE:
        raise DegreeOutOfRange(f"coefficient degree above {MAX_DEGREE}")
    return _form(ctx, D, nums)


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
    """The form of valid, distinct, nonzero ``{key: int}`` numerators over D,
    canonical as :class:`_Numerators` states, unchecked."""
    f = Form.__new__(Form)
    f.ctx, f._den, f._nums = ctx, D, nums
    return f


def _mask(idx: tuple) -> int:
    """The mask of an index tuple of distinct indices: bit i - 1 per index i."""
    return sum(1 << i - 1 for i in idx)


def _rows(form: "Form") -> list:
    """The one walk over a form's rows: ``(index tuple, Poly)`` pairs, grades
    ascending and then index tuples sorted."""
    rows = {}
    for key, v in form._nums.items():
        rows.setdefault(key & 0xFFFF, {})[key & ~0xFFFF] = v
    return sorted([(_INDICES[mask], _poly(form.ctx.n, *_reduced(form._den, row)))
                   for mask, row in rows.items()], key=lambda r: (len(r[0]), r[0]))


def _lifted(rows) -> tuple[int, dict]:
    """The inverse of :func:`_rows`: ``(D, nums)`` of (index tuple, Poly) rows, summed."""
    return _sum_numerators([(mask + key, v, p._den) for idx, p in rows
                            for mask in (_mask(idx),) for key, v in p._nums.items()])


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
            idx, c = tuple(idx), _as_fraction(c)
            _require_indices(idx, ctx.n)
            entries.append((_mask(idx) + _packed(exps, ctx.n), c.numerator, c.denominator))
        return _form(ctx, *_sum_numerators(entries))

    # -- linear structure --------------------------------------------------

    # bound here, not only inherited, so that the tracer can wrap Form's own
    __add__ = _Numerators.__add__

    # -- graded operations -------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        """One loop: each pair of terms with disjoint masks adds sign * N * M to the
        key k1 + k2, all integers, so one group over the two denominators' product holds it."""
        if not isinstance(other, Form):
            raise TypeError(f"cannot wedge a Form with {type(other).__name__}")
        _require_same(self.ctx, other.ctx)
        signs, right, acc = _WEDGE_SIGNS, other._nums.items(), {}
        for k1, N in self._nums.items():
            high = (k1 & 0xFFFF) << 16
            for k2, M in right:
                sign = signs[high | k2 & 0xFFFF]
                if sign:
                    key = k1 + k2
                    acc[key] = acc.get(key, 0) + sign * N * M
        return _checked(self.ctx, *_merged({1: acc}, self._den * other._den))

    def eta(self) -> "Form":
        """Grade-parity involution: (-1)^p on the grade-p part; a sign flip sums nothing."""
        return _form(self.ctx, self._den, {key: -N if (key & 0xFFFF).bit_count() & 1 else N
                                           for key, N in self._nums.items()})

    def terms(self):
        """Every basis term as an ``(index tuple, exponent tuple, Fraction)`` triple."""
        return ((_INDICES[key & 0xFFFF], _exponents(key, self.ctx.n), Fraction(v, self._den))
                for key, v in self._nums.items())

    def _kept(self, k, constant: bool) -> "Form":
        """The terms of grade k (any grade for None), only the constant ones if
        ``constant``: a filter sums nothing, and only the common gcd can drop."""
        return _form(self.ctx, *_reduced(self._den, {
            key: N for key, N in self._nums.items()
            if (k is None or (key & 0xFFFF).bit_count() == k) and not (constant and key >> 16)}))

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
        entries = []
        for key, N in self._nums.items():
            exps = _exponents(key, self.ctx.n)
            r, s = math.prod(x ** e for x, e in zip(point, exps) if e).as_integer_ratio()
            entries.append((key & 0xFFFF, N * r, s))
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
        return sorted({(key & 0xFFFF).bit_count() for key in self._nums})

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
        indices, n = tuple(indices), self.ctx.n
        _require_indices(indices, n)
        mask = _mask(indices)
        return _poly(n, *_reduced(self._den, {key - mask: v for key, v in
                                              self._nums.items() if key & 0xFFFF == mask}))

    def max_coeff_degree(self) -> int:
        return max(self._nums) >> 16 * self.ctx.n + 16 if self._nums else -1

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
    dx^{I minus i_j} over H's rows in :func:`_op_table`, each image over the
    denominator of its component of v, summed by :func:`_sum_numerators`.  A
    term of component i is read as its key minus unit_i, which H's row added."""
    if not isinstance(v, VectorField) or not isinstance(omega, Form):
        raise TypeError("interior takes a VectorField and a Form")
    _require_same(v.ctx, omega.ctx)
    ctx, table, entries = omega.ctx, _op_table("H", omega.ctx.signature), []
    comps = {16 * i + 16: ([(key - unit, c) for key, c in p._nums.items()], p._den)
             for i, (p, unit) in enumerate(zip(v.components, _UNITS[ctx.n]))}
    for key, N in omega._nums.items():
        for shift, offset, sign in table[key & 0xFFFF]:
            terms, den = comps[shift]
            for step, c in terms:
                entries.append((key + offset + step, sign * N * c, den))
    return _checked(ctx, *_sum_numerators(entries, omega._den))

"""Metric operators for diagonal +-1 metrics: musical maps, Hodge star,
inverse star, codifferential.

Conventions (property-tested, not hand-simplified):
  star(dx^I) = (prod_{i in I} eps_i) * sgn(I, I^c) * dx^{I^c}
  star_inv   = (-1)^{r(n-r)} * sig(g) * star   on grade r
  delta      = star_inv o d o star o eta, evaluated in closed form per term:
    delta(f dx^I) = -sum_j (-1)^j eps_{i_j} (d f / d y_{i_j}) dx^{I minus i_j}
  with j the 0-based position of i_j in I.

star and star_inv are one relabelling I -> I^c with a sign, :func:`_star`,
which flips the key's mask bits and sums nothing, and delta is the whole-form
loop :func:`axc.forms._lower`.  Each sign rule is written once: the star rule
in :func:`_star_sign`, tabled per mask (star_inv only multiplies it by its
grade sign), and delta's rule -(-1)^j eps_{i_j} in :func:`axc.forms._op_rows`.
``tests/test_hodge.py`` checks them against the replaced loops and the
literal composite on random forms for n = 1..6.
"""

from __future__ import annotations

import math

from .errors import GradeOutOfRange
from .forms import _TABLES, _WEDGE_SIGNS, Form, VectorField, _form, _lower
from .polyring import _require_operand


def musical_flat(v: VectorField) -> Form:
    """v^flat: component i picks up the metric sign eps_i."""
    _require_operand(v, VectorField)
    signature = v.ctx.signature
    return Form(v.ctx, {1: {(i,): p.scale(signature[i - 1])
                            for i, p in enumerate(v.components, start=1)}})


def musical_sharp(alpha: Form) -> VectorField:
    """Inverse of flat; defined on homogeneous 1-forms (and zero)."""
    _require_operand(alpha, Form)
    ctx = alpha.ctx
    grade = alpha.homogeneous_grade()
    if grade not in (None, 1):
        raise GradeOutOfRange("sharp is defined on 1-forms")
    return VectorField(ctx, [alpha.coefficient((i,)).scale(s)
                             for i, s in enumerate(ctx.signature, start=1)])


def _star_sign(signature: tuple, inverse: bool, mask: int) -> int:
    """The sign of star(dx^I) = eps_I * sgn(I, I^c) * dx^{I^c} for the mask of I, the
    one star sign rule; ``inverse`` multiplies it by star_inv's sig(g) * (-1)^{k(n-k)}."""
    comp = (1 << len(signature)) - 1 ^ mask
    sign = _WEDGE_SIGNS[mask << 16 | comp] * math.prod(
        eps for i, eps in enumerate(signature) if mask >> i & 1)
    if inverse:
        sign *= math.prod(signature) * (-1) ** (mask.bit_count() * comp.bit_count())
    return sign


def _star(omega: Form, inverse: bool) -> Form:
    """star (or star_inv): y^a dx^I goes to sign * y^a dx^{I^c}, the key with its
    n mask bits flipped.  Keys stay distinct and the gcd 1, so nothing is summed."""
    signs, full = _TABLES[_star_sign, omega.ctx.signature, inverse], (1 << omega.ctx.n) - 1
    return _form(omega.ctx, omega._den, {key ^ full: signs[key & full] * N
                                         for key, N in omega._nums.items()})


def hodge_star(omega: Form) -> Form:
    _require_operand(omega, Form)
    return _star(omega, False)


def hodge_star_inv(omega: Form) -> Form:
    _require_operand(omega, Form)
    return _star(omega, True)


def codifferential(omega: Form) -> Form:
    _require_operand(omega, Form)
    return _lower(omega, "delta")

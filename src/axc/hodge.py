"""Metric operators for diagonal +-1 metrics: musical maps, Hodge star,
inverse star, codifferential.

Conventions (property-tested, not hand-simplified):
  star(dx^I) = (prod_{i in I} eps_i) * sgn(I, I^c) * dx^{I^c}
  star_inv   = (-1)^{r(n-r)} * sig(g) * star   on grade r
  delta      = star_inv o d o star o eta, evaluated in closed form per term:
    delta(f dx^I) = -sum_j (-1)^j eps_{i_j} (d f / d y_{i_j}) dx^{I minus i_j}
  with j the 0-based position of i_j in I.

star, star_inv and delta are maps on basis terms run by ``Form.termwise``, each
factor an integer over 1 (no ``Fraction``), and each sign rule is written once:
the row of :func:`_star_row`, cached per index tuple, holds the star rule
(star_inv only multiplies it by its grade sign), and the (-1)^j of delta is
read from the rows of :func:`axc.forms._contract_slots`.  ``tests/test_hodge.py``
checks them against the replaced loops and the literal composite on random
forms for n = 1..6.
"""

from __future__ import annotations

import functools
import math

from .errors import GradeOutOfRange
from .forms import Form, VectorField, _contract_slots, _merge_indices, _require_operand


def musical_flat(v: VectorField) -> Form:
    """v^flat: component i picks up the metric sign eps_i."""
    _require_operand(v, VectorField)
    signature = v.ctx.signature
    return Form(v.ctx, {1: {(i,): p.scale(signature[i - 1])
                            for i, p in enumerate(v.components, start=1)}})


def musical_sharp(alpha: Form) -> VectorField:
    """Inverse of flat; defined on homogeneous 1-forms (and zero)."""
    ctx = alpha.ctx
    grade = alpha.homogeneous_grade()
    if grade not in (None, 1):
        raise GradeOutOfRange("sharp is defined on 1-forms")
    return VectorField(ctx, [alpha.coefficient((i,)).scale(s)
                             for i, s in enumerate(ctx.signature, start=1)])


@functools.lru_cache(maxsize=4096)
def _star_row(idx: tuple, signature: tuple, inverse: bool) -> tuple:
    """``(I^c, sign)`` of star(dx^I) = eps_I * sgn(I, I^c) * dx^{I^c}, the one
    star sign rule; ``inverse`` multiplies the sign by star_inv's
    sig(g) * (-1)^{k(n-k)}.  Cached per index tuple: no exponents are kept."""
    comp = tuple(i for i in range(1, len(signature) + 1) if i not in idx)
    sign = _merge_indices(idx, comp)[1]
    for i in idx:
        sign *= signature[i - 1]
    if inverse:
        sign *= math.prod(signature) * (-1) ** (len(idx) * len(comp))
    return comp, sign


def star_terms(idx: tuple, exps: tuple, signature: tuple, inverse: bool = False) -> list:
    """star (or star_inv) on y^a dx^I: y^a times the row of :func:`_star_row`."""
    comp, sign = _star_row(idx, signature, inverse)
    return [(comp, exps, sign, 1)]


def hodge_star(omega: Form) -> Form:
    _require_operand(omega, Form)
    return omega.termwise(star_terms, omega.ctx.signature)


def hodge_star_inv(omega: Form) -> Form:
    _require_operand(omega, Form)
    return omega.termwise(star_terms, omega.ctx.signature, True)


def codifferential_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """delta on one basis term y^exps dx^idx, as ``(idx', exps', r, 1)`` images
    (the closed form of the module docstring)."""
    out = []
    for i, rest, sign in _contract_slots(idx):
        e = exps[i]
        if e:
            out.append((rest, exps[:i] + (e - 1,) + exps[i + 1:], -sign * signature[i] * e, 1))
    return out


def codifferential(omega: Form) -> Form:
    _require_operand(omega, Form)
    return omega.termwise(codifferential_terms, omega.ctx.signature)

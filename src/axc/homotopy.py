"""Linear homotopy machinery on a star-shaped chart.

The homotopy operator H inverts d on closed forms; the cohomotopy operator
h = eta o star_inv o H o star inverts the codifferential on coclosed forms
below top grade.  Together they give two direct-sum decompositions of the
space of forms:

    exact (+) antiexact        via  dH + Hd = I - (center pullback)
    coexact (+) anticoexact    via  delta h + h delta = I - (top-grade
                                    center evaluation)

Both operators have a closed monomial form and run term by term through
``Form.termwise``, the weight the integer denominator of each image factor, so
no ``Fraction`` is built here.  On y^a dx^I with |a| = m and |I| = k:

    H(y^a dx^I) =  i_K(y^a dx^I) / (m + k)        (contraction with K)
    h(y^a dx^I) = -K^flat ^ (y^a dx^I) / (m + n - k)   (zero on top grade)

with K = sum_i y_i d/dx_i the radial field and K^flat = sum_i eps_i y_i dx^i.
The h rule is the star-conjugate eta star_inv H star worked out per term.
Both read their signs from the generator tables of :mod:`axc.forms`, H as
delta does and h as ``d`` does, and ``tests/test_homotopy.py`` checks h
against that literal composite for n = 1..6.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import GradeOutOfRange, NoCopotential, NotClosed, NotCoclosed
from .forms import Form, VectorField, _contract_slots, _require_operand, _wedge_slots, interior
from .hodge import codifferential, musical_flat
from .polyring import Context, Poly


class SpaceTag(enum.Enum):
    EXACT = "E"
    ANTIEXACT = "A"
    COEXACT = "C"
    ANTICOEXACT = "Y"
    HODGE_HARMONIC = "harmonic"
    HODGE_ANTIHARMONIC = "antiharmonic"


class DecompositionMode(enum.Enum):
    EXACT_ANTIEXACT = "exact"
    COEXACT_ANTICOEXACT = "coexact"


class Decomposition(NamedTuple):
    """first + second = input exactly; first is the closed-side part."""

    first: Form
    second: Form
    mode: DecompositionMode


def k_field(ctx: Context) -> VectorField:
    """The radial field with components y_i; vanishes at the star center."""
    return VectorField(ctx, [Poly.variable(ctx.n, i) for i in range(1, ctx.n + 1)])


def _homotopy_terms(idx: tuple, exps: tuple) -> list:
    """H(y^a dx^I) = sum_j (-1)^j y^(a + e_{i_j}) dx^{I minus i_j} / (|a| + k):
    the radial contraction i_K dx^I times the monomial's H weight, never 0
    where :func:`axc.forms._contract_slots` has a row."""
    w = sum(exps) + len(idx)
    out = []
    for i, rest, sign in _contract_slots(idx):
        out.append((rest, exps[:i] + (exps[i] + 1,) + exps[i + 1:], sign, w))
    return out


def homotopy_H(omega: Form) -> Form:
    _require_operand(omega, Form)
    return omega.termwise(_homotopy_terms)


def _h_weight(idx: tuple, exps: tuple) -> int:
    """|a| + n - k: h divides y^a dx^I by it below top grade."""
    return sum(exps) + len(exps) - len(idx)


def _cohomotopy_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """h(y^a dx^I) = -sum_{i not in I} eps_i y^(a + e_i) dx^i ^ dx^I / (|a| + n - k),
    the weight never 0 where :func:`axc.forms._wedge_slots` has a row."""
    w = _h_weight(idx, exps)
    out = []
    for i, new_idx, sign in _wedge_slots(idx, len(exps)):
        out.append((new_idx, exps[:i] + (exps[i] + 1,) + exps[i + 1:], -sign * signature[i], w))
    return out


def cohomotopy_h(omega: Form) -> Form:
    _require_operand(omega, Form)
    return omega.termwise(_cohomotopy_terms, omega.ctx.signature)


def center_pullback(omega: Form) -> Form:
    """s*_{x0}: kills positive grades, freezes the 0-form part at the center."""
    return omega.grade_select(0).at_center()


def center_top_eval(omega: Form) -> Form:
    """S_{x0}: nonzero only on the top grade, which it freezes at the center."""
    return omega.grade_select(omega.ctx.n).at_center()


def _side(exact: bool) -> tuple:
    """(differential, its homotopy, center term, name) of the exact half, (d, H,
    s*_{x0}, "d"), or the coexact half, (delta, h, S_{x0}, "delta").  Looked up
    per call, so an operator rebound in place (by a tracer) is the one that runs."""
    if exact:
        return Form.d, homotopy_H, center_pullback, "d"
    return codifferential, cohomotopy_h, center_top_eval, "delta"


def decompose(omega: Form, mode: DecompositionMode) -> Decomposition:
    """op(inv(omega)) + center(omega) and inv(op(omega)) for the half of ``mode``."""
    if not isinstance(mode, DecompositionMode):
        raise ValueError(f"unknown decomposition mode {mode!r}")
    op, inv, center, _ = _side(mode is DecompositionMode.EXACT_ANTIEXACT)
    return Decomposition(op(inv(omega)) + center(omega), inv(op(omega)), mode)


def membership(omega: Form, tag: SpaceTag) -> bool:
    if tag is SpaceTag.EXACT:
        return omega.d().is_zero
    if tag is SpaceTag.COEXACT:
        return codifferential(omega).is_zero
    if tag is SpaceTag.ANTIEXACT:
        return interior(k_field(omega.ctx), omega).is_zero and omega.at_center().is_zero
    if tag is SpaceTag.ANTICOEXACT:
        kflat = musical_flat(k_field(omega.ctx))
        return kflat.wedge(omega).is_zero and omega.at_center().is_zero
    if tag is SpaceTag.HODGE_HARMONIC:
        return membership(omega, SpaceTag.EXACT) and membership(omega, SpaceTag.COEXACT)
    if tag is SpaceTag.HODGE_ANTIHARMONIC:
        return membership(omega, SpaceTag.ANTIEXACT) and membership(omega, SpaceTag.ANTICOEXACT)
    raise ValueError(f"unknown space tag {tag!r}")


def potential(omega: Form) -> Form:
    """The canonical (antiexact) potential H(omega) of a closed form.

    Gauge freedom -- adding any closed form -- is the caller's concern.
    """
    grade = omega.homogeneous_grade()
    if grade is None:
        return Form.zero(omega.ctx)
    if grade == 0:
        raise GradeOutOfRange("closed 0-forms are constants; no 1-step potential")
    if not omega.d().is_zero:
        raise NotClosed("form is not closed")
    return homotopy_H(omega)


def copotential(omega: Form) -> Form:
    """The canonical copotential h(omega) of a coclosed form of grade < n."""
    grade = omega.homogeneous_grade()
    if grade is None:
        return Form.zero(omega.ctx)
    if grade == omega.ctx.n:
        raise NoCopotential("top-grade forms have no copotential")
    if not codifferential(omega).is_zero:
        raise NotCoclosed("form is not coclosed")
    return cohomotopy_h(omega)


def anticoexact_wedge_factor(omega: Form) -> Form:
    """For anticoexact omega, a form alpha with K^flat ^ alpha = omega.

    Constructive version of the structure result that anticoexact forms are
    K^flat-multiples.  Members satisfy omega = h(delta(omega)), and
    h = -K^flat ^ W with W the division by :func:`_h_weight`, so
    alpha = -W(delta(omega)).
    """
    return codifferential(omega).termwise(
        lambda idx, exps: [(idx, exps, -1, _h_weight(idx, exps))])

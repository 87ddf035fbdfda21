"""Linear homotopy machinery on a star-shaped chart.

The homotopy operator H inverts d on closed forms; the cohomotopy operator
h = eta o star_inv o H o star inverts the codifferential on coclosed forms
below top grade.  Together they give two direct-sum decompositions of the
space of forms:

    exact (+) antiexact        via  dH + Hd = I - (center pullback)
    coexact (+) anticoexact    via  delta h + h delta = I - (top-grade
                                    center evaluation)

Both operators have a closed monomial form and run as one loop over the whole
form, :func:`axc.forms._raise`, which sums each term's image in the group of
its weight, an integer denominator, so no ``Fraction`` is built here.  On
y^a dx^I with |a| = m and |I| = k:

    H(y^a dx^I) =  i_K(y^a dx^I) / (m + k)        (contraction with K)
    h(y^a dx^I) = -K^flat ^ (y^a dx^I) / (m + n - k)   (zero on top grade)

with K = sum_i y_i d/dx_i the radial field and K^flat = sum_i eps_i y_i dx^i.
The h rule is the star-conjugate eta star_inv H star worked out per term.
Both read their rows in the one table :func:`axc.forms._op_rows`, H over
delta's generators and h over d's, and ``tests/test_homotopy.py`` checks h
against that literal composite for n = 1..6.

The antiexact space is A = ker H and the anticoexact space Y = ker h, each
with no constant term (omega vanishing at the center).  On the block of
coefficient degree m and grade k, H is i_K / (m + k) and h is
-K^flat ^ / (m + n - k), each weight nonzero wherever the operator has a row and
distinct blocks landing in distinct blocks, so ker H = ker i_K and
ker h = ker K^flat ^, and :func:`membership` builds neither K nor K^flat.

The center maps s*_{x0} (:func:`center_pullback`) and S_{x0}
(:func:`center_top_eval`) are one filter each, ``Form._kept``: a term stays
only if its grade is 0 (resp. n) and its coefficient is a constant.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import GradeOutOfRange, NoCopotential, NotClosed, NotCoclosed
from .forms import Form, VectorField, _form, _op_rows, _raise, _weight
from .hodge import codifferential
from .polyring import Context, Poly, _require_operand, _sum_numerators


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
    """The caller's split: first + second = input exactly, first the closed side."""

    first: Form
    second: Form


def k_field(ctx: Context) -> VectorField:
    """The radial field with components y_i; vanishes at the star center."""
    _require_operand(ctx, Context)
    return VectorField(ctx, [Poly.variable(ctx.n, i) for i in range(1, ctx.n + 1)])


def homotopy_H(omega: Form) -> Form:
    _require_operand(omega, Form)
    return _raise(omega, "H")


def cohomotopy_h(omega: Form) -> Form:
    _require_operand(omega, Form)
    return _raise(omega, "h")


def center_pullback(omega: Form) -> Form:
    """s*_{x0}: kills positive grades, freezes the 0-form part at the center.
    One filter: a term stays only if it is a constant of grade 0."""
    _require_operand(omega, Form)
    return omega._kept(0, True)


def center_top_eval(omega: Form) -> Form:
    """S_{x0}: nonzero only on the top grade, which it freezes at the center.
    One filter: a term stays only if it is a constant of grade n."""
    _require_operand(omega, Form)
    return omega._kept(omega.ctx.n, True)


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
    return Decomposition(op(inv(omega)) + center(omega), inv(op(omega)))


def membership(omega: Form, tag: SpaceTag) -> bool:
    """Whether omega lies in the space of ``tag``, decided exactly.

    E = ker d and C = ker delta; A = ker H and Y = ker h, each with no
    constant term.  H and h are i_K and -K^flat ^ divided by a weight that is
    constant and nonzero on each (degree, grade) block they do not kill, and
    distinct blocks map to distinct blocks, so their kernels are those of
    i_K and K^flat ^.  The harmonic tags intersect E with C and A with Y.
    """
    _require_operand(omega, Form)
    if tag is SpaceTag.EXACT:
        return omega.d().is_zero
    if tag is SpaceTag.COEXACT:
        return codifferential(omega).is_zero
    if tag is SpaceTag.ANTIEXACT:
        return homotopy_H(omega).is_zero and omega.at_center().is_zero
    if tag is SpaceTag.ANTICOEXACT:
        return cohomotopy_h(omega).is_zero and omega.at_center().is_zero
    if tag is SpaceTag.HODGE_HARMONIC:
        return membership(omega, SpaceTag.EXACT) and membership(omega, SpaceTag.COEXACT)
    if tag is SpaceTag.HODGE_ANTIHARMONIC:
        return membership(omega, SpaceTag.ANTIEXACT) and membership(omega, SpaceTag.ANTICOEXACT)
    raise ValueError(f"unknown space tag {tag!r}")


def potential(omega: Form) -> Form:
    """The canonical (antiexact) potential H(omega) of a closed form.

    Gauge freedom -- adding any closed form -- is the caller's concern.
    """
    _require_operand(omega, Form)
    if omega.homogeneous_grade() == 0:
        raise GradeOutOfRange("closed 0-forms are constants; no 1-step potential")
    if not omega.d().is_zero:
        raise NotClosed("form is not closed")
    return homotopy_H(omega)


def copotential(omega: Form) -> Form:
    """The canonical copotential h(omega) of a coclosed form of grade < n."""
    _require_operand(omega, Form)
    if omega.homogeneous_grade() == omega.ctx.n:
        raise NoCopotential("top-grade forms have no copotential")
    if not codifferential(omega).is_zero:
        raise NotCoclosed("form is not coclosed")
    return cohomotopy_h(omega)


def anticoexact_wedge_factor(omega: Form) -> Form:
    """For anticoexact omega, a form alpha with K^flat ^ alpha = omega.

    Constructive version of the structure result that anticoexact forms are
    K^flat-multiples.  Members satisfy omega = h(delta(omega)), and
    h = -K^flat ^ W with W the division by h's weight on its rows, so
    alpha = -W(delta(omega)).
    """
    delta = codifferential(omega)
    return _form(delta.ctx, *_sum_numerators(
        [((idx, exps), -N, _weight(exps, _op_rows("h", idx, delta.ctx.signature)))
         for (idx, exps), N in delta._nums.items()], delta._den))

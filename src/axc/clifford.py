"""Clifford action on forms and the Dirac-type operators, whose five images
live in one table, ``_OPERATORS``, tag -> image, read by :func:`apply_operator`."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import GradeOutOfRange
from .forms import Form, VectorField, _form, interior
from .hodge import codifferential, musical_flat
from .homotopy import DecompositionMode, cohomotopy_h, decompose, homotopy_H
from .polyring import _UNITS, _require_operand, _sum_numerators


class OperatorTag(enum.Enum):
    DIRAC = "dirac"
    ANTI_DIRAC = "antidirac"
    LAPLACE_BELTRAMI = "laplace"
    ANTI_LAPLACE = "antilaplace"
    OSCILLATOR_HBAR = "hbar"


def clifford_vec_mul(v: VectorField, psi: Form) -> Form:
    """Clifford multiplication of a vector by a form: v^flat ^ psi + i_v psi.

    For the radial field this is exactly the split of psi into its
    anticoexact (wedge) and antiexact (insertion) pieces.  ``musical_flat``
    checks v, and ``wedge`` psi and the shared context.
    """
    return musical_flat(v).wedge(psi) + interior(v, psi)


def box_terms(key: int, signature: tuple) -> list:
    """Laplace-Beltrami -(delta d + d delta) on y^a dx^I, the term's key, as
    ``(key, int factor)`` pairs, the one rule for it: on a constant diagonal +-1
    metric it is the wave operator box = sum_i eps_i d^2/dy_i^2 on the
    coefficient, with no sign and no change of basis term (the mask passes
    through), so it lowers coefficient degree by exactly 2."""
    out = []
    for i, unit in enumerate(_UNITS[len(signature)]):
        e = key >> 16 * i + 16 & 0xFFFF
        if e > 1:
            out.append((key - 2 * unit, signature[i] * e * (e - 1)))
    return out


# Each image reads the module globals of the operators it calls at call time,
# so a rebinding of them is seen.
_OPERATORS = {
    OperatorTag.DIRAC: lambda psi: psi.d() - codifferential(psi),
    OperatorTag.ANTI_DIRAC: lambda psi: cohomotopy_h(psi) - homotopy_H(psi),
    OperatorTag.LAPLACE_BELTRAMI: lambda psi: _form(psi.ctx, *_sum_numerators(
        [(out, f * N, 1) for key, N in psi._nums.items()
         for out, f in box_terms(key, psi.ctx.signature)], psi._den)),
    OperatorTag.ANTI_LAPLACE:
        lambda psi: -(homotopy_H(cohomotopy_h(psi)) + cohomotopy_h(homotopy_H(psi))),
    OperatorTag.OSCILLATOR_HBAR:
        lambda psi: cohomotopy_h(codifferential(psi)) - codifferential(cohomotopy_h(psi)),
}


def apply_operator(tag: OperatorTag, psi: Form) -> Form:
    if not isinstance(tag, OperatorTag):
        raise ValueError(f"unknown operator tag {tag!r}")
    _require_operand(psi, Form)
    return _OPERATORS[tag](psi)


def laplace_beltrami(psi: Form) -> Form:
    return apply_operator(OperatorTag.LAPLACE_BELTRAMI, psi)


class OscillatorReport(NamedTuple):
    """A middle-grade form's coexact and anticoexact parts under the
    cohomotopic oscillator H-bar = h delta - delta h, which acts as -1 on the
    first and +1 on the second."""

    coexact_part: Form
    anticoexact_part: Form
    eigenvalue: int | None       # +-1 when the input is an eigenvector, else None

    @property
    def is_eigenvector(self) -> bool:
        return self.eigenvalue is not None


def oscillator_eigencheck(omega: Form) -> OscillatorReport:
    """Split a homogeneous middle-grade form by H-bar's +-1 spectrum.

    The parts come from :func:`decompose`, and the eigenvalue is -1 (resp. +1)
    when only the coexact (resp. anticoexact) part is nonzero.  H-bar is not
    applied here: its -1 and +1 on the parts follow from delta^2 = h^2 = 0,
    delta h delta = delta and h delta h = h, which the identity suite
    certifies, and acceptance criterion 7 applies it to sampled parts.
    """
    _require_operand(omega, Form)
    k = omega.homogeneous_grade()
    n = omega.ctx.n
    if k is None or not 0 < k < n:
        raise GradeOutOfRange("oscillator spectrum is clean only for 0 < grade < n")
    coexact, anticoexact = decompose(omega, DecompositionMode.COEXACT_ANTICOEXACT)
    eigenvalue = None
    if coexact.is_zero and not anticoexact.is_zero:
        eigenvalue = +1
    elif anticoexact.is_zero and not coexact.is_zero:
        eigenvalue = -1
    return OscillatorReport(coexact, anticoexact, eigenvalue)

"""Clifford action on forms, Dirac-type operators, and grade bookkeeping.

The five operators live in one table, ``_OPERATORS``, tag -> (image, grade-block
offsets), read by :func:`apply_operator` and :func:`grade_block_check`."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import GradeOutOfRange
from .forms import Form, VectorField, _form, interior
from .hodge import codifferential, musical_flat
from .homotopy import DecompositionMode, cohomotopy_h, decompose, homotopy_H
from .polyring import _require_operand, _sum_numerators


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


def box_terms(exps: tuple, signature: tuple) -> list:
    """Laplace-Beltrami -(delta d + d delta) on y^a as ``(exponents, int factor)``
    pairs, the one rule for it: on a constant diagonal +-1 metric it is the wave
    operator box = sum_i eps_i d^2/dy_i^2 on the coefficient, with no sign and no
    change of basis term, so it lowers coefficient degree by exactly 2."""
    out = []
    for i, e in enumerate(exps):
        if e > 1:
            stepped = list(exps)
            stepped[i] = e - 2
            out.append((tuple(stepped), signature[i] * e * (e - 1)))
    return out


# Offsets: image grade minus k on a grade-k form, the paper's block matrices
# reduced to what is falsifiable.  Each image reads the module globals of the
# operators it calls at call time, so a rebinding of them is seen.
_OPERATORS = {
    OperatorTag.DIRAC: (lambda psi: psi.d() - codifferential(psi), (-1, +1)),
    OperatorTag.ANTI_DIRAC: (lambda psi: cohomotopy_h(psi) - homotopy_H(psi), (-1, +1)),
    OperatorTag.LAPLACE_BELTRAMI: (lambda psi: _form(psi.ctx, *_sum_numerators(
        [((idx, out), f * N, 1) for (idx, exps), N in psi._nums.items()
         for out, f in box_terms(exps, psi.ctx.signature)], psi._den)), (0,)),
    OperatorTag.ANTI_LAPLACE: (
        lambda psi: -(homotopy_H(cohomotopy_h(psi)) + cohomotopy_h(homotopy_H(psi))), (0,)),
    OperatorTag.OSCILLATOR_HBAR: (
        lambda psi: cohomotopy_h(codifferential(psi)) - codifferential(cohomotopy_h(psi)), (0,)),
}


def apply_operator(tag: OperatorTag, psi: Form) -> Form:
    if not isinstance(tag, OperatorTag):
        raise ValueError(f"unknown operator tag {tag!r}")
    _require_operand(psi, Form)
    return _OPERATORS[tag][0](psi)


def laplace_beltrami(psi: Form) -> Form:
    return apply_operator(OperatorTag.LAPLACE_BELTRAMI, psi)


def grade_block_check(tag: OperatorTag, omega: Form) -> bool:
    """True iff the operator image stays in the operator's grade block."""
    image = apply_operator(tag, omega)
    k = omega.homogeneous_grade()
    return k is None or all(g - k in _OPERATORS[tag][1] for g in image.grades())


class OscillatorReport(NamedTuple):
    """Spectral check for the cohomotopic oscillator H-bar = h delta - delta h."""

    coexact_part: Form
    anticoexact_part: Form
    coexact_verified: bool       # H-bar acts as -1 on the coexact part
    anticoexact_verified: bool   # H-bar acts as +1 on the anticoexact part
    eigenvalue: int | None       # +-1 when the input is an eigenvector, else None

    @property
    def is_eigenvector(self) -> bool:
        return self.eigenvalue is not None


def oscillator_eigencheck(omega: Form) -> OscillatorReport:
    """Classify a homogeneous middle-grade form against H-bar's +-1 spectrum."""
    _require_operand(omega, Form)
    k = omega.homogeneous_grade()
    n = omega.ctx.n
    if k is None or not 0 < k < n:
        raise GradeOutOfRange("oscillator spectrum is clean only for 0 < grade < n")
    coexact, anticoexact, _ = decompose(omega, DecompositionMode.COEXACT_ANTICOEXACT)
    hbar_c = apply_operator(OperatorTag.OSCILLATOR_HBAR, coexact)
    hbar_ac = apply_operator(OperatorTag.OSCILLATOR_HBAR, anticoexact)
    eigenvalue = None
    if coexact.is_zero and not anticoexact.is_zero:
        eigenvalue = +1
    elif anticoexact.is_zero and not coexact.is_zero:
        eigenvalue = -1
    return OscillatorReport(
        coexact_part=coexact,
        anticoexact_part=anticoexact,
        coexact_verified=(hbar_c + coexact).is_zero,
        anticoexact_verified=(hbar_ac - anticoexact).is_zero,
        eigenvalue=eigenvalue,
    )

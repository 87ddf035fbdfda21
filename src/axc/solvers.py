"""Field-equation pipelines built on the homotopy decompositions.

Each pipeline composes H and h with two dual steps, the only callers of
:func:`laplace_solve`: ``_close(s, k)`` returns (beta, s + delta beta), closed,
where laplace beta = d s and d beta = 0, and ``_coclose(s, k)`` returns its
dual (alpha, s + d alpha), coclosed.  Maxwell and Kalb-Ramond close h j and
take A = H F; magnetic Maxwell cocloses H j and takes A = h F.  Dirac approach
1 closes B, applies H and cocloses (gauge form dv); approach 2 cocloses -B,
applies h and closes (gauge form delta w).

Every solver returns a :class:`SolveReport` whose residuals are recomputed
from scratch through the operator kernel, so a report marked successful is
certified by exact arithmetic, not by trust in the solver's algebra.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .clifford import OperatorTag, apply_operator, box_terms, laplace_beltrami
from .errors import (
    GradeMismatch,
    GradeOutOfRange,
    InconsistentSystem,
    NotASolution,
    NotConserved,
)
from .forms import Form, d_terms
from .hodge import codifferential, codifferential_terms
from .homotopy import SpaceTag, cohomotopy_h, homotopy_H, membership
from .linsolve import solve_sparse


@dataclass
class SolveReport:
    outputs: dict[str, Form]
    residuals: dict[str, Form]
    gauge_notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> list[str]:
        return [name for name, form in self.residuals.items() if not form.is_zero]

    @property
    def success(self) -> bool:
        return not self.failed


def _monomials_of_degree(n: int, degree: int):
    """Exponent tuples of the monomials of total degree ``degree`` in n variables."""
    for axes in itertools.combinations_with_replacement(range(n), degree):
        yield tuple(axes.count(i) for i in range(n))


def laplace_solve(rhs: Form, k: int, side: tuple[str, ...] = ()) -> Form:
    """Particular polynomial solution of ``laplace(beta) = rhs`` at grade k.

    ``side`` may request the exact side conditions ``"d"`` (d beta = 0) and/or
    ``"delta"`` (delta beta = 0).  The joint system is block-diagonal by
    coefficient degree: laplace lowers it by exactly 2, d and delta by exactly
    1, and every row key carries its exponents, so an unknown of degree m
    meets only laplace rows of degree m - 2 and d/delta rows of degree m - 1.
    A block whose laplace rows carry no right-hand side solves to zero, so
    only the degrees deg(t) + 2 of the terms t of rhs are assembled and
    eliminated exactly, free variables pinned to zero in lexicographic order.
    No degree bound is needed: any further block adds only zeros.

    Each unknown y^a dx^I writes its column straight from the term maps the
    operators run on: :func:`axc.clifford.box_terms` (laplace rows),
    :func:`axc.forms.d_terms` (d rows) and
    :func:`axc.hodge.codifferential_terms` (delta rows).  With no solution,
    :class:`InconsistentSystem` names the first equation
    ``(operator, grade, index tuple, exponents)`` that reduces to 0 = c != 0.
    ``tests/test_solvers.py`` checks the rows against the literal composites
    and the solution against the composite assembly up to deg(rhs) + 4.
    """
    ctx = rhs.ctx
    grade = rhs.homogeneous_grade()
    if k < 0 or k > ctx.n:
        if rhs.is_zero:
            return Form.zero(ctx)
        raise GradeOutOfRange(f"grade {k} outside 0..{ctx.n} with nonzero right-hand side")
    if grade not in (None, k):
        raise GradeMismatch(f"right-hand side grade {grade} != requested grade {k}")
    unknown = [s for s in side if s not in ("d", "delta")]
    if unknown:
        raise ValueError(f"unknown side conditions {unknown}")

    rhs_values = {("lap", len(idx), idx, exps): coef for idx, exps, coef in rhs.terms()}
    rows = _assemble(ctx, k, side, sorted({sum(exps) + 2 for _, exps, _ in rhs.terms()}))

    all_keys = sorted(set(rows) | set(rhs_values))
    matrix = [rows.get(key, {}) for key in all_keys]
    vector = [rhs_values.get(key, Fraction(0)) for key in all_keys]
    try:
        solution = solve_sparse(matrix, vector)
    except InconsistentSystem as exc:
        row, value = exc.equation
        raise InconsistentSystem(
            f"no polynomial solution: equation {all_keys[row]} reduces to 0 = {value}",
            equation=(all_keys[row], value),
        ) from None

    return Form.from_terms(ctx, ((idx, exps, coef) for (idx, exps), coef in solution.items()))


def _assemble(ctx, k: int, side: tuple[str, ...], degrees) -> dict[tuple, dict[tuple, Fraction]]:
    """Rows of the joint system for the grade-k unknowns of the coefficient
    degrees in ``degrees``, one disjoint block per degree (see
    :func:`laplace_solve`), keyed ``(operator, grade, index tuple, exponents)``;
    each row maps an unknown ``(index tuple, exponents)`` to its coefficient."""
    signature = ctx.signature
    rows: dict[tuple, dict[tuple, Fraction]] = {}
    for idx in itertools.combinations(range(1, ctx.n + 1), k):
        for degree in degrees:
            for exps in _monomials_of_degree(ctx.n, degree):
                var = (idx, exps)
                for _, out_exps, c in box_terms(idx, exps, signature):
                    rows.setdefault(("lap", k, idx, out_exps), {})[var] = Fraction(c)
                if "d" in side:
                    for out_idx, out_exps, c in d_terms(idx, exps):
                        rows.setdefault(("d", k + 1, out_idx, out_exps), {})[var] = Fraction(c)
                if "delta" in side:
                    for out_idx, out_exps, c in codifferential_terms(idx, exps, signature):
                        rows.setdefault(("delta", k - 1, out_idx, out_exps), {})[var] = Fraction(c)
    return rows


def _close(s: Form, k: int) -> tuple[Form, Form]:
    """Closes the k-form s: d(s + delta beta) = d s - laplace beta = 0."""
    beta = laplace_solve(s.d(), k + 1, side=("d",))
    return beta, s + codifferential(beta)


def _coclose(s: Form, k: int) -> tuple[Form, Form]:
    """Cocloses the k-form s: delta(s + d alpha) = delta s - laplace alpha = 0."""
    alpha = laplace_solve(codifferential(s), k - 1, side=("delta",))
    return alpha, s + alpha.d()


# -- Maxwell and Kalb-Ramond -----------------------------------------------

def _electric(j: Form, k: int, names: str, notes: list[str]) -> SolveReport:
    """dF = 0, delta F = j for a conserved k-form current j: F closes h j and
    A = H F.  ``names`` spells the symbols for F, A, the wave potential and j."""
    F_, A_, beta_, j_ = names.split()
    if j.homogeneous_grade() not in (None, k):
        raise GradeMismatch(f"current must be a {k}-form")
    if not codifferential(j).is_zero:
        raise NotConserved(f"delta {j_} != 0")
    beta, F = _close(cohomotopy_h(j), k + 1)
    A = homotopy_H(F)
    return SolveReport(
        outputs={F_: F, A_: A, beta_: beta},
        residuals={f"d{F_}": F.d(), f"delta{F_}_minus_{j_}": codifferential(F) - j,
                   f"d{A_}_minus_{F_}": A.d() - F},
        gauge_notes=notes,
    )


def maxwell_solve(j: Form) -> SolveReport:
    """Electric Maxwell system dF = 0, delta F = j for a conserved current."""
    return _electric(j, 1, "F A alpha j", [
        "f = 0 chosen in A = df + H(delta alpha + h j)",
        "free coefficients of alpha set to zero (lexicographic)",
    ])


def kalb_ramond_solve(J: Form) -> SolveReport:
    """Kalb-Ramond system dK = 0, delta K = J for a conserved 2-form current."""
    return _electric(J, 2, "K B beta J", [
        "B = H K (the antiexact potential); free coefficients of beta zero",
    ])


def maxwell_solve_magnetic(j: Form) -> SolveReport:
    """Magnetic-monopole variant: dF = j, delta F = 0 for a closed 3-form j."""
    if j.ctx.n < 3:
        raise GradeMismatch("magnetic current is a 3-form; need dimension >= 3")
    if j.homogeneous_grade() not in (None, 3):
        raise GradeMismatch("magnetic current must be a 3-form")
    if not j.d().is_zero:
        raise NotConserved("d j != 0")
    alpha, F = _coclose(homotopy_H(j), 2)
    A = cohomotopy_h(F)
    return SolveReport(
        outputs={"F": F, "A": A, "alpha": alpha},
        residuals={
            "deltaF": codifferential(F),
            "dF_minus_j": F.d() - j,
            "deltaA_minus_F": codifferential(A) - F,
        },
        gauge_notes=[
            "beta = 0 chosen in A = delta beta + h(d alpha + H j)",
            "free coefficients of alpha set to zero (lexicographic)",
        ],
    )


def kr_maxwell_couple(B: Form, F: Form, j: Form, J: Form) -> SolveReport:
    """Verify the coupled Kalb-Ramond/Maxwell configuration R = B + F.

    Checks DR = K - j and DK = -J for K = dR, that delta B = 0, and that B
    is antiexact and coexact.  Raises NotASolution naming every failure.
    """
    B.ctx.require_same(F.ctx)
    R = B + F
    K = R.d()
    residuals = {
        "DR_minus_(K-j)": apply_operator(OperatorTag.DIRAC, R) - (K - j),
        "DK_plus_J": apply_operator(OperatorTag.DIRAC, K) + J,
        "deltaB": codifferential(B),
    }
    failed = [name for name, form in residuals.items() if not form.is_zero]
    if not B.is_zero:
        if not membership(B, SpaceTag.ANTIEXACT):
            failed.append("B_antiexact")
        if not membership(B, SpaceTag.COEXACT):
            failed.append("B_coexact")
    if failed:
        raise NotASolution(failed)
    return SolveReport(outputs={"R": R, "K": K}, residuals=residuals)


# -- Dirac family ----------------------------------------------------------

def dirac_source_solve(B: Form, approach: int = 1) -> SolveReport:
    """Massless Dirac equation with source: D(alpha + beta) = B.

    Approach 1 closes B, integrates alpha = H(B + delta beta) and cocloses it
    with the gauge form dv; approach 2, the dual, cocloses -B, integrates
    beta = h(d alpha - B) and closes it with delta w.  Either gauge form is
    zero whenever the integrated component already meets its constraint.
    """
    k = B.homogeneous_grade()
    if approach not in (1, 2):
        raise ValueError("approach must be 1 or 2")
    if k is None:
        alpha = beta = Form.zero(B.ctx)
        notes = ["zero source: canonical zero solution"]
    elif not 0 < k < B.ctx.n:
        raise GradeOutOfRange("source must be homogeneous of grade strictly between 0 and n")
    elif approach == 1:
        beta, closed = _close(B, k)
        v, alpha = _coclose(homotopy_H(closed), k - 1)
        notes = ["v = 0 in alpha = H(delta beta + B) + dv" if v.is_zero else
                 "v solved from {laplace v = delta H(delta beta + B), delta v = 0}"]
    else:
        alpha, coclosed = _coclose(-B, k)
        w, beta = _close(cohomotopy_h(coclosed), k + 1)
        notes = ["w = 0 in beta = h(d alpha - B) + delta w" if w.is_zero else
                 "w solved from {laplace w = d h(d alpha - B), d w = 0}"]
    return SolveReport(
        outputs={"alpha": alpha, "beta": beta, "psi": alpha + beta},
        residuals={
            "delta_alpha": codifferential(alpha),
            "d_beta": beta.d(),
            "d_alpha_minus_delta_beta_minus_B": alpha.d() - codifferential(beta) - B,
        },
        gauge_notes=notes,
    )


class VacuumDiracKind(enum.Enum):
    GAUGE_CASE = "gauge"
    NON_GAUGE_CASE = "non-gauge"
    NOT_A_SOLUTION = "not-a-solution"


@dataclass
class VacuumDiracClass:
    kind: VacuumDiracKind
    residuals: dict[str, Form]
    harmonic_checks: dict[str, bool]


def vacuum_dirac_classify(alpha: Form, beta: Form, k: int | None = None) -> VacuumDiracClass:
    """Classify a two-grade candidate psi = alpha + beta for D psi = 0.

    alpha has grade k-1 and beta grade k+1 for some 0 < k < n; either kind of
    solution is certified by recomputing the defining equations.
    """
    alpha.ctx.require_same(beta.ctx)
    ctx = alpha.ctx
    ga = alpha.homogeneous_grade()
    gb = beta.homogeneous_grade()
    if k is None:
        if ga is not None:
            k = ga + 1
        elif gb is not None:
            k = gb - 1
        else:
            k = 1
    if ga not in (None, k - 1) or gb not in (None, k + 1):
        raise GradeMismatch(f"expected grades {k - 1} and {k + 1}, got {ga} and {gb}")
    if not 0 < k < ctx.n:
        raise GradeMismatch(f"middle grade {k} must satisfy 0 < k < {ctx.n}")

    d_alpha = alpha.d()
    delta_beta = codifferential(beta)
    residuals = {
        "delta_alpha": codifferential(alpha),
        "d_alpha_minus_delta_beta": d_alpha - delta_beta,
        "d_beta": beta.d(),
    }
    if any(not r.is_zero for r in residuals.values()):
        return VacuumDiracClass(VacuumDiracKind.NOT_A_SOLUTION, residuals, {})
    if d_alpha.is_zero and delta_beta.is_zero:
        checks = {
            "alpha_harmonic": membership(alpha, SpaceTag.HODGE_HARMONIC),
            "beta_harmonic": membership(beta, SpaceTag.HODGE_HARMONIC),
        }
        return VacuumDiracClass(VacuumDiracKind.GAUGE_CASE, residuals, checks)
    checks = {
        "d_alpha_harmonic": membership(d_alpha, SpaceTag.HODGE_HARMONIC),
        "delta_beta_harmonic": membership(delta_beta, SpaceTag.HODGE_HARMONIC),
    }
    return VacuumDiracClass(VacuumDiracKind.NON_GAUGE_CASE, residuals, checks)


def massive_dirac_check(alpha: Form, beta: Form, v: Form, w: Form) -> SolveReport:
    """Residual verifier for the two-grade massive Dirac system.

    Over polynomial coefficients the eigen-equations force the zero solution,
    so this operation verifies rather than solves: it reports the four system
    equations, the two integral-form equations for the given v and w, and the
    two eigen-equations.
    """
    alpha.ctx.require_same(beta.ctx)
    ga = alpha.homogeneous_grade()
    gb = beta.homogeneous_grade()
    if ga is not None and gb is not None and gb != ga + 1:
        raise GradeMismatch(f"beta grade {gb} must be alpha grade {ga} + 1")
    if ga is not None and ga < 1:
        raise GradeMismatch("alpha grade must be at least 1")
    return SolveReport(
        outputs={"alpha": alpha, "beta": beta},
        residuals={
            "delta_alpha": codifferential(alpha),
            "delta_beta_minus_alpha": codifferential(beta) - alpha,
            "d_alpha_plus_beta": alpha.d() + beta,
            "d_beta": beta.d(),
            "alpha_plus_H_beta_minus_dv": alpha + homotopy_H(beta) - v.d(),
            "beta_minus_h_alpha_minus_delta_w": beta - cohomotopy_h(alpha) - codifferential(w),
            "laplace_alpha_minus_alpha": laplace_beltrami(alpha) - alpha,
            "laplace_beta_minus_beta": laplace_beltrami(beta) - beta,
        },
    )

"""Field-equation pipelines built on the homotopy decompositions.

Each pipeline composes H and h with one closing step, ``_close(s, exact)``,
a formula in H, h and the right inverse G of laplace, whose series
:func:`_inverse_box` sums by Horner's rule on integer numerators: on the
exact half it returns (beta, s + delta beta), closed, with beta = d G(H d s),
on the coexact half (alpha, s + d alpha), coclosed, with alpha =
delta G(h delta s).  d G and delta G run as one loop over the whole form,
:func:`_op_g`, over op's rows in :func:`axc.forms._op_rows`, reading d/dy_i
G(y^a) from a gradient cached per monomial (:func:`_inverse_box_grad`),
building no G(u) and calling no :func:`laplace_solve`, which sums G of each
term of a whole form by :func:`axc.polyring._sum_numerators`.  Maxwell
and Kalb-Ramond close h j and take A = H F; magnetic Maxwell, the same body
on the coexact half, cocloses H j and takes A = h F.  Dirac approach 1
closes B, applies H and cocloses (gauge form dv); approach 2 cocloses -B,
applies h and closes (gauge form delta w).

Every solver returns a :class:`SolveReport` whose residuals are recomputed
from scratch through the operator kernel, so a report marked successful is
certified by exact arithmetic, not by trust in the solver's algebra.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Sequence

from .clifford import OperatorTag, apply_operator, box_terms, laplace_beltrami
from .errors import (
    GradeMismatch,
    GradeOutOfRange,
    NotASolution,
    NotConserved,
)
from .forms import Form, _form, _op_rows, _require_grade
from .hodge import codifferential
from .homotopy import _side, cohomotopy_h, homotopy_H
from .polyring import _merged, _require_operand, _require_same, _sum_numerators


class SolveReport(NamedTuple):
    outputs: dict[str, Form]
    residuals: dict[str, Form]
    gauge_notes: Sequence[str] = ()

    @property
    def failed(self) -> list[str]:
        return [name for name, form in self.residuals.items() if not form.is_zero]

    @property
    def success(self) -> bool:
        return not self.failed


def _inverse_box(exps: tuple, signature: tuple) -> tuple[int, dict]:
    """G(y^a) as ``(D, {exponents: int})``.  With Q = sum_i eps_i y_i^2,
    m = |a|, a_j = 2(j+1)(n + 2m - 2j) > 0 and b_j = box^j y^a, box(Q^(j+1) f) = a_j Q^j f
    + Q^(j+1) box f for f of degree m - 2j, so G = sum_j (-1)^j Q^(j+1) b_j / (a_0 ... a_j)
    has box G = y^a.  Horner's rule sums it as (Q/a_0)(b_0 - (Q/a_1)(b_1 - ... - (Q/a_J) b_J)),
    J = m // 2, one :func:`_sum_numerators` per step: Q b_j over 1 (box has integer factors)
    and -Q acc over a_j, Q times a map its n shifted copies."""
    n, m = len(exps), sum(exps)
    b = [{exps: 1}]
    for _ in range(m // 2):
        b.append(_sum_numerators([(out, v * f, 1) for e, v in b[-1].items()
                                  for out, f in box_terms(e, signature)])[1])
    D, acc = 1, {}
    for j in range(m // 2, -1, -1):
        D, acc = _sum_numerators([(e[:i] + (e[i] + 2,) + e[i + 1:], sign * eps * v, den)
                                  for nums, sign, den in ((b[j], 1, 1), (acc, -1, D))
                                  for e, v in nums.items() for i, eps in enumerate(signature)],
                                 2 * (j + 1) * (n + 2 * m - 2 * j))
    return D, acc


@functools.lru_cache(maxsize=4096)
def _inverse_box_grad(exps: tuple, signature: tuple) -> tuple:
    """``(D, columns)``: column i holds d/dy_i G(y^a) as ``(exponents, numerator)``
    pairs over G's denominator D, read off :func:`_inverse_box`.  d/dy_i
    sends distinct monomials to distinct monomials, so nothing is summed.  The one
    cache of G: a solve reads only this gradient."""
    D, G = _inverse_box(exps, signature)
    return D, tuple(
        tuple((e[:i] + (e[i] - 1,) + e[i + 1:], v * e[i]) for e, v in G.items() if e[i])
        for i in range(len(exps)))


def _op_g(u: Form, op: str) -> Form:
    """op G on the whole form u, op "d" or "delta", in one loop: each term
    y^a dx^I with numerator N and each of op's rows ``(i, I', sign)`` in
    :func:`axc.forms._op_rows` add sign * N * d/dy_i G(y^a) dx^I', its column
    read off the cached gradient, in the group of G's denominator."""
    signature, groups = u.ctx.signature, {}
    for (idx, exps), N in u._nums.items():
        rows = _op_rows(op, idx, signature)
        if not rows:
            continue
        D, grad = _inverse_box_grad(exps, signature)
        group = groups.get(D)
        if group is None:
            group = groups[D] = {}
        for i, out_idx, sign in rows:
            sN = sign * N
            for e, v in grad[i]:
                key = (out_idx, e)
                group[key] = group.get(key, 0) + sN * v
    return _form(u.ctx, *_merged(groups, u._den))


def laplace_solve(rhs: Form, k: int) -> Form:
    """The right inverse G of laplace on a k-form right-hand side: laplace acts
    on the coefficients alone, so G applies :func:`_inverse_box` term by term
    and ``laplace(laplace_solve(g, k)) = g``.  The gauge is G's.  G is summed
    once per distinct monomial of g, into a map that lives for the call.

    A closed or coclosed solution is a formula on top of G, as in
    :func:`_close`: for g closed off grade 0,
    ``laplace_solve(homotopy_H(g), k - 1).d()`` is closed and solves
    laplace(beta) = g, since laplace commutes with d and d H g = g.
    """
    _require_operand(rhs, Form)
    ctx = rhs.ctx
    _require_grade(k, ctx.n)
    grade = rhs.homogeneous_grade()
    if grade not in (None, k):
        raise GradeMismatch(f"right-hand side grade {grade} != requested grade {k}")
    G = {exps: _inverse_box(exps, ctx.signature) for exps in {exps for _, exps in rhs._nums}}
    return _form(ctx, *_sum_numerators([((idx, e), N * v, D) for (idx, exps), N in rhs._nums.items()
                                        for D, g in (G[exps],) for e, v in g.items()], rhs._den))


def _close(s: Form, exact: bool) -> tuple[Form, Form]:
    """Closes (``exact``) or cocloses the form s.  With op, inv the
    differential and homotopy of that half and dual the other differential,
    gauge = op G(inv op s) has op gauge = 0 and laplace gauge = op inv op s =
    op s, so op(s + dual gauge) = op s - laplace gauge = 0.  op G runs as one
    loop on the cached gradient of G, so no G(inv op s) form is built;
    every caller recomputes its residuals through op and dual themselves."""
    op, inv, _, name = _side(exact)
    gauge = _op_g(inv(op(s)), name)
    return gauge, s + _side(not exact)[0](gauge)


# -- Maxwell and Kalb-Ramond -----------------------------------------------

def _field(j: Form, k: int, exact: bool, names: str, notes: list[str]) -> SolveReport:
    """op F = 0, dual F = j for a k-form current j with dual j = 0, on the
    exact half (electric, A = H F) or the coexact half (magnetic, A = h F):
    F closes or cocloses the dual homotopy of j.  ``names`` spells the
    symbols for F, A, the gauge form and j."""
    _require_operand(j, Form)
    F_, A_, gauge_, j_ = names.split()
    op, inv, _, o = _side(exact)
    dual, dual_inv, _, du = _side(not exact)
    if j.homogeneous_grade() not in (None, k):
        raise GradeMismatch(f"{'' if exact else 'magnetic '}current must be a {k}-form")
    if not dual(j).is_zero:
        raise NotConserved(f"{du} {j_} != 0")
    gauge, F = _close(dual_inv(j), exact)
    A = inv(F)
    return SolveReport(
        outputs={F_: F, A_: A, gauge_: gauge},
        residuals={f"{o}{F_}": op(F), f"{du}{F_}_minus_{j_}": dual(F) - j,
                   f"{o}{A_}_minus_{F_}": op(A) - F},
        gauge_notes=notes,
    )


def maxwell_solve(j: Form) -> SolveReport:
    """Electric Maxwell system dF = 0, delta F = j for a conserved current."""
    return _field(j, 1, True, "F A alpha j", [
        "f = 0 chosen in A = df + H(delta alpha + h j)",
        "alpha = d G(H d h j), G the closed-form right inverse of laplace",
    ])


def kalb_ramond_solve(J: Form) -> SolveReport:
    """Kalb-Ramond system dK = 0, delta K = J for a conserved 2-form current."""
    return _field(J, 2, True, "K B beta J", [
        "B = H K (the antiexact potential); beta = d G(H d h J)",
    ])


def maxwell_solve_magnetic(j: Form) -> SolveReport:
    """Magnetic-monopole variant: dF = j, delta F = 0 for a closed 3-form j."""
    _require_operand(j, Form)
    if j.ctx.n < 3:
        raise GradeMismatch("magnetic current is a 3-form; need dimension >= 3")
    return _field(j, 3, False, "F A alpha j", [
        "beta = 0 chosen in A = delta beta + h(d alpha + H j)",
        "alpha = delta G(h delta H j), G the closed-form right inverse of laplace",
    ])


def kr_maxwell_couple(B: Form, F: Form, j: Form, J: Form) -> SolveReport:
    """Verify the coupled Kalb-Ramond/Maxwell configuration R = B + F, K = dR.

    Five residuals: ``DR_minus_(K-j)``, ``DK_plus_J``, ``deltaB`` (B coexact), and ``HB``
    and ``B_at_center`` (B antiexact).  Raises NotASolution naming every nonzero one.
    """
    R = B + F
    K = R.d()
    report = SolveReport(outputs={"R": R, "K": K}, residuals={
        "DR_minus_(K-j)": apply_operator(OperatorTag.DIRAC, R) - (K - j),
        "DK_plus_J": apply_operator(OperatorTag.DIRAC, K) + J,
        "deltaB": codifferential(B),
        "HB": homotopy_H(B),
        "B_at_center": B.at_center(),
    })
    if report.failed:
        raise NotASolution(report.failed)
    return report


# -- Dirac family ----------------------------------------------------------

def dirac_source_solve(B: Form, approach: int = 1) -> SolveReport:
    """Massless Dirac equation with source: D(alpha + beta) = B.

    Approach 1 closes B, integrates alpha = H(B + delta beta) and cocloses it
    with the gauge form dv; approach 2, the dual, cocloses -B, integrates
    beta = h(d alpha - B) and closes it with delta w.  Either gauge form is
    zero whenever the integrated component already meets its constraint.
    """
    _require_operand(B, Form)
    k = B.homogeneous_grade()
    if type(approach) is not int or approach not in (1, 2):
        raise ValueError("approach must be 1 or 2")
    if k is None:
        alpha = beta = Form.zero(B.ctx)
        notes = ["zero source: canonical zero solution"]
    elif not 0 < k < B.ctx.n:
        raise GradeOutOfRange("source must be homogeneous of grade strictly between 0 and n")
    elif approach == 1:
        beta, closed = _close(B, True)
        v, alpha = _close(homotopy_H(closed), False)
        notes = ["v = 0 in alpha = H(delta beta + B) + dv" if v.is_zero else
                 "v solved from {laplace v = delta H(delta beta + B), delta v = 0}"]
    else:
        alpha, coclosed = _close(-B, False)
        w, beta = _close(cohomotopy_h(coclosed), True)
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


class VacuumDiracClass(NamedTuple):
    """The candidate's kind and the residuals delta alpha, d alpha - delta beta
    and d beta that decide it: NOT_A_SOLUTION iff one is nonzero."""

    kind: VacuumDiracKind
    residuals: dict[str, Form]


def vacuum_dirac_classify(alpha: Form, beta: Form, k: int | None = None) -> VacuumDiracClass:
    """Classify a two-grade candidate psi = alpha + beta for D psi = 0.

    alpha has grade k-1 and beta grade k+1 for some 0 < k < n.  A solution is
    the gauge case when d alpha = delta beta = 0 (alpha and beta are then Hodge
    harmonic), else the non-gauge case (d alpha = delta beta is Hodge harmonic
    by d^2 = delta^2 = 0).  No verdict restates those harmonic facts: the
    identity suite certifies d^2 = delta^2 = 0, and acceptance criterion 6
    recomputes them on each case.
    """
    _require_operand(alpha, Form)
    _require_operand(beta, Form)
    _require_same(alpha.ctx, beta.ctx)
    ctx = alpha.ctx
    ga = alpha.homogeneous_grade()
    gb = beta.homogeneous_grade()
    if k is not None:
        _require_grade(k, ctx.n)
    elif ga is not None:
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
    residuals = {
        "delta_alpha": codifferential(alpha),
        "d_alpha_minus_delta_beta": d_alpha - codifferential(beta),
        "d_beta": beta.d(),
    }
    if any(not r.is_zero for r in residuals.values()):
        return VacuumDiracClass(VacuumDiracKind.NOT_A_SOLUTION, residuals)
    # d alpha = delta beta here, so one of them decides the branch
    kind = VacuumDiracKind.GAUGE_CASE if d_alpha.is_zero else VacuumDiracKind.NON_GAUGE_CASE
    return VacuumDiracClass(kind, residuals)


def massive_dirac_check(alpha: Form, beta: Form, v: Form, w: Form) -> SolveReport:
    """Residual verifier for the two-grade massive Dirac system.

    Over polynomial coefficients the eigen-equations force the zero solution,
    so this operation verifies rather than solves: it reports the four system
    equations, the two integral-form equations for the given v and w, and the
    two eigen-equations.  These vanish whenever the four system residuals do
    (box alpha = -(delta d + d delta) alpha = delta beta = alpha, box beta =
    -d alpha = beta), and stay: on a failing input they name the eigen-equation
    that breaks, and acceptance criterion 6 reads ``laplace_alpha_minus_alpha``.
    """
    for x in (alpha, beta, v, w):
        _require_operand(x, Form)
    _require_same(alpha.ctx, beta.ctx)
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

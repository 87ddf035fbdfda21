"""Reference implementations that the closed-form operators are checked against.

Each one is the literal definition (or the earlier loop) that the kernel
used to run; the kernel now evaluates the same maps term by term in closed
form, and the tests require exact equality.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from axc import Form, Poly, hodge_star, hodge_star_inv, interior, k_field, laplace_beltrami
from axc.forms import _merge_indices
from axc.linsolve import solve_sparse


def composite_codifferential(omega: Form) -> Form:
    """delta = star_inv o d o star o eta, operator by operator."""
    return hodge_star_inv(hodge_star(omega.eta()).d())


def loop_d(omega: Form) -> Form:
    """Exterior derivative by partial derivatives of whole coefficients."""
    ctx = omega.ctx
    out = Form.zero(ctx)
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            for i in range(1, ctx.n + 1):
                merged = _merge_indices((i,), idx)
                if merged is not None:
                    new_idx, sign = merged
                    out = out + Form.basis(ctx, new_idx, poly.partial(i).scale(sign))
    return out


def contraction_homotopy_H(omega: Form) -> Form:
    """H as i_K(dx^I) times each monomial weighted by 1 / (degree + grade)."""
    ctx = omega.ctx
    out = Form.zero(ctx)
    for k, idx_map in omega.components.items():
        if k == 0:
            continue
        for idx, poly in idx_map.items():
            contracted = interior(k_field(ctx), Form.basis(ctx, idx))
            for exps, coef in poly.terms.items():
                weight = Fraction(coef, sum(exps) + k)
                out = out + contracted.mul_poly(Poly.monomial(ctx.n, exps, weight))
    return out


def composite_rows(ctx, k: int, side: tuple, bound: int) -> dict:
    """The Laplace system's rows from operator images of each basis monomial:
    composite Laplace-Beltrami, ``Form.d`` and the composite delta."""
    rows: dict[tuple, dict[tuple, Fraction]] = {}

    def record(op_name, image, var):
        for g, idx_map in image.components.items():
            for idx, poly in idx_map.items():
                for exps, coef in poly.terms.items():
                    rows.setdefault((op_name, g, idx, exps), {})[var] = coef

    for idx in itertools.combinations(range(1, ctx.n + 1), k):
        for exps in itertools.product(range(bound + 1), repeat=ctx.n):
            if sum(exps) > bound:
                continue
            var = (idx, exps)
            e = Form.basis(ctx, idx, Poly.monomial(ctx.n, exps))
            record("lap", laplace_beltrami(e), var)
            if "d" in side:
                record("d", e.d(), var)
            if "delta" in side:
                record("delta", composite_codifferential(e), var)
    return rows


def composite_laplace_solve(rhs: Form, k: int, side: tuple, bound: int) -> Form:
    """Solve the system of :func:`composite_rows` the way ``laplace_solve`` does."""
    ctx = rhs.ctx
    rows = composite_rows(ctx, k, side, bound)
    rhs_values = {("lap", g, idx, exps): coef
                  for g, idx_map in rhs.components.items()
                  for idx, poly in idx_map.items()
                  for exps, coef in poly.terms.items()}
    keys = sorted(set(rows) | set(rhs_values))
    solution = solve_sparse([rows.get(key, {}) for key in keys],
                            [rhs_values.get(key, Fraction(0)) for key in keys])
    out = Form.zero(ctx)
    for (idx, exps), coef in solution.items():
        out = out + Form.basis(ctx, idx, Poly.monomial(ctx.n, exps, coef))
    return out

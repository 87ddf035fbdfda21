"""Reference implementations that the closed-form operators are checked against.

Each one is the literal definition (or the earlier loop) that the kernel
used to run; the kernel now evaluates the same maps term by term in closed
form, and the tests require exact equality.  No reference calls the operator
it checks: the stars, the interior product, the wedge and the sum below add
up whole coefficients with ``Poly`` arithmetic, and the composites are built
from them.  The ``Poly`` references themselves (sum, product, partial
derivative and shift) work on plain ``dict[exponent tuple, Fraction]`` maps,
so they call no ``Poly`` arithmetic at all.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from axc import Form, Poly, codifferential, k_field
from axc.forms import _merge_indices, _op_rows, _weight
from axc.hodge import _star_row
from axc.linsolve import solve_sparse
from axc.solvers import _inverse_box, _inverse_box_grad


def _form(ctx, acc: dict) -> Form:
    return Form(ctx, acc)


def _accumulate(acc: dict, k: int, idx: tuple, poly: Poly):
    tgt = acc.setdefault(k, {})
    s = tgt.get(idx)
    s = poly if s is None else s + poly
    if s.is_zero:
        tgt.pop(idx, None)
    else:
        tgt[idx] = s


def fraction_fold(ctx, triples) -> Form:
    """``Form.from_terms`` as a plain fold: each ``(idx, exps, coefficient)``
    added as a ``Fraction`` to the running ``Fraction`` sum of its basis term;
    sums that end at zero are dropped."""
    acc: dict = {}
    for idx, exps, coef in triples:
        row = acc.setdefault(len(idx), {}).setdefault(idx, {})
        row[exps] = row.get(exps, Fraction(0)) + Fraction(coef)
    return _form(ctx, {k: {idx: Poly(ctx.n, {e: c for e, c in row.items() if c})
                           for idx, row in idx_map.items() if any(row.values())}
                       for k, idx_map in acc.items()})


def fraction_termwise(omega: Form, fn) -> Form:
    """The linear extension of a map on basis terms as a plain fold: ``fn(idx,
    exps)`` returns the image of y^exps dx^idx as ``(idx', exps', r, s)``
    4-tuples, and each term's coefficient times each factor r/s of its image
    is one ``Fraction`` product per image term."""
    return fraction_fold(omega.ctx, [
        (out_idx, out_exps, coef * Fraction(r, s))
        for idx_map in omega.components.values()
        for idx, poly in idx_map.items()
        for exps, coef in poly.terms.items()
        for out_idx, out_exps, r, s in fn(idx, exps)])


# The per-term maps that the operators ran through a generic term-map driver
# before each became its own pass over the whole form: d, delta, H, h, d G and
# delta G a loop over the row table, star, star_inv and eta a relabelling, the
# center maps, grade_select and at_center a filter, and the rest a sum.  With
# :func:`fraction_termwise` they are those passes' reference.

def lower_terms(idx: tuple, exps: tuple, op: str, signature: tuple) -> list:
    """d or delta on y^a dx^I: sum of sign * d/dy_i (y^a) dx^I' over op's rows."""
    out = []
    for i, out_idx, sign in _op_rows(op, idx, signature):
        e = exps[i]
        if e:
            stepped = list(exps)
            stepped[i] = e - 1
            out.append((out_idx, tuple(stepped), sign * e, 1))
    return out


def raise_terms(idx: tuple, exps: tuple, op: str, signature: tuple) -> list:
    """H or h on y^a dx^I: sign * y_i y^a dx^I' over op's rows, divided by the weight."""
    rows = _op_rows(op, idx, signature)
    w = _weight(exps, rows)
    out = []
    for i, out_idx, sign in rows:
        stepped = list(exps)
        stepped[i] += 1
        out.append((out_idx, tuple(stepped), sign, w))
    return out


def op_g_terms(idx: tuple, exps: tuple, op: str, signature: tuple) -> list:
    """op G on y^a dx^I, op "d" or "delta": each of op's rows ``(i, I', sign)``
    takes sign * d/dy_i G(y^a) dx^I', its column read off the cached gradient."""
    D, grad = _inverse_box_grad(exps, signature)
    return [(out_idx, e, sign * v, D) for i, out_idx, sign in _op_rows(op, idx, signature)
            for e, v in grad[i]]


def star_terms(idx: tuple, exps: tuple, signature: tuple, inverse: bool = False) -> list:
    """star (or star_inv) on y^a dx^I: y^a times the row of ``hodge._star_row``."""
    comp, sign = _star_row(idx, signature, inverse)
    return [(comp, exps, sign, 1)]


def eta_terms(idx: tuple, exps: tuple) -> list:
    """eta on y^a dx^I: the sign (-1)^|I|."""
    return [(idx, exps, (-1) ** len(idx), 1)]


def grade_terms(idx: tuple, exps: tuple, k: int) -> list:
    """grade_select(k) on y^a dx^I: kept when |I| = k."""
    return [(idx, exps, 1, 1)] if len(idx) == k else []


def constant_terms(idx: tuple, exps: tuple) -> list:
    """at_center on y^a dx^I: kept when a = 0."""
    return [] if any(exps) else [(idx, exps, 1, 1)]


def center_terms(idx: tuple, exps: tuple, k: int) -> list:
    """s*_{x0} (k = 0) or S_{x0} (k = n) on y^a dx^I: kept when |I| = k and a = 0."""
    return [(idx, exps, 1, 1)] if len(idx) == k and not any(exps) else []


def wedge_terms(idx: tuple, exps: tuple, right, den: int) -> list:
    """y^exps dx^idx ^ the form of the ``((index tuple, exponents), numerator)``
    items ``right`` over den, term by term."""
    out = []
    for (idx2, exps2), v in right:
        merged = _merge_indices(idx, idx2)
        if merged is not None:
            out.append((merged[0], tuple(map(add, exps, exps2)), merged[1] * v, den))
    return out


def interior_terms(idx: tuple, exps: tuple, components: tuple, signature: tuple) -> list:
    """i_v(y^a dx^I) = sum_j (-1)^j v_{i_j} y^a dx^{I minus i_j} over H's rows,
    for the ``Poly`` components of v."""
    out = []
    for i, rest, sign in _op_rows("H", idx, signature):
        p = components[i]
        for v_exps, v in p._nums.items():
            out.append((rest, tuple(map(add, exps, v_exps)), sign * v, p._den))
    return out


def box_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """box = sum_i eps_i d^2/dy_i^2 on the coefficient of y^a dx^I."""
    out = []
    for i, e in enumerate(exps):
        if e > 1:
            stepped = list(exps)
            stepped[i] = e - 2
            out.append((idx, tuple(stepped), signature[i] * e * (e - 1), 1))
    return out


def eval_terms(idx: tuple, exps: tuple, point: list) -> list:
    """eval_at(point) on y^a dx^I: the value of y^a at the point, times dx^I."""
    value = math.prod(x ** e for x, e in zip(point, exps) if e)
    return [(idx, (0,) * len(exps), *value.as_integer_ratio())]


def inverse_box_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """laplace_solve on y^a dx^I: G(y^a) dx^I, G's ``(D, nums)`` read off ``_inverse_box``."""
    D, nums = _inverse_box(exps, signature)
    return [(idx, e, v, D) for e, v in nums.items()]


def wedge_factor_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """-W on y^a dx^I, W the division by h's weight: anticoexact_wedge_factor
    applies it to delta(omega)."""
    return [(idx, exps, -1, _weight(exps, _op_rows("h", idx, signature)))]


def loop_add(omega: Form, phi: Form) -> Form:
    """Form sum by adding whole coefficients, grade by grade."""
    acc = {k: dict(v) for k, v in omega.components.items()}
    for k, idx_map in phi.components.items():
        for idx, poly in idx_map.items():
            _accumulate(acc, k, idx, poly)
    return _form(omega.ctx, acc)


def loop_wedge(omega: Form, phi: Form) -> Form:
    """Wedge product by multiplying whole coefficients of each basis pair."""
    acc: dict = {}
    for p, left in omega.components.items():
        for q, right in phi.components.items():
            for idx1, c1 in left.items():
                for idx2, c2 in right.items():
                    merged = _merge_indices(idx1, idx2)
                    if merged is not None:
                        _accumulate(acc, p + q, merged[0], (c1 * c2).scale(merged[1]))
    return _form(omega.ctx, acc)


def loop_interior(v, omega: Form) -> Form:
    """i_v by contracting each slot of each basis form with a whole component of v."""
    acc: dict = {}
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            for j, axis in enumerate(idx):
                comp = v.components[axis - 1]
                if not comp.is_zero:
                    _accumulate(acc, k - 1, idx[:j] + idx[j + 1:], (poly * comp).scale((-1) ** j))
    return _form(omega.ctx, acc)


def loop_star(omega: Form) -> Form:
    """Hodge star basis form by basis form: eps_I sgn(I, I^c) dx^{I^c}."""
    ctx = omega.ctx
    acc: dict = {}
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            comp = tuple(i for i in range(1, ctx.n + 1) if i not in idx)
            _, sign = _merge_indices(idx, comp)
            for i in idx:
                sign *= ctx.signature[i - 1]
            _accumulate(acc, ctx.n - k, comp, poly.scale(sign))
    return _form(ctx, acc)


def loop_star_inv(omega: Form) -> Form:
    """star_inv as star times sig(g) * (-1)^{k(n-k)}, one grade at a time."""
    ctx = omega.ctx
    out = Form.zero(ctx)
    for k in omega.grades():
        part = loop_star(omega.grade_select(k))
        out = loop_add(out, part.scale(ctx.sig * (-1) ** (k * (ctx.n - k))))
    return out


def loop_d(omega: Form) -> Form:
    """Exterior derivative by partial derivatives of whole coefficients."""
    ctx = omega.ctx
    acc: dict = {}
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            for i in range(1, ctx.n + 1):
                merged = _merge_indices((i,), idx)
                if merged is not None:
                    new_idx, sign = merged
                    _accumulate(acc, k + 1, new_idx, poly.partial(i).scale(sign))
    return _form(ctx, acc)


def composite_codifferential(omega: Form) -> Form:
    """delta = star_inv o d o star o eta, operator by operator."""
    return loop_star_inv(loop_d(loop_star(omega.eta())))


def composite_laplace_beltrami(omega: Form) -> Form:
    """Laplace-Beltrami = -(delta d + d delta), operator by operator."""
    return loop_add(composite_codifferential(loop_d(omega)),
                    loop_d(composite_codifferential(omega))).scale(-1)


def contraction_homotopy_H(omega: Form) -> Form:
    """H as i_K(dx^I) times each monomial weighted by 1 / (degree + grade)."""
    ctx = omega.ctx
    out = Form.zero(ctx)
    for k, idx_map in omega.components.items():
        if k == 0:
            continue
        for idx, poly in idx_map.items():
            contracted = loop_interior(k_field(ctx), Form.basis(ctx, idx))
            for exps, coef in poly.terms.items():
                weight = Fraction(coef, sum(exps) + k)
                out = loop_add(out, contracted.mul_poly(Poly.monomial(ctx.n, exps, weight)))
    return out


def composite_cohomotopy_h(omega: Form) -> Form:
    """h = eta o star_inv o H o star, operator by operator."""
    return loop_star_inv(contraction_homotopy_H(loop_star(omega))).eta()


def loop_anticoexact_wedge_factor(omega: Form) -> Form:
    """-star_inv of star(delta(omega)) with each monomial weighted by
    1 / (degree + grade), the h chain replayed basis form by basis form."""
    ctx = omega.ctx
    beta = loop_star(codifferential(omega))
    out = Form.zero(ctx)
    for k, idx_map in beta.components.items():
        if k == 0:
            continue
        for idx, poly in idx_map.items():
            weighted = Poly.zero(ctx.n)
            for exps, coef in poly.terms.items():
                weighted = weighted + Poly.monomial(ctx.n, exps, Fraction(coef, sum(exps) + k))
            out = loop_add(out, loop_star_inv(Form.basis(ctx, idx, weighted)).scale(-1))
    return out


def series_inverse_box(exps: tuple, signature: tuple) -> set:
    """G(y^a) as the set of ``(exponents, numerator, denominator)`` triples of
    ``solvers._inverse_box``'s ``(D, nums)``, summed term by term as the series
    sum_j (-1)^j Q^(j+1) box^j y^a / (a_0 ... a_j), Q = sum_i eps_i y_i^2,
    a_j = 2(j+1)(n + 2m - 2j), with ``Poly`` powers of Q and box by partial
    derivatives."""
    n, m = len(exps), sum(exps)
    Q = Poly.zero(n)
    for i, eps in enumerate(signature, 1):
        Q = Q + (Poly.variable(n, i) ** 2).scale(eps)
    term, power, G, prod_a = Poly.monomial(n, exps), Q, Poly.zero(n), 1
    for j in range(m // 2 + 1):
        prod_a *= 2 * (j + 1) * (n + 2 * m - 2 * j)
        G = G + (power * term).scale(Fraction((-1) ** j, prod_a))
        power = power * Q
        box = Poly.zero(n)
        for i, eps in enumerate(signature, 1):
            box = box + term.partial(i).partial(i).scale(eps)
        term = box
    D = math.lcm(*(c.denominator for c in G.terms.values()))
    return {(e, int(c * D), D) for e, c in G.terms.items()}


def composite_rows(ctx, k: int, side: tuple, bound: int) -> dict:
    """The Laplace system's rows from operator images of each basis monomial
    of coefficient degree <= bound: the composite Laplace-Beltrami, the
    coefficient-loop d and the composite delta."""
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
            record("lap", composite_laplace_beltrami(e), var)
            if "d" in side:
                record("d", loop_d(e), var)
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


# -- coefficient arithmetic on plain dicts ----------------------------------

def loop_poly_add(p: dict, q: dict) -> dict:
    """Sum of two exponent -> coefficient maps, term by term."""
    out = dict(p)
    for exps, coef in q.items():
        s = out.get(exps, Fraction(0)) + coef
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


def loop_poly_mul(p: dict, q: dict) -> dict:
    """Product of two exponent -> coefficient maps, term pair by term pair."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def loop_poly_partial(p: dict, i: int) -> dict:
    """d/dy_i (1-based axis) of an exponent -> coefficient map."""
    out: dict = {}
    j = i - 1
    for exps, coef in p.items():
        if exps[j]:
            lowered = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + coef * exps[j]
    return {exps: coef for exps, coef in out.items() if coef}


def product_shift(p: dict, delta) -> dict:
    """y_i -> y_i + delta_i by multiplying out (y_i + delta_i) one factor at a time."""
    n = len(delta)
    out: dict = {}
    for exps, coef in p.items():
        term = {(0,) * n: coef}
        for i, e in enumerate(exps):
            base = {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}
            if delta[i]:
                base[(0,) * n] = Fraction(delta[i])
            for _ in range(e):
                term = loop_poly_mul(term, base)
        out = loop_poly_add(out, term)
    return out

"""Reference implementations that the closed-form operators are checked against.

Each one is the literal definition (or the earlier loop) that the kernel
used to run; the kernel now evaluates the same maps term by term in closed
form, and the tests require exact equality.  No reference calls the operator
it checks: the stars, the interior product, the wedge and the sum below add
up whole coefficients with ``Poly`` arithmetic, and the composites are built
from them.  The ``Poly`` references themselves (sum, product, partial
derivative and shift) work on plain ``dict[exponent tuple, Fraction]`` maps,
so they call no ``Poly`` arithmetic at all.  The ``Poly`` kernel's own integer
rules (product, power, partial derivative, Taylor shift, box and G) are kept
on exponent-tuple keys too, the reference for the kernel's packed ``int`` keys.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from axc import Form, Poly, codifferential, k_field
from axc.linsolve import solve_sparse
from axc.polyring import _sum_numerators


def _form(ctx, acc: dict) -> Form:
    return Form(ctx, acc)


def term_numerators(form: Form) -> list:
    """``((index tuple, exponents), numerator)`` per term of a form, each over
    ``form._den``: the one place the tests read terms as numerators, through
    ``Form.terms`` and not the layout of the kernel's keys."""
    return [((idx, exps), int(c * form._den)) for idx, exps, c in form.terms()]


def merge_indices(a: tuple, b: tuple):
    """dx^a ^ dx^b for any index tuples a and b, in any order: (sorted tuple,
    (-1)^(inversions of a + b)), or None when an index repeats."""
    s = a + b
    if len(set(s)) < len(s):
        return None
    return tuple(sorted(s)), (-1) ** sum(x > y for x, y in itertools.combinations(s, 2))


def op_rows(op: str, idx: tuple, signature: tuple) -> list:
    """The ``(i, I', sign)`` rows, axis i 0-based, of d and h (dx^i ^, each i not in
    idx, signed by :func:`merge_indices`) and of H and delta (the contraction of
    slot j of idx, signed (-1)^j), the signs of delta and h times -eps_i."""
    if op in ("d", "h"):
        rows = [(i - 1, *merge_indices((i,), idx)) for i in range(1, len(signature) + 1)
                if i not in idx]
    else:
        rows = [(a - 1, idx[:j] + idx[j + 1:], (-1) ** j) for j, a in enumerate(idx)]
    if op in ("d", "H"):
        return rows
    return [(i, out, -sign * signature[i]) for i, out, sign in rows]


def star_row(idx: tuple, signature: tuple, inverse: bool) -> tuple:
    """``(I^c, sign)`` of star(dx^I) = eps_I * sgn(I, I^c) * dx^{I^c}, the sign
    times sig(g) * (-1)^{k(n-k)} for star_inv."""
    comp = tuple(i for i in range(1, len(signature) + 1) if i not in idx)
    sign = merge_indices(idx, comp)[1]
    for i in idx:
        sign *= signature[i - 1]
    if inverse:
        sign *= math.prod(signature) * (-1) ** (len(idx) * len(comp))
    return comp, sign


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
    for i, out_idx, sign in op_rows(op, idx, signature):
        e = exps[i]
        if e:
            stepped = list(exps)
            stepped[i] = e - 1
            out.append((out_idx, tuple(stepped), sign * e, 1))
    return out


def raise_terms(idx: tuple, exps: tuple, op: str, signature: tuple) -> list:
    """H or h on y^a dx^I: sign * y_i y^a dx^I' over op's rows, divided by the weight."""
    rows = op_rows(op, idx, signature)
    w = sum(exps) + len(rows)
    out = []
    for i, out_idx, sign in rows:
        stepped = list(exps)
        stepped[i] += 1
        out.append((out_idx, tuple(stepped), sign, w))
    return out


def op_g_terms(idx: tuple, exps: tuple, op: str, signature: tuple) -> list:
    """op G on y^a dx^I, op "d" or "delta": each of op's rows ``(i, I', sign)``
    takes sign * d/dy_i G(y^a) dx^I', differentiated off :func:`tuple_inverse_box`'s G."""
    D, G = tuple_inverse_box(exps, signature)
    return [(out_idx, e, sign * v, D) for i, out_idx, sign in op_rows(op, idx, signature)
            for e, v in tuple_partial(G, i).items()]


def star_terms(idx: tuple, exps: tuple, signature: tuple, inverse: bool = False) -> list:
    """star (or star_inv) on y^a dx^I: y^a times the row of :func:`star_row`."""
    comp, sign = star_row(idx, signature, inverse)
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
    pairs ``right`` (:func:`term_numerators`) over den, term by term."""
    out = []
    for (idx2, exps2), v in right:
        merged = merge_indices(idx, idx2)
        if merged is not None:
            out.append((merged[0], tuple(map(add, exps, exps2)), merged[1] * v, den))
    return out


def interior_terms(idx: tuple, exps: tuple, components: tuple, signature: tuple) -> list:
    """i_v(y^a dx^I) = sum_j (-1)^j v_{i_j} y^a dx^{I minus i_j} over H's rows,
    for the ``Poly`` components of v."""
    out = []
    for i, rest, sign in op_rows("H", idx, signature):
        for v_exps, v in components[i].terms.items():
            out.append((rest, tuple(map(add, exps, v_exps)), sign * v.numerator, v.denominator))
    return out


def box_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """box = sum_i eps_i d^2/dy_i^2 on the coefficient of y^a dx^I."""
    return [(idx, e, f, 1) for e, f in tuple_box(exps, signature).items()]


def eval_terms(idx: tuple, exps: tuple, point: list) -> list:
    """eval_at(point) on y^a dx^I: the value of y^a at the point, times dx^I."""
    value = math.prod(x ** e for x, e in zip(point, exps) if e)
    return [(idx, (0,) * len(exps), *value.as_integer_ratio())]


def inverse_box_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """laplace_solve on y^a dx^I: G(y^a) dx^I, G's ``(D, nums)`` of :func:`tuple_inverse_box`."""
    D, nums = tuple_inverse_box(exps, signature)
    return [(idx, e, v, D) for e, v in nums.items()]


def wedge_factor_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """-W on y^a dx^I, W the division by h's weight: anticoexact_wedge_factor
    applies it to delta(omega)."""
    return [(idx, exps, -1, sum(exps) + len(op_rows("h", idx, signature)))]


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
                    merged = merge_indices(idx1, idx2)
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
            _, sign = merge_indices(idx, comp)
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
                merged = merge_indices((i,), idx)
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
                monomial = Form.from_poly(ctx, Poly.monomial(ctx.n, exps, weight))
                out = loop_add(out, contracted.wedge(monomial))
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


# -- the Poly kernel's integer rules on exponent-tuple keys -----------------

def numerators(p: Poly) -> dict:
    """``{exponents: int}`` of a ``Poly`` over ``p._den``, read through ``Poly.terms``."""
    return {e: int(c * p._den) for e, c in p.terms.items()}


def fractions(D: int, nums: dict) -> dict:
    """``{exponents: Fraction}`` of integer numerators over D, as ``Poly.terms`` reads."""
    return {e: Fraction(v, D) for e, v in nums.items() if v}


def tuple_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: v for e, v in out.items() if v}


def tuple_power(p: dict, n: int, e: int) -> dict:
    out = {(0,) * n: 1}
    for bit in bin(e)[2:]:
        out = tuple_mul(out, out)
        if bit == "1":
            out = tuple_mul(out, p)
    return out


def tuple_partial(p: dict, j: int) -> dict:
    """d/dy_j, axis 0-based."""
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: v * e[j] for e, v in p.items() if e[j]}


def tuple_taylor_shift_axis(p: dict, i: int, delta: Fraction) -> tuple[dict, int]:
    """y_i -> y_i + P/Q (axis 0-based), by synthetic division on each line of
    terms that agree off axis i: the numerators over Q^A times p's, and Q^A."""
    P, Q = delta.numerator, delta.denominator
    A, lines, out = max(e[i] for e in p), {}, {}
    for e, v in p.items():
        lines.setdefault(e[:i] + e[i + 1:], {})[e[i]] = v
    for rest, line in lines.items():
        top = max(line)
        c = [line.get(a, 0) * Q ** (A - a) for a in range(top + 1)]
        for low in range(top):
            for j in range(top - 1, low - 1, -1):
                c[j] += P * c[j + 1]
        out.update({rest[:i] + (b,) + rest[i:]: v * Q ** b for b, v in enumerate(c) if v})
    return out, Q ** A


def tuple_box(exps: tuple, signature: tuple) -> dict:
    """box y^a = sum_i eps_i a_i (a_i - 1) y^(a - 2 e_i), as ``{exponents: int}``."""
    return {exps[:i] + (e - 2,) + exps[i + 1:]: signature[i] * e * (e - 1)
            for i, e in enumerate(exps) if e > 1}


def tuple_inverse_box(exps: tuple, signature: tuple) -> tuple[int, dict]:
    """G(y^a) as ``(D, {exponents: int})`` by Horner's rule, Q times a map its
    n copies with a_i + 2: ``solvers._inverse_box`` on tuple keys."""
    n, m = len(exps), sum(exps)
    b = [{exps: 1}]
    for _ in range(m // 2):
        b.append(_sum_numerators([(out, v * f, 1) for e, v in b[-1].items()
                                  for out, f in tuple_box(e, signature).items()])[1])
    D, acc = 1, {}
    for j in range(m // 2, -1, -1):
        D, acc = _sum_numerators([(e[:i] + (e[i] + 2,) + e[i + 1:], sign * eps * v, den)
                                  for nums, sign, den in ((b[j], 1, 1), (acc, -1, D))
                                  for e, v in nums.items() for i, eps in enumerate(signature)],
                                 2 * (j + 1) * (n + 2 * m - 2 * j))
    return D, acc

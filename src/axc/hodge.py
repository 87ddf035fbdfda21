"""Metric operators for diagonal +-1 metrics: musical maps, Hodge star,
inverse star, codifferential.

Conventions (property-tested, not hand-simplified):
  star(dx^I) = (prod_{i in I} eps_i) * sgn(I, I^c) * dx^{I^c}
  star_inv   = (-1)^{r(n-r)} * sig(g) * star   on grade r
  delta      = star_inv o d o star o eta, evaluated in closed form per term:
    delta(f dx^I) = -sum_j (-1)^j eps_{i_j} (d f / d y_{i_j}) dx^{I minus i_j}
  with j the 0-based position of i_j in I.  :func:`codifferential_terms` is
  the only place this sign rule is written; ``tests/test_hodge.py`` checks it
  against the literal composite on random forms for n = 1..6.
"""

from __future__ import annotations

from .errors import GradeOutOfRange
from .forms import Form, VectorField, _merge_indices
from .polyring import Poly


def musical_flat(v: VectorField) -> Form:
    """v^flat: component i picks up the metric sign eps_i."""
    ctx = v.ctx
    comps = {}
    for i, p in enumerate(v.components, start=1):
        q = p.scale(ctx.signature[i - 1])
        if not q.is_zero:
            comps[(i,)] = q
    return Form(ctx, {1: comps}) if comps else Form.zero(ctx)


def musical_sharp(alpha: Form) -> VectorField:
    """Inverse of flat; defined on homogeneous 1-forms (and zero)."""
    ctx = alpha.ctx
    grade = alpha.homogeneous_grade()
    if grade not in (None, 1):
        raise GradeOutOfRange("sharp is defined on 1-forms")
    comps = []
    row = alpha.components.get(1, {})
    for i in range(1, ctx.n + 1):
        p = row.get((i,), Poly.zero(ctx.n))
        comps.append(p.scale(ctx.signature[i - 1]))
    return VectorField(ctx, comps)


def hodge_star(omega: Form) -> Form:
    ctx = omega.ctx
    full = tuple(range(1, ctx.n + 1))
    acc: dict[int, dict[tuple, Poly]] = {}
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            comp = tuple(i for i in full if i not in idx)
            merged = _merge_indices(idx, comp)
            assert merged is not None
            _, sign = merged
            eps = 1
            for i in idx:
                eps *= ctx.signature[i - 1]
            term = poly.scale(sign * eps)
            tgt = acc.setdefault(ctx.n - k, {})
            s = tgt.get(comp)
            s = term if s is None else s + term
            if s.is_zero:
                tgt.pop(comp, None)
            else:
                tgt[comp] = s
    f = Form.__new__(Form)
    f.ctx = ctx
    f.components = {k: m for k, m in acc.items() if m}
    return f


def hodge_star_inv(omega: Form) -> Form:
    ctx = omega.ctx
    out = Form.zero(ctx)
    for k in omega.grades():
        part = hodge_star(omega.grade_select(k))
        out = out + part.scale(ctx.sig * (-1) ** (k * (ctx.n - k)))
    return out


def codifferential_terms(idx: tuple, exps: tuple, signature: tuple) -> list:
    """delta on one basis term y^exps dx^idx, as ``(idx', exps', factor)``
    triples (the closed form of the module docstring)."""
    out = []
    for j, axis in enumerate(idx):
        e = exps[axis - 1]
        if e:
            sign = signature[axis - 1] if j % 2 else -signature[axis - 1]
            out.append((idx[:j] + idx[j + 1:], exps[:axis - 1] + (e - 1,) + exps[axis:], sign * e))
    return out


def codifferential(omega: Form) -> Form:
    signature = omega.ctx.signature
    return omega.termwise(lambda idx, exps: codifferential_terms(idx, exps, signature))

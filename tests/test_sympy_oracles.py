"""H and delta against formulas evaluated by sympy, an oracle outside the kernel.

The kernel computes both operators as closed-form term maps.  Here sympy
evaluates their defining formulas on whole coefficients: the homotopy
integral with its own exact integration, the codifferential with its own
derivatives.  Skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest

from axc import codifferential, homotopy_H
from axc.randforms import random_form, sample_rng
from tests.conftest import oracle_contexts

sympy = pytest.importorskip("sympy")

_T = sympy.Symbol("t")


def _symbols(n: int) -> list:
    return list(sympy.symbols(f"y1:{n + 1}"))


def _to_sympy(poly, ys):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(y ** e for y, e in zip(ys, exps)))
                       for exps, c in poly.terms.items()))


def _terms(components: dict, ys) -> dict:
    """``{(index tuple, exponents): Fraction}`` of sympy coefficients per index tuple."""
    out = {}
    for idx, expr in components.items():
        for exps, c in sympy.Poly(sympy.expand(expr), *ys).terms():
            if c:
                out[(idx, exps)] = Fraction(int(c.p), int(c.q))
    return out


def _kernel_terms(omega) -> dict:
    return {(idx, exps): c for idx_map in omega.components.values()
            for idx, poly in idx_map.items() for exps, c in poly.terms.items()}


def _samples():
    for ctx in oracle_contexts(4):
        for i in range(10):
            yield ctx, random_form(ctx, sample_rng(281, 10 * ctx.n + i))


def _sympy_H(omega, ys) -> dict:
    """(H omega)(y) = integral_0^1 t^(k-1) i_K omega(t y) dt, K = sum_i y_i d/dx_i
    at y, so i_K dx^I = sum_j (-1)^j y_(i_j) dx^(I minus i_j)."""
    out: dict = {}
    at_ty = {y: _T * y for y in ys}
    for k, idx_map in omega.components.items():
        for idx, poly in idx_map.items():
            f_ty = _to_sympy(poly, ys).subs(at_ty, simultaneous=True)
            for j, axis in enumerate(idx):
                integral = sympy.integrate(_T ** (k - 1) * f_ty * ys[axis - 1], (_T, 0, 1))
                rest = idx[:j] + idx[j + 1:]
                out[rest] = out.get(rest, 0) + (-1) ** j * integral
    return out


def _sympy_delta(omega, ys) -> dict:
    """delta(f dx^I) = -sum_j (-1)^j eps_(i_j) df/dy_(i_j) dx^(I minus i_j)."""
    out: dict = {}
    for idx_map in omega.components.values():
        for idx, poly in idx_map.items():
            f = _to_sympy(poly, ys)
            for j, axis in enumerate(idx):
                eps = omega.ctx.signature[axis - 1]
                rest = idx[:j] + idx[j + 1:]
                out[rest] = out.get(rest, 0) - (-1) ** j * eps * sympy.diff(f, ys[axis - 1])
    return out


def test_homotopy_H_is_the_homotopy_integral():
    for ctx, omega in _samples():
        ys = _symbols(ctx.n)
        assert _kernel_terms(homotopy_H(omega)) == _terms(_sympy_H(omega, ys), ys), omega


def test_codifferential_is_the_coordinate_formula():
    for ctx, omega in _samples():
        ys = _symbols(ctx.n)
        assert _kernel_terms(codifferential(omega)) == _terms(_sympy_delta(omega, ys), ys), omega

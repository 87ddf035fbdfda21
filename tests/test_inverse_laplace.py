"""laplace_solve is the closed-form right inverse G of
box = sum_i eps_i d^2/dy_i^2; sympy's own derivatives check box G(y^a) = y^a
for every monomial of degree <= 8 for n <= 3 and <= 4 for n = 4, 5, in three
signatures, so Horner chains of up to five steps are checked."""

import itertools

import pytest

from axc import Context, Form, Poly, laplace_solve

sympy = pytest.importorskip("sympy")


def signatures(n):
    return [(1,) * n, (1,) + (-1,) * (n - 1), tuple(-1 if i % 2 == 0 else 1 for i in range(n))]


@pytest.mark.parametrize("n", range(1, 6))
def test_box_of_inverse_is_identity(n):
    ys = sympy.symbols(f"y1:{n + 1}")
    top = 8 if n <= 3 else 4
    monomials = [exps for exps in itertools.product(range(top + 1), repeat=n) if sum(exps) <= top]
    for signature in signatures(n):
        ctx = Context(n, (0,) * n, signature)
        for exps in monomials:
            beta = laplace_solve(Form.from_poly(ctx, Poly.monomial(n, exps)), 0)
            G = sympy.Poly.from_dict({beta_exps: sympy.Rational(c.numerator, c.denominator)
                                      for _, beta_exps, c in beta.terms()}, *ys)
            box = sum((G.diff((y, 2)) * eps for eps, y in zip(signature, ys)),
                      sympy.Poly(0, *ys))
            assert (box - sympy.Poly.from_dict({exps: 1}, *ys)).is_zero, (signature, exps)

"""Metamorphic relation: moving a form's star center commutes with every
operator that does not read the center.

A form on a chart is moved to a chart that differs only in ``center`` by
re-expressing each coefficient with ``rebase``.  The moved form must name the
same field, so it takes the same values at every absolute point, and d, delta,
star, star^-1, eta and the Laplace-Beltrami operator must commute with the move,
since none of them reads the center.  H and h do read it and are left out.
Each moved form also survives the text and JSON round trips on its chart.
Forms and centers are drawn with stdlib ``random``, seeded per chart; each
center entry has denominator 7 or 9 and a random sign."""

import random
from fractions import Fraction

import pytest

from axc import (Context, Form, codifferential, form_from_json, form_to_json, hodge_star,
                 hodge_star_inv, laplace_beltrami, parse_form, print_form, rebase)
from axc.randforms import random_form
from tests.conftest import chart_id, oracle_contexts

OPERATORS = {
    "d": Form.d,
    "delta": codifferential,
    "star": hodge_star,
    "star_inv": hodge_star_inv,
    "eta": Form.eta,
    "laplace": laplace_beltrami,
}


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((7, 9)))


def _moved(omega: Form, to: Context) -> Form:
    """omega on the chart ``to``, each coefficient rebased to its center."""
    return Form(to, {k: {idx: rebase(p, omega.ctx.center, to.center) for idx, p in row.items()}
                     for k, row in omega.components.items()})


@pytest.mark.parametrize("ctx", oracle_contexts(), ids=lambda c: f"{c.n}{chart_id(c)}")
def test_moving_the_center_commutes_with_the_center_free_operators(ctx):
    rng = random.Random(f"center-move-{ctx.n}-{chart_id(ctx)}")
    moved_ctx = Context(ctx.n, tuple(_rational(rng) for _ in range(ctx.n)), ctx.signature)
    for _ in range(8):
        omega = random_form(ctx, rng)
        moved = _moved(omega, moved_ctx)
        # the same field: equal values at an absolute point x, read at
        # y = x - center on each chart
        x = [_rational(rng) for _ in range(ctx.n)]
        at = lambda form: set(form.eval_at([a - c for a, c in zip(x, form.ctx.center)]).terms())
        assert at(moved) == at(omega)
        for name, op in OPERATORS.items():
            assert op(moved) == _moved(op(omega), moved_ctx), name
        assert parse_form(print_form(moved), moved_ctx) == moved
        assert form_from_json(form_to_json(moved)) == moved

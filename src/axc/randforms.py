"""Seeded random polynomial forms for the identity and acceptance suites.

Each sample is fully determined by (seed, sample index), independent of
scheduling or iteration order, so suites are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .forms import Form, _form, _require_grade
from .polyring import Context, Poly, _poly, _sum_numerators

_NUMERATORS = tuple(v for v in range(-9, 10) if v != 0)


def sample_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.randint(1, 4))


def _random_terms(rng: random.Random, n: int, max_degree: int, max_terms: int = 2) -> list:
    """``(exponents, numerator, denominator)`` draws, each as :func:`random_rational`'s."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        terms.append((tuple(exps), rng.choice(_NUMERATORS), rng.randint(1, 4)))
    return terms


def random_poly(rng: random.Random, n: int, max_degree: int = 3, max_terms: int = 2) -> Poly:
    terms = _random_terms(rng, n, max_degree, max_terms)
    return _poly(n, *_sum_numerators(terms))


def _random_row(ctx: Context, rng: random.Random, k: int, max_degree: int,
                max_components: int = 2) -> list:
    """``((index tuple, exponents), num, den)`` draws on 1..max_components grade-k forms."""
    index_sets = list(itertools.combinations(range(1, ctx.n + 1), k))
    chosen = rng.sample(index_sets, min(len(index_sets), rng.randint(1, max_components)))
    return [((idx, exps), num, den) for idx in chosen
            for exps, num, den in _random_terms(rng, ctx.n, max_degree)]


def random_homogeneous(ctx: Context, rng: random.Random, k: int,
                       max_degree: int = 3, max_components: int = 2) -> Form:
    _require_grade(k, ctx.n)
    return _form(ctx, *_sum_numerators(_random_row(ctx, rng, k, max_degree, max_components)))


def random_form(ctx: Context, rng: random.Random, max_degree: int = 3) -> Form:
    grades = rng.sample(range(ctx.n + 1), rng.randint(1, min(2, ctx.n + 1)))
    return _form(ctx, *_sum_numerators([entry for k in grades
                                        for entry in _random_row(ctx, rng, k, max_degree)]))

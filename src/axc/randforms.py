"""Seeded random polynomial forms for the identity and acceptance suites.

Each sample is fully determined by (seed, sample index), independent of
scheduling or iteration order, so suites are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .forms import Form
from .polyring import Context, Poly, _poly, _sum_fractions


def sample_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def random_rational(rng: random.Random) -> Fraction:
    num = rng.choice([v for v in range(-9, 10) if v != 0])
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_poly(rng: random.Random, n: int, max_degree: int = 3, max_terms: int = 2) -> Poly:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        pairs.append((tuple(exps), random_rational(rng)))
    return _poly(n, _sum_fractions(pairs))


def _random_row(ctx: Context, rng: random.Random, k: int, max_degree: int,
                max_components: int = 2) -> dict:
    """Random coefficients on 1..max_components distinct grade-k basis forms."""
    index_sets = list(itertools.combinations(range(1, ctx.n + 1), k))
    chosen = rng.sample(index_sets, min(len(index_sets), rng.randint(1, max_components)))
    return {idx: random_poly(rng, ctx.n, max_degree) for idx in chosen}


def random_homogeneous(ctx: Context, rng: random.Random, k: int,
                       max_degree: int = 3, max_components: int = 2) -> Form:
    return Form(ctx, {k: _random_row(ctx, rng, k, max_degree, max_components)})


def random_form(ctx: Context, rng: random.Random, max_degree: int = 3) -> Form:
    grades = rng.sample(range(ctx.n + 1), rng.randint(1, min(2, ctx.n + 1)))
    return Form(ctx, {k: _random_row(ctx, rng, k, max_degree) for k in grades})

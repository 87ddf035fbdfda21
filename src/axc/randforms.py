"""Seeded random polynomial forms for the identity and acceptance suites.

Each sample is fully determined by (seed, sample index), independent of
scheduling or iteration order, so suites are reproducible byte for byte.

Every draw is one rejection rule on the generator's bits, :func:`_below`:
k = n.bit_length(), draw r = getrandbits(k) and redraw while r >= n.  That
is CPython's ``_randbelow`` for a ``random.Random``, so on CPython 3.10-3.13
``_below(bits, n)`` is ``randrange(n)``, ``a + _below(bits, b - a + 1)`` is
``randint(a, b)``, ``seq[_below(bits, len(seq))]`` is ``choice(seq)`` and
:func:`_sample` is ``sample``: the draws are those of ``random``'s helpers,
without their three Python frames per draw.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .forms import Form, _form, _mask, _require_grade
from .polyring import _UNITS, Context, Poly, _poly, _sum_numerators

_NUMERATORS = tuple(v for v in range(-9, 10) if v != 0)  # 18: a numerator is a draw below 18


def sample_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _below(bits, n: int) -> int:
    """A draw from range(n) by ``bits = rng.getrandbits``, as ``rng.randrange(n)``;
    an empty range is a ``ValueError``, as it is there."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n!r}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(rng: random.Random, pool: list, k: int) -> list:
    """``rng.sample(pool, k)``, consuming ``pool``.  Up to 21 members and 5
    draws it is ``sample``'s pool rule (draw j below the members left, take
    pool[j], move the last member left into the vacancy); beyond that
    ``sample`` tracks a set instead and draws itself, from the same stream."""
    n = len(pool)
    if n > 21 or k > 5:
        return rng.sample(pool, k)
    bits, chosen = rng.getrandbits, []
    for last in range(n - 1, n - 1 - k, -1):
        j = _below(bits, last + 1)
        chosen.append(pool[j])
        pool[j] = pool[last]
    return chosen


def random_rational(rng: random.Random) -> Fraction:
    bits = rng.getrandbits
    return Fraction(_NUMERATORS[_below(bits, 18)], 1 + _below(bits, 4))


def _random_terms(rng: random.Random, n: int, max_degree: int, max_terms: int = 2) -> list:
    """``(monomial key, numerator, denominator)`` draws, each as :func:`random_rational`'s:
    a ``Poly`` key, each exponent drawn as one more unit on its axis."""
    bits, units, terms = rng.getrandbits, _UNITS[n], []
    for _ in range(1 + _below(bits, max_terms)):
        key = 0
        for _ in range(_below(bits, max_degree + 1)):
            key += units[_below(bits, n)]
        terms.append((key, _NUMERATORS[_below(bits, 18)], 1 + _below(bits, 4)))
    return terms


def random_poly(rng: random.Random, n: int, max_degree: int = 3, max_terms: int = 2) -> Poly:
    return _poly(n, *_sum_numerators(_random_terms(rng, n, max_degree, max_terms)))


def _random_row(ctx: Context, rng: random.Random, k: int, max_degree: int,
                max_components: int = 2) -> list:
    """``(key, num, den)`` draws on 1..max_components grade-k forms."""
    index_sets = list(itertools.combinations(range(1, ctx.n + 1), k))
    count = 1 + _below(rng.getrandbits, max_components)
    return [(mask + key, num, den)
            for mask in map(_mask, _sample(rng, index_sets, min(len(index_sets), count)))
            for key, num, den in _random_terms(rng, ctx.n, max_degree)]


def random_homogeneous(ctx: Context, rng: random.Random, k: int,
                       max_degree: int = 3, max_components: int = 2) -> Form:
    _require_grade(k, ctx.n)
    return _form(ctx, *_sum_numerators(_random_row(ctx, rng, k, max_degree, max_components)))


def random_form(ctx: Context, rng: random.Random, max_degree: int = 3) -> Form:
    count = 1 + _below(rng.getrandbits, min(2, ctx.n + 1))
    grades = _sample(rng, list(range(ctx.n + 1)), count)
    return _form(ctx, *_sum_numerators([entry for k in grades
                                        for entry in _random_row(ctx, rng, k, max_degree)]))

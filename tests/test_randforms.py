"""The seeded sampler's draw rule.  Every draw of ``axc.randforms`` is one
rejection rule on the generator's bits, the rule that ``random``'s own
``randrange``, ``randint``, ``choice`` and ``sample`` reduce to on CPython;
these tests hold the two equal draw for draw, and pin a digest of the draws."""

import hashlib
import random

import pytest

from axc import randforms
from axc.polyring import Context
from axc.randforms import random_form, random_homogeneous, random_poly, random_rational, sample_rng

BOUNDS = [*range(1, 41), 1000, 2 ** 31 + 7]


def _pair(seed: int):
    return random.Random(seed), random.Random(seed)


def test_below_is_randrange():
    for seed in range(300):
        ours, theirs = _pair(seed)
        for n in BOUNDS:
            assert randforms._below(ours.getrandbits, n) == theirs.randrange(n), (seed, n)
        assert ours.getstate() == theirs.getstate()


def test_randint_and_choice_are_one_draw_below():
    numerators = tuple(v for v in range(-9, 10) if v != 0)
    for seed in range(300):
        ours, theirs = _pair(seed)
        bits = ours.getrandbits
        assert numerators[randforms._below(bits, len(numerators))] == theirs.choice(numerators)
        assert 1 + randforms._below(bits, 4) == theirs.randint(1, 4)
        assert randforms._below(bits, 3 + 1) == theirs.randint(0, 3)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("size, k", [(size, k) for size in (3, 7, 20, 21, 22, 35, 70)
                                     for k in (1, 2, 5, 6) if k <= size])
def test_sample_is_random_sample(size, k):
    # up to 21 members and 5 draws by the pool rule, beyond that by sample itself
    population = [(i, -i) for i in range(size)]
    for seed in range(300):
        ours, theirs = _pair(seed)
        assert randforms._sample(ours, list(population), k) == theirs.sample(population, k), seed
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("draw", [
    lambda rng: random_poly(rng, 2, max_degree=-1),
    lambda rng: random_poly(rng, 2, max_terms=0),
    lambda rng: random_homogeneous(Context.euclidean(2), rng, 1, max_components=0),
    lambda rng: randforms._below(rng.getrandbits, 0),
], ids=["degree", "terms", "components", "below-zero"])
def test_an_empty_range_is_a_value_error(draw):
    # as random.randint's is; the rejection loop would never end on it
    with pytest.raises(ValueError):
        draw(sample_rng(0, 0))


def test_the_draws_are_pinned():
    # every sampler on both signatures for n = 1..8: n = 7 and 8 reach index
    # sets of more than 21 members, and up to 7 components more than 5 draws
    digest = hashlib.sha1()
    for n in range(1, 9):
        for ctx in (Context.euclidean(n), Context.minkowski(n)):
            for i in range(30):
                rng = sample_rng(3, 100 * n + i)
                draws = (random_form(ctx, rng),
                         random_homogeneous(ctx, rng, i % (n + 1), i % 4, 1 + i % 7),
                         random_poly(rng, n, i % 5, 1 + i % 3), random_rational(rng),
                         rng.getrandbits(32))
                digest.update(repr(draws).encode())
    assert digest.hexdigest() == "8cdff1f7d8d9a91e24e7fa27bb31a9d5af34fb88"

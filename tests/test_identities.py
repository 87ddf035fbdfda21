import pytest

from axc import Context, Form, identities, run_identities
from axc.identities import IdentityResult


@pytest.mark.parametrize("kwargs", [{"samples": -2}, {"samples": 0}, {"max_degree": -1},
                                    {"samples": True}, {"samples": 2.0}, {"max_degree": 1.0}])
def test_out_of_range_arguments_raise(kwargs):
    # a sample count below 1 would check nothing and report every identity as
    # passed; counts are ints, never coerced (True would run one sample)
    with pytest.raises(ValueError):
        run_identities(Context.euclidean(3), **kwargs)


@pytest.mark.parametrize("ctx", [Context.euclidean(2), Context.minkowski(3)],
                         ids=["e2", "m3"])
def test_zero_form_is_the_direct_sums_one_common_element(ctx):
    # the zero form sits in both halves of either decomposition, and the check says so
    assert identities.CHECKS["direct_sum_triviality"](ctx, Form.zero(ctx), None)


def test_subset_run_hands_a_check_the_full_run_samples(monkeypatch):
    # sample i of a check is seeded by the check's place in CHECKS, not in
    # ``names``, so a failure seen in a subset run replays in the full run
    name = "star_duality"
    check = identities.CHECKS[name]
    seen = []

    def recording(ctx, w, rng):
        seen.append(w)
        return check(ctx, w, rng)

    monkeypatch.setitem(identities.CHECKS, name, recording)
    ctx = Context.minkowski(3)
    run_identities(ctx, samples=4, seed=5)
    full, seen[:] = list(seen), []
    run_identities(ctx, samples=4, seed=5, names=[name, "d2_zero"])
    assert len(full) == 4 and seen == full


def test_a_failing_check_stops_at_its_first_failing_sample(monkeypatch):
    seen = []

    def third_sample_fails(ctx, w, rng):
        seen.append(w)
        return len(seen) < 3

    monkeypatch.setitem(identities.CHECKS, "h2_zero", third_sample_fails)
    results = run_identities(Context.euclidean(2), samples=5, seed=3, names=["h2_zero", "d2_zero"])
    assert results == [IdentityResult("h2_zero", False, 5, 2), IdentityResult("d2_zero", True, 5)]
    assert len(seen) == 3

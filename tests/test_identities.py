import pytest

from axc import Context, Form, identities, run_identities
from axc.identities import IdentityResult
from tests.conftest import all_contexts


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


# Faults put into the names that axc.identities imports, each on one grade of
# its input: (name, fault of the real operator, check it breaks, lowest n it reaches)
_FAULTS = {
    "star doubled on grade 1": (
        "hodge_star", lambda op: lambda w: op(w) + op(w.grade_select(1)), "star_star_law", 1),
    "h negated on grade 1": (
        "cohomotopy_h", lambda op: lambda w: op(w - w.grade_select(1).scale(2)), "h_sign_form", 2),
    "star_inv negated on grade 2": (
        "hodge_star_inv", lambda op: lambda w: op(w - w.grade_select(2).scale(2)), "h_sign_form", 3),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_a_faulty_operator_fails_the_check_it_targets(monkeypatch, fault):
    # a whole-form equation catches each fault on every chart that its grade reaches
    name, broken, target, low = _FAULTS[fault]
    monkeypatch.setattr(identities, name, broken(getattr(identities, name)))
    for ctx in all_contexts():
        if ctx.n >= low:
            results = run_identities(ctx, 20, 3, 7, names=["star_star_law", "h_sign_form"])
            assert target in {r.name for r in results if not r.passed}, (fault, ctx)

import pytest

from axc import Context, run_identities


@pytest.mark.parametrize("kwargs", [{"samples": -2}, {"samples": 0}, {"max_degree": -1}])
def test_out_of_range_arguments_raise(kwargs):
    # a sample count below 1 would check nothing and report every identity as passed
    with pytest.raises(ValueError):
        run_identities(Context.euclidean(3), **kwargs)

import math

import pytest

from gmdiff.cli import RunConfig
from gmdiff.suite import standard_mixture_1d, standard_normal_spec
from gmdiff.verify import CheckResult
from gmdiff.verify import lipschitz_suite_checks, mixture_suite, score_suite, solver_suite

from conftest import make_random_spec


def test_score_suite_passes_on_anchor():
    checks = score_suite(standard_mixture_1d())
    assert all(c.passed for c in checks)


def test_score_suite_passes_on_random_2d():
    checks = score_suite(make_random_spec(2, 3, seed=5))
    assert all(c.passed for c in checks)


def test_lipschitz_suite_standard_normal():
    checks = lipschitz_suite_checks(standard_normal_spec(2), n_points=4000)
    assert all(c.passed for c in checks)
    # the probe norm on the standard normal is exactly 1, far below L
    assert all(c.measured == pytest.approx(1.0, abs=1e-9) for c in checks)


def test_mixture_suite_passes():
    checks = mixture_suite(standard_mixture_1d(), t=1.5, n=50000)
    assert all(c.passed for c in checks)


def test_solver_suite_passes():
    checks = solver_suite(standard_mixture_1d(), N=256, n=10000)
    assert all(c.passed for c in checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="suite must be one of"):
        RunConfig(command="verify", spec="spec.json", out="out", seed=1, suite="nonsense")


@pytest.mark.parametrize("measured, threshold, passed", [
    (1.0, 1.0, True), (2.0, 1.0, False), (1e300, math.inf, True),
    (math.nan, 1.0, False), (math.nan, math.inf, False), (1.0, math.nan, False),
])
def test_a_check_passes_iff_measured_is_at_most_threshold(measured, threshold, passed):
    check = CheckResult("c", measured, threshold)
    assert check.passed is passed
    assert check.to_dict()["passed"] is passed

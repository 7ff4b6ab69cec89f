import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiff import exp_decay_grid, uniform_grid
from gmdiff.errors import DeltaExceedsHorizon, InvalidHorizon, StepBudgetViolated
from gmdiff.schedules import TimeGrid


class TestUniformGrid:
    def test_half_steps(self):
        g = uniform_grid(1.0, 2)
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(g.steps, [0.5, 0.5])

    def test_integer_grid(self):
        g = uniform_grid(3.0, 3)
        np.testing.assert_allclose(g.points, [0.0, 1.0, 2.0, 3.0])

    def test_early_stopping_offset(self):
        g = uniform_grid(1.0, 4, delta=0.2)
        np.testing.assert_allclose(g.points, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_invalid_horizon(self):
        with pytest.raises(InvalidHorizon):
            uniform_grid(0.0, 4)
        with pytest.raises(InvalidHorizon):
            uniform_grid(1.0, 0)

    @pytest.mark.parametrize("N", [2 ** 63, 2 ** 64, int(1e300), 10 ** 400])
    def test_unallocatable_grid_names_n(self, N):
        # past 2^63 points numpy refuses before allocating anything
        with pytest.raises(InvalidHorizon, match=r"^N=\d+.* more than can be allocated"):
            uniform_grid(8.0, N)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaExceedsHorizon):
            uniform_grid(1.0, 4, delta=1.0)
        with pytest.raises(DeltaExceedsHorizon):
            uniform_grid(1.0, 4, delta=-0.1)

    @given(st.floats(0.1, 20.0), st.integers(1, 300),
           st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, T, N, delta_frac):
        delta = delta_frac * T * 0.5
        g = uniform_grid(T, N, delta)
        assert g.N == N
        assert g.points[0] == pytest.approx(delta)
        assert g.points[-1] == pytest.approx(T)
        assert np.all(g.steps > 0.0)
        assert g.steps.sum() == pytest.approx(T - delta, abs=1e-10)


class TestExpDecayGrid:
    def test_collapses_to_uniform_at_unit_lipschitz(self):
        g = exp_decay_grid(T=2.0, N=10, L=1.0, d=1)
        u = uniform_grid(2.0, 10)
        np.testing.assert_array_equal(g.points, u.points)

    def test_pinned_recurrence_example(self):
        # c = (2 + ln 10)/100, first step c/10, growth until t >= 1 then constant
        g = exp_decay_grid(T=2.0, N=100, L=10.0, d=1, K=1.0)
        c = (2.0 + math.log(10.0)) / 100.0
        assert c == pytest.approx(0.043025850929940455, rel=1e-14)
        assert g.steps[0] == pytest.approx(c / 10.0, rel=1e-14)
        # geometric growth phase: ratios in (1, 1 + c]
        ratios = g.steps[1:] / g.steps[:-1]
        growth = g.points[1:-1] < 1.0
        assert np.all(ratios[growth] <= 1.0 + c + 1e-12)
        # constant phase steps equal c (except the absorbed terminal step)
        const = g.points[:-2] >= 1.0
        np.testing.assert_allclose(g.steps[:-1][const], c, rtol=1e-12)

    def test_budget_violation_reports_minimal_n(self):
        with pytest.raises(StepBudgetViolated) as exc_info:
            exp_decay_grid(T=2.0, N=3, L=10.0, d=2, K=1.0)
        err = exc_info.value
        # c = (2 + ln 10)/3 ~ 1.434 > 1/2; minimal N = ceil((T + log L) K d)
        assert err.min_steps == math.ceil((2.0 + math.log(10.0)) * 2.0)
        # the reported minimum actually restores the constraint
        exp_decay_grid(T=2.0, N=err.min_steps, L=10.0, d=2, K=1.0)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_rejects_non_finite_lipschitz_constant(self, L):
        # inf overflowed the step-count message, nan never left the recurrence
        with pytest.raises(InvalidHorizon, match="Lipschitz constant must be finite"):
            exp_decay_grid(T=2.0, N=100, L=L, d=1)

    @pytest.mark.parametrize("K", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_budget_constant(self, K):
        with pytest.raises(ValueError, match="K must be positive and finite"):
            exp_decay_grid(T=2.0, N=100, L=10.0, d=1, K=K)

    def test_steps_within_contract_band(self):
        for T, N, L, d in [(2.0, 100, 10.0, 1), (8.0, 400, 50.0, 1),
                           (1.5, 200, 2.0, 1), (3.0, 500, 1000.0, 1)]:
            g = exp_decay_grid(T=T, N=N, L=L, d=d)
            c = (T + math.log(L)) / N
            assert np.all(g.steps <= c * (1.0 + 1e-12))
            assert np.all(g.steps >= c / L * (1.0 - 1e-12))

    @given(st.floats(0.5, 10.0), st.integers(50, 800),
           st.floats(2.0, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_contract_band_property(self, T, N, L):
        # L >= 2: the terminal remainder can always be absorbed in-band
        try:
            g = exp_decay_grid(T=T, N=N, L=L, d=1)
        except StepBudgetViolated:
            return
        c = (T + math.log(L)) / N
        assert np.all(g.steps <= c * (1.0 + 1e-9))
        assert np.all(g.steps >= c / L * (1.0 - 1e-9))
        assert g.points[-1] == pytest.approx(T)

    def test_growth_then_constant_shape(self):
        g = exp_decay_grid(T=3.0, N=300, L=20.0, d=1)
        c = (3.0 + math.log(20.0)) / 300.0
        ratios = g.steps[1:-1] / g.steps[:-2]
        assert np.all(ratios >= 1.0 - 1e-12)
        assert np.all(ratios <= 1.0 + c + 1e-12)


class TestTimeGridReverseView:
    def test_reverse_is_increasing_with_same_steps(self):
        g = exp_decay_grid(T=2.0, N=100, L=10.0, d=1)
        rev = g.reverse_points()
        assert np.all(np.diff(rev) > 0.0)
        assert rev[0] == pytest.approx(0.0)
        assert rev[-1] == pytest.approx(2.0)
        np.testing.assert_allclose(np.sort(np.diff(rev)), np.sort(g.steps), rtol=1e-12)

    def test_rejects_bad_grids(self):
        with pytest.raises(InvalidHorizon):
            TimeGrid(points=np.array([0.0, 0.5, 0.4, 1.0]), T=1.0, delta=0.0)
        with pytest.raises(InvalidHorizon):
            TimeGrid(points=np.array([0.1, 1.0]), T=1.0, delta=0.0)


@pytest.mark.parametrize("points, T, delta", [
    ([0.0, math.nan, 1.0], 1.0, 0.0),
    ([math.nan, 0.5, 1.0], 1.0, 0.0),
    ([0.0, 0.5, math.nan], 1.0, 0.0),
    ([0.0, 0.5, 1.0], math.nan, 0.0),
    ([0.0, 0.5, 1.0], 1.0, math.nan),
    ([0.0, math.inf, 1.0], 1.0, 0.0),
    ([0.0, 0.5, math.inf], math.inf, 0.0),
    ([0.0, 0.5, math.inf], np.float64(math.inf), 0.0),
    ([1.0], 1.0, 1.0),
], ids=["nan-inside", "nan-first", "nan-last", "nan-T", "nan-delta", "inf-inside",
        "inf-T", "inf-T-float64", "one-point"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # inf - inf must not warn on the way
def test_time_grid_rejects_non_finite_points_and_a_single_point(points, T, delta):
    with pytest.raises(InvalidHorizon):
        TimeGrid(points=np.array(points), T=T, delta=delta)

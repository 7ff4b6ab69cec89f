import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import gmdiff.bounds
from gmdiff import (
    ConditionParams,
    calibrate_region,
    kl_gaussian_exact,
    kl_to_standard_upper,
    lipschitz_constant,
    lipschitz_suite,
    marginal_at,
    sample,
    second_moment,
    spectral_summary,
    standard_normal_spec,
    validate_spec,
)
from gmdiff.bounds import (
    SpectralSummary,
    _mean_distances,
    _percentile,
    bound_report,
    region_mask,
)
from gmdiff.errors import (
    DimensionMismatch,
    NonFiniteParameter,
    NotPositiveDefinite,
    ParamsOutOfRange,
    TooFewSamples,
)
from gmdiff.mixture import GmmSpec, log_density, sample_array
from gmdiff.samples import SampleBatch

from conftest import make_random_spec


class TestConditionParams:
    def test_accepts_valid_ranges(self):
        ConditionParams(R=2.0, beta=0.05, log_gamma=math.log(0.01))
        ConditionParams(R=2.0, beta=0.05, log_gamma=-1e4)     # gamma = 0.0 in doubles

    @pytest.mark.parametrize("kwargs", [
        dict(R=0.5, beta=0.05, log_gamma=math.log(0.05)),
        dict(R=1.0, beta=0.2, log_gamma=math.log(0.05)),
        dict(R=1.0, beta=0.0, log_gamma=math.log(0.05)),
        dict(R=1.0, beta=0.05, log_gamma=math.log(0.1)),
        dict(R=1.0, beta=0.05, log_gamma=-math.inf),
        dict(R=1.0, beta=0.05, log_gamma=math.nan),
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ParamsOutOfRange):
            ConditionParams(**kwargs)


class TestSpectralSummary:
    def test_standard_normal(self):
        s = spectral_summary(standard_normal_spec(3))
        assert (s.sigma_min, s.sigma_max, s.det_min, s.mu_max) == (1.0, 1.0, 1.0, 0.0)

    def test_diagonal_single_component(self):
        spec = validate_spec([(1.0, [3.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])])
        s = spectral_summary(spec)
        assert s.sigma_min == pytest.approx(1.0)
        assert s.sigma_max == pytest.approx(4.0)
        assert s.det_min == pytest.approx(4.0)
        assert s.mu_max == pytest.approx(9.0)

    def test_matches_dense_eigendecomposition(self):
        spec = make_random_spec(3, 3, seed=77)
        s = spectral_summary(spec)
        eigs = [np.linalg.eigvalsh(c) for c in spec.covs]
        assert s.sigma_min == pytest.approx(min(e[0] for e in eigs), abs=1e-10)
        assert s.sigma_max == pytest.approx(max(e[-1] for e in eigs), abs=1e-10)
        assert s.det_min == pytest.approx(min(np.prod(e) for e in eigs), rel=1e-10)

    def test_log_det_min_survives_determinant_underflow(self):
        # 0.01 I at d = 400 has determinant e^-1842, which is 0 in doubles
        s = spectral_summary(validate_spec([(1.0, np.zeros(400), 0.01 * np.eye(400))]))
        assert s.det_min == 0.0
        assert s.log_det_min == pytest.approx(400 * math.log(0.01), rel=1e-12)

    def test_det_min_past_double_range_is_inf_without_warning(self):
        s = spectral_summary(validate_spec([(1.0, np.zeros(3), 1e300 * np.eye(3))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.det_min == math.inf
        assert s.log_det_min == pytest.approx(3 * math.log(1e300), rel=1e-12)

    def test_det_bounds_invariant(self):
        spec = make_random_spec(3, 4, seed=78)
        s = spectral_summary(spec)
        assert s.sigma_min ** spec.dim <= s.det_min * (1 + 1e-12)
        assert s.det_min <= s.sigma_max ** spec.dim * (1 + 1e-12)


class TestLipschitzConstant:
    def test_pinned_scalar_example(self):
        # direct high-precision evaluation of the closed form at
        # sigma_min = sigma_max = det_min = 1, R = 1, beta = gamma = 0.1, d = 1;
        # the 0.1 endpoint is outside the open parameter range, so evaluate
        # 1e-12 inside it (the formula is Lipschitz in beta and gamma there,
        # shifting L by under 1e-8)
        summ = SpectralSummary(sigma_min=1.0, sigma_max=1.0, log_det_min=math.log(1.0), mu_max=0.0)
        params = ConditionParams(R=1.0, beta=0.1 - 1e-12, log_gamma=math.log(0.1 - 1e-12))
        L = lipschitz_constant(summ, params, 1)
        assert L.value == pytest.approx(112.06274039572976, rel=1e-9)
        assert L.log_value == pytest.approx(math.log(L.value), rel=1e-12)

    def test_strictly_above_inverse_sigma_min(self):
        summ = SpectralSummary(sigma_min=0.5, sigma_max=2.0, log_det_min=math.log(0.7), mu_max=1.0)
        params = ConditionParams(R=3.0, beta=0.05, log_gamma=math.log(0.02))
        assert lipschitz_constant(summ, params, 2).value > 1.0 / 0.5

    def test_decreases_toward_inverse_sigma_min_in_dimension(self):
        summ = SpectralSummary(sigma_min=1.0, sigma_max=1.0, log_det_min=math.log(1.0), mu_max=0.0)
        params = ConditionParams(R=1.0, beta=0.05, log_gamma=math.log(0.05))
        values = [lipschitz_constant(summ, params, d).value for d in (1, 5, 20, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, rel=1e-8)

    def test_log_space_survives_large_dimension(self):
        # (2 pi)^{-d} underflows around d ~ 250; log_value must stay exact
        summ = SpectralSummary(sigma_min=1.0, sigma_max=1.0, log_det_min=math.log(1.0), mu_max=0.0)
        params = ConditionParams(R=1.0, beta=0.05, log_gamma=math.log(0.05))
        L = lipschitz_constant(summ, params, 600)
        assert math.isfinite(L.log_value)
        assert L.value == pytest.approx(1.0)
        assert L.log_value == pytest.approx(0.0, abs=1e-12)

    def test_overflowing_value_is_inf_with_finite_log(self):
        # at d = 400 a tiny density floor puts L far past the double range
        summ = SpectralSummary(sigma_min=1.0, sigma_max=1.0, log_det_min=math.log(1.0), mu_max=0.0)
        params = ConditionParams(R=4.0, beta=0.05, log_gamma=math.log(1e-300))
        L = lipschitz_constant(summ, params, 400)
        assert L.value == math.inf
        assert math.isfinite(L.log_value) and L.log_value > 709.8

    def test_underflowed_determinant_uses_its_log(self):
        summ = SpectralSummary(sigma_min=0.01, sigma_max=0.01, mu_max=0.0,
                               log_det_min=400 * math.log(0.01))
        params = ConditionParams(R=3.0, beta=0.05, log_gamma=math.log(0.05))
        L = lipschitz_constant(summ, params, 400)
        assert math.isfinite(L.log_value) and L.log_value > 1000.0

    @pytest.mark.parametrize("gamma", [1e-150, 1e-20, 0.05])
    def test_finite_value_keeps_linear_sum(self, gamma):
        summ = SpectralSummary(sigma_min=0.5, sigma_max=2.0, log_det_min=math.log(0.7), mu_max=1.0)
        params = ConditionParams(R=3.0, beta=0.05, log_gamma=math.log(gamma))
        L = lipschitz_constant(summ, params, 3)
        log_pair = np.logaddexp(-3 * math.log(2 * math.pi) - math.log(0.7),
                                -1.5 * math.log(2 * math.pi) - 0.5 * math.log(0.7))
        log_second = (math.log(2.0) + 2.0 * math.log(3.0) - 2.0 * math.log(gamma)
                      - 2.0 * math.log(0.5) + log_pair - 0.05 ** 2 / 4.0)
        assert L.value == math.exp(-math.log(0.5)) + math.exp(log_second)


class TestSecondMoment:
    def test_standard_normal_is_dimension(self):
        for d in (1, 2, 7):
            assert second_moment(standard_normal_spec(d)).M2 == pytest.approx(float(d))

    def test_single_component_closed_form(self):
        spec = validate_spec([(1.0, [1.0, 2.0], [[2.0, 0.0], [0.0, 3.0]])])
        mom = second_moment(spec)
        assert mom.M2 == pytest.approx(5.0 + 5.0)
        assert mom.m2 == pytest.approx(math.sqrt(10.0))

    def test_against_monte_carlo(self):
        spec = make_random_spec(2, 3, seed=55)
        mom = second_moment(spec)
        n = 1_000_000
        pts = sample_array(spec, n, np.random.default_rng(9))
        sq = np.sum(pts ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - mom.M2) <= 4.0 * se

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_below_component_max(self, seed):
        rng = np.random.default_rng(seed)
        spec = make_random_spec(int(rng.integers(1, 4)), int(rng.integers(1, 6)), seed)
        mom = second_moment(spec)
        assert mom.M2 <= mom.component_max * (1 + 1e-12)
        assert mom.M2 == pytest.approx(mom.m2 ** 2, rel=1e-12)


class TestKlGaussianExact:
    def test_identical_is_zero(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert kl_gaussian_exact([1.0, -1.0], cov, [1.0, -1.0], cov) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_identity_covariance(self):
        mu = np.array([1.0, 2.0, -1.0])
        kl = kl_gaussian_exact(mu, np.eye(3), np.zeros(3), np.eye(3))
        assert kl == pytest.approx(0.5 * float(mu @ mu), rel=1e-12)

    def test_scalar_variance_example(self):
        # 0.5 * (-log 4 + 4 - 1) pinned by direct scalar evaluation
        kl = kl_gaussian_exact([0.0], [[4.0]], [0.0], [[1.0]])
        assert kl == pytest.approx(0.8068528194400547, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_inverse_formula(self, d):
        s1, s2 = make_random_spec(d, 1, 70 + d), make_random_spec(d, 1, 80 + d)
        prec2 = np.linalg.inv(s2.covs[0])
        diff = s1.means[0] - s2.means[0]
        ref = 0.5 * (math.log(np.linalg.det(s2.covs[0]) / np.linalg.det(s1.covs[0]))
                     + np.trace(prec2 @ s1.covs[0]) + diff @ prec2 @ diff - d)
        kl = kl_gaussian_exact(s1.means[0], s1.covs[0], s2.means[0], s2.covs[0])
        assert kl == pytest.approx(ref, rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            kl_gaussian_exact([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]],
                              [0.0, 0.0], np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_gaussian_exact([0.0], [[1.0]], [0.0, 0.0], np.eye(2))

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        s1 = make_random_spec(2, 1, seed)
        s2 = make_random_spec(2, 1, seed + 1)
        assert kl_gaussian_exact(s1.means[0], s1.covs[0], s2.means[0], s2.covs[0]) >= 0.0


class TestKlToStandardUpper:
    def test_standard_normal_is_zero(self, std2d):
        res = kl_to_standard_upper(std2d)
        assert res.bound == pytest.approx(0.0, abs=1e-12)
        assert res.convexity_bound == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_collapses(self):
        spec = validate_spec([(1.0, [1.0, 2.0], np.eye(2))])
        res = kl_to_standard_upper(spec)
        assert res.bound == pytest.approx(0.5 * 5.0, rel=1e-12)

    def test_dominates_convexity_bound(self):
        for seed in range(8):
            spec = make_random_spec(2, 3, seed=seed)
            res = kl_to_standard_upper(spec)
            assert res.bound >= res.convexity_bound >= 0.0

    def test_finite_when_determinant_underflows(self):
        spec = validate_spec([(1.0, np.zeros(400), 0.01 * np.eye(400))])
        res = kl_to_standard_upper(spec)
        # 1/2 (-400 log 0.01 + 400 * 0.01 - 400)
        assert res.bound == pytest.approx(0.5 * (-400 * math.log(0.01) - 396.0), rel=1e-12)

    def test_dominates_monte_carlo_kl(self):
        spec = make_random_spec(2, 2, seed=202)
        res = kl_to_standard_upper(spec)
        n = 200000
        pts = sample_array(spec, n, np.random.default_rng(3))
        ref = standard_normal_spec(2)
        vals = np.asarray(log_density(spec, pts)) - np.asarray(log_density(ref, pts))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert vals.mean() <= res.bound + 4.0 * se

    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_convexity_bound_is_the_exact_component_kl(self, d, k):
        # read off the eigenvalues, it matches the factorized per-component KL
        spec = make_random_spec(d, k, seed=10 * d + k)
        exact = sum(w * kl_gaussian_exact(m, c, np.zeros(d), np.eye(d))
                    for w, m, c in zip(spec.weights, spec.means, spec.covs))
        assert kl_to_standard_upper(spec).convexity_bound == pytest.approx(exact, rel=1e-12)


def test_validation_and_bounds_factorize_only_to_sample(monkeypatch):
    # positive definiteness and both KL bounds come from the cached
    # eigendecomposition; only GmmSpec.chols, which sampling reads, may
    # call np.linalg.cholesky
    specs = lipschitz_suite(2024)
    raws = [spec.to_dict() for spec in specs]
    real, sampling = np.linalg.cholesky, GmmSpec.__dict__["chols"].func.__code__

    def cholesky(a, *args, **kwargs):
        if sys._getframe(1).f_code is not sampling:
            raise AssertionError("np.linalg.cholesky called outside GmmSpec.chols")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for raw, spec in zip(raws, specs):
        validate_spec(raw)
        kl_to_standard_upper(spec)
        bound_report(spec, 0.5, calibration_samples=1000, seed=1)


class TestRegionCheck:
    def test_center_fails_lower_clause(self, std1d):
        # |0 - 0| < beta while the density 0.399 clears the floor; 0.06 passes
        params = ConditionParams(R=5.0, beta=0.05, log_gamma=math.log(0.01))
        assert region_mask(std1d, [[0.0], [0.06]], params).tolist() == [False, True]

    def test_far_point_fails_upper_clause(self, std1d):
        params = ConditionParams(R=10.0, beta=0.05, log_gamma=math.log(1e-30))
        assert region_mask(std1d, [[1e6], [9.0]], params).tolist() == [False, True]

    def test_moderate_point_passes(self, std1d):
        params = ConditionParams(R=5.0, beta=0.05, log_gamma=math.log(0.01))
        assert region_mask(std1d, [1.0], params).tolist() == [True]

    def test_density_clause(self, std1d):
        # 3.5 lies inside [beta, R]; its density 8.7e-4 is below the floor
        params = ConditionParams(R=10.0, beta=0.01, log_gamma=math.log(0.0999))
        assert region_mask(std1d, [[3.5], [1.0]], params).tolist() == [False, True]

    def test_mask_agrees_with_scalar(self, anchor):
        # the clauses evaluated point by point: norms and log p of one point
        params = ConditionParams(R=4.0, beta=0.05, log_gamma=math.log(0.01))
        pts = np.linspace(-4.0, 4.0, 41)[:, None]
        mask = region_mask(anchor, pts, params)
        dists = [np.linalg.norm(p - anchor.means, axis=1) for p in pts]
        scalar = [bool((r >= params.beta).all() and (r <= params.R).all()
                       and log_density(anchor, p) >= params.log_gamma)
                  for r, p in zip(dists, pts)]
        assert list(mask) == scalar
        assert 0 < sum(scalar) < len(scalar)

    def test_mask_takes_one_point_and_puts_nan_outside(self, anchor):
        # region_mask leaves finiteness to the caller: NaN fails every clause
        params = ConditionParams(R=4.0, beta=0.05, log_gamma=math.log(0.01))
        assert region_mask(anchor, [1.0], params).tolist() == [True]
        mask = region_mask(anchor, [[1.0], [math.nan]], params)
        assert mask.tolist() == [True, False]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestPercentile:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1000, 30000),
           q=st.one_of(st.sampled_from([1.0, 99.0]), st.floats(0.0, 100.0)),
           ties=st.booleans(), far=st.sampled_from([0, 1, 150, 300, 5000]))
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_bit_for_bit(self, seed, n, q, ties, far):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) * 30.0
        if ties:
            # + 0.0 turns -0.0 into 0.0: which of two equal signed zeros a
            # partition puts first is no property of the values
            a = np.round(a) + 0.0
        # far points have log density -inf; -inf on both sides makes NaN
        a[rng.choice(n, min(far, n), replace=False)] = -np.inf
        with np.errstate(invalid="ignore"):
            assert _bits(_percentile(a, q)) == _bits(np.percentile(a, q))

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("q", [0.0, 1.0, 99.0, 100.0])
    def test_end_points_and_tiny_arrays(self, n, q):
        a = np.random.default_rng(n).standard_normal(n)
        assert _bits(_percentile(a, q)) == _bits(np.percentile(a, q))
        a[-1] = -np.inf
        with np.errstate(invalid="ignore"):
            assert _bits(_percentile(a, q)) == _bits(np.percentile(a, q))


class TestCalibrateRegion:
    def test_standard_normal_radius(self, std1d):
        batch = sample(std1d, 100000, seed=5)
        params = calibrate_region(std1d, batch)
        # 99th percentile of |x| is the 0.995 normal quantile
        assert params.R == pytest.approx(norm.ppf(0.995), abs=0.05)

    def test_gamma_clamped_below_range_limit(self):
        # a tight mixture has 1st-percentile density far above 0.1
        spec = validate_spec([(1.0, [0.0], [[1e-4]])])
        batch = sample(spec, 5000, seed=6)
        params = calibrate_region(spec, batch)
        assert params.log_gamma == pytest.approx(math.log(0.0999))

    def test_overflowing_distances_raise_without_warning(self):
        # |x|^2 overflows for about one draw in eight at variance 8e307: the
        # 99th percentile of the distances is NaN, which R = max(1, NaN) hid
        spec = validate_spec([(1.0, [0.0], [[8e307]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteParameter, match="overflows the double range"):
                calibrate_region(spec, sample(spec, 1000, seed=1))

    @pytest.mark.parametrize("on_mean", [11, 1000])
    def test_beta_floor_when_a_percent_of_points_sit_on_a_mean(self, on_mean):
        # past 1% of the points at distance 0, the 1st percentile is 0
        spec = lipschitz_suite()[5]
        pts = sample(spec, 1000, seed=2).points
        pts[:on_mean] = spec.means[1]
        params = calibrate_region(spec, SampleBatch(points=pts, meta={}))
        assert params.beta == 1e-6

    def test_too_few_samples(self, std1d):
        with pytest.raises(TooFewSamples):
            calibrate_region(std1d, sample(std1d, 999, seed=1))

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_matches_point_major_distances(self, d):
        # the distances |x - a_t mu_i| to the marginal's means are taken
        # component-major in point blocks; a sum of fewer than 8 squares keeps
        # its order, so R, beta and the mask equal the point-major norm's bit
        # for bit, while at d = 10 numpy's pairwise summation of the norm may
        # round differently
        spec_t = marginal_at(make_random_spec(d, 3, seed=80 + d), 0.3)
        pts = sample(spec_t, 20000, seed=90 + d).points
        params = calibrate_region(spec_t, SampleBatch(points=pts, meta={}))
        dists = np.linalg.norm(pts[:, None, :] - spec_t.means[None, :, :], axis=2)
        R = max(1.0, float(np.percentile(dists.max(axis=1), 99.0)))
        beta = min(float(np.percentile(dists.min(axis=1), 1.0)), 0.0999)
        rel = 0.0 if d <= 3 else 1e-12
        assert params.R == pytest.approx(R, rel=rel, abs=0)
        assert params.beta == pytest.approx(beta, rel=rel, abs=0)
        ref_mask = ((dists >= params.beta).all(axis=1) & (dists <= params.R).all(axis=1)
                    & (log_density(spec_t, pts) >= params.log_gamma))
        mask = region_mask(spec_t, pts, params)
        np.testing.assert_array_equal(mask, ref_mask)
        assert 0 < mask.sum() < len(mask)
        for i in range(0, 20000, 997):
            assert region_mask(spec_t, pts[i], params).tolist() == [ref_mask[i]]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mean_distances_are_component_major(self, d):
        spec = make_random_spec(d, 4, seed=60 + d)
        pts = sample(spec, 9000, seed=61).points     # two point blocks
        dists = _mean_distances(spec, pts)
        ref = np.linalg.norm(pts[:, None, :] - spec.means[None, :, :], axis=2)
        assert dists.shape == (4, 9000)
        np.testing.assert_array_equal(dists, ref.T)
        assert _mean_distances(spec, pts[5]).shape == (4,)
        np.testing.assert_array_equal(_mean_distances(spec, pts[5]), ref[5])

    def test_fresh_samples_mostly_pass(self, anchor):
        spec_t = marginal_at(anchor, 0.5)
        params = calibrate_region(spec_t, sample(spec_t, 50000, seed=8))
        fresh = sample(spec_t, 20000, seed=9)
        frac = float(region_mask(spec_t, fresh.points, params).mean())
        assert frac >= 0.95


class TestBoundReport:
    def test_invariants_on_random_specs(self):
        for seed in range(4):
            spec = make_random_spec(2, 3, seed=seed)
            for t in (0.0, 1.0):
                rep = bound_report(spec, t, seed=seed)
                summ = rep.summary
                assert rep.L >= 1.0 / summ.sigma_min
                assert rep.M2 == pytest.approx(rep.m2 ** 2, rel=1e-12)
                assert rep.kl_upper >= 0.0
                assert math.isfinite(rep.log_L)

    def test_kl_upper_is_the_closed_form_without_factorizing(self, monkeypatch):
        specs = lipschitz_suite(2024)
        expected = [kl_to_standard_upper(spec).bound for spec in specs]

        def factorize(*args):
            raise AssertionError("bound_report ran kl_gaussian_exact")

        monkeypatch.setattr(gmdiff.bounds, "kl_gaussian_exact", factorize)
        for spec, bound in zip(specs, expected):
            rep = bound_report(spec, 0.5, calibration_samples=1000, seed=1)
            assert _bits(rep.kl_upper) == _bits(bound)

    def test_long_time_approaches_standard_normal_values(self, anchor):
        rep = bound_report(anchor, 30.0, seed=3)
        assert rep.summary.sigma_min == pytest.approx(1.0, abs=1e-10)
        assert rep.summary.sigma_max == pytest.approx(1.0, abs=1e-10)
        assert rep.summary.det_min == pytest.approx(1.0, abs=1e-10)

    def test_serializes_all_fields(self, anchor):
        rep = bound_report(anchor, 0.0, seed=1)
        d = rep.to_dict()
        assert set(d) == {"t", "L", "log_L", "m2", "M2", "kl_upper", "sigma_min",
                          "sigma_max", "det_min", "log_det_min", "mu_max", "R", "beta",
                          "gamma", "log_gamma"}
        assert d["gamma"] == math.exp(d["log_gamma"])

    def test_density_floor_survives_high_dimension(self):
        # at d = 1000 the 1st-percentile density is about e^-1470: gamma is
        # 0.0 in doubles, while its log keeps the region and L meaningful
        spec = standard_normal_spec(1000)
        rep = bound_report(spec, 0.0, calibration_samples=2000, seed=1)
        assert -math.inf < rep.params.log_gamma < math.log(0.1)
        assert rep.to_dict()["gamma"] == 0.0
        assert math.isfinite(rep.log_L)
        fresh = sample_array(spec, 2000, np.random.default_rng(2))
        assert region_mask(spec, fresh, rep.params).mean() >= 0.95

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiff import (
    affine_push,
    lipschitz_suite,
    marginal_at,
    ou_coefficients,
    score,
    score_jacobian,
    validate_spec,
)
from gmdiff.errors import NegativeTime, NotPositiveDefinite, ZeroScale
from gmdiff.mixture import sample_array

from conftest import make_random_spec

times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestOuCoefficients:
    def test_boundary_at_zero(self):
        c = ou_coefficients(0.0)
        assert c.a == 1.0 and c.b == 0.0

    def test_log_two(self):
        c = ou_coefficients(math.log(2.0))
        assert c.a == pytest.approx(0.5, rel=1e-15)
        assert c.b == pytest.approx(0.8660254037844386, rel=1e-15)

    def test_long_time_limits(self):
        c = ou_coefficients(50.0)
        assert c.a == pytest.approx(1.9287498479639178e-22, rel=1e-12)
        assert 1.0 - c.b < 1e-43

    def test_small_time_precision(self):
        # b ~ sqrt(2 t); a naive 1 - e^{-2t} loses half the digits here
        t = 1e-12
        c = ou_coefficients(t)
        assert c.b == pytest.approx(math.sqrt(2.0 * t), rel=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            ou_coefficients(-0.1)

    def test_subnormal_scale_kept(self):
        c = ou_coefficients(745.13)
        assert c.a == 5e-324 and c.b == 1.0

    @pytest.mark.parametrize("t", [745.2, 800.0, 1e300])
    def test_underflowing_scale_names_the_time(self, t):
        with pytest.raises(ZeroScale) as info:
            ou_coefficients(t)
        assert str(info.value).startswith(f"time {t!r}: ")
        assert "underflows to 0 past t of about 745.1" in str(info.value)

    @given(times)
    @settings(max_examples=100, deadline=None)
    def test_unit_circle_identity(self, t):
        c = ou_coefficients(t)
        assert abs(c.a ** 2 + c.b ** 2 - 1.0) <= 1e-12
        assert 0.0 < c.a <= 1.0
        assert 0.0 <= c.b < 1.0 + 1e-15


class TestAffinePush:
    def test_identity(self, anchor):
        pushed = affine_push(anchor, 1.0, 0.0)
        np.testing.assert_array_equal(pushed.means, anchor.means)
        np.testing.assert_array_equal(pushed.covs, anchor.covs)

    def test_two_component_closed_form(self):
        spec = validate_spec([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
        pushed = affine_push(spec, 0.5, math.sqrt(0.75))
        np.testing.assert_allclose(pushed.means[:, 0], [-0.5, 0.5])
        np.testing.assert_allclose(pushed.covs[:, 0, 0], [1.0, 1.0], rtol=1e-14)

    def test_zero_scale_rejected(self, anchor):
        with pytest.raises(ZeroScale):
            affine_push(anchor, 0.0, 1.0)

    def test_negative_noise_scale_rejected(self, anchor):
        with pytest.raises(ValueError, match="noise scale b"):
            affine_push(anchor, 0.5, -0.1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_precisions_equal_a_solve_against_the_identity(self, d, k):
        # the caches come from the eigendecomposition: precisions
        # Q diag(1/lam) Q^T are exactly symmetric, within 1e-12 of the
        # largest entry of a batched solve against I and bitwise that solve
        # at d = 1; log-dets sum log lam are within 1e-12 of slogdet
        for seed in range(4):
            spec = make_random_spec(d, k, seed=100 * d + 10 * k + seed)
            for a, b in ((1.0, 0.0), (1.0, 0.3), (0.7, 0.6), (0.05, 0.99)):
                pushed = affine_push(spec, a, b)
                prec = pushed.inv_covs
                np.testing.assert_array_equal(prec, np.swapaxes(prec, 1, 2))
                eye = np.broadcast_to(np.eye(d), pushed.covs.shape).copy()
                ref = np.linalg.solve(pushed.covs, eye)
                if d == 1:
                    np.testing.assert_array_equal(prec, ref)
                scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
                assert np.all(np.abs(prec - ref) <= 1e-12 * scale)
                sign, log_dets = np.linalg.slogdet(pushed.covs)
                assert np.all(sign == 1.0)
                np.testing.assert_allclose(pushed.log_dets, log_dets, rtol=0.0, atol=1e-12)

    def test_eigenvalue_that_is_not_positive_rejected(self):
        # Cholesky reproduces this covariance exactly, but eigh puts its
        # smallest eigenvalue (about 1e-16) at or below 0
        cov = np.ones((3, 3)) + np.diag([0.0, 2.0 ** -52, 2.0 ** -52])
        assert np.linalg.eigh(cov)[0][0] <= 0.0
        chol = np.linalg.cholesky(cov)
        assert np.max(np.abs(chol @ chol.T - cov)) <= 1e-10
        with pytest.raises(NotPositiveDefinite):
            validate_spec([(1.0, np.zeros(3), cov)])
        # a^2 lam underflows to 0 when nothing is added at b = 0
        spec = validate_spec([(1.0, [0.0], [[1.0]])])
        with pytest.raises(NotPositiveDefinite):
            affine_push(spec, 1e-200, 0.0)

    @given(st.integers(0, 2 ** 31), st.floats(0.1, 2.0), st.floats(0.0, 2.0),
           st.floats(0.1, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_composition(self, seed, a1, b1, a2, b2):
        # pushing twice equals one push with a = a1 a2, b = sqrt(a2^2 b1^2 + b2^2),
        # by composing y = a2 (a1 x + b1 z1) + b2 z2 and adding variances
        spec = make_random_spec(2, 2, seed=seed)
        double = affine_push(affine_push(spec, a1, b1), a2, b2)
        single = affine_push(spec, a1 * a2, math.sqrt(a2 ** 2 * b1 ** 2 + b2 ** 2))
        np.testing.assert_allclose(double.means, single.means, atol=1e-12)
        np.testing.assert_allclose(double.covs, single.covs, atol=1e-12)


def _factorized(spec):
    """spec with its precisions and log-determinants rebuilt by Cholesky and
    inv, the factorization the eigendecomposition replaced."""
    chols = np.linalg.cholesky(spec.covs)
    inv_covs = np.linalg.inv(spec.covs)
    inv_covs = 0.5 * (inv_covs + np.swapaxes(inv_covs, -1, -2))
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    return dataclasses.replace(spec, inv_covs=inv_covs, log_dets=log_dets)


_SPECTRAL_SPECS = [(f"lipschitz{i}", s) for i, s in enumerate(lipschitz_suite())] + [
    ("separated-60-sigma",
     validate_spec([(0.5, [0.0], [[1.0]]), (0.5, [60.0], [[1.0]])])),
    ("separated-60-sigma-2d",
     validate_spec([(0.3, [0.0, 0.0], np.eye(2)),
                    (0.7, [60.0, -2.0], [[1.0, 0.3], [0.3, 2.0]])])),
    ("d3-k3", make_random_spec(3, 3, seed=8)),
]


class TestMarginalAt:
    def test_time_zero_is_input(self, anchor):
        assert marginal_at(anchor, 0.0) is anchor

    def test_standard_normal_is_stationary(self, std2d):
        for t in (0.1, 1.0, 10.0):
            m = marginal_at(std2d, t)
            np.testing.assert_allclose(m.means, 0.0, atol=1e-15)
            np.testing.assert_allclose(m.covs[0], np.eye(2), atol=1e-15)

    def test_weights_and_k_preserved(self):
        spec = make_random_spec(2, 5, seed=4)
        for t in (0.3, 2.0):
            m = marginal_at(spec, t)
            assert m.k == spec.k
            np.testing.assert_array_equal(m.weights, spec.weights)

    def test_mean_contraction(self):
        spec = make_random_spec(3, 3, seed=6)
        t = 1.7
        m = marginal_at(spec, t)
        np.testing.assert_allclose(
            np.linalg.norm(m.means, axis=1),
            math.exp(-t) * np.linalg.norm(spec.means, axis=1), rtol=1e-13)

    def test_eigenvalue_map(self):
        spec = make_random_spec(3, 2, seed=44)
        t = 0.8
        c = ou_coefficients(t)
        m = marginal_at(spec, t)
        for cov0, cov_t in zip(spec.covs, m.covs):
            expected = np.sort(c.a ** 2 * np.linalg.eigvalsh(cov0) + c.b ** 2)
            np.testing.assert_allclose(np.linalg.eigvalsh(cov_t), expected, atol=1e-10)

    @pytest.mark.parametrize("spec", [s for _, s in _SPECTRAL_SPECS],
                             ids=[name for name, _ in _SPECTRAL_SPECS])
    def test_score_and_jacobian_match_the_factorization(self, spec):
        # within 1e-12 of the largest entry over the batch: single entries
        # that cancel toward zero differ by more relative to themselves
        rng = np.random.default_rng(spec.k * 100 + spec.dim)
        for t in (0.0, 0.05, 0.5, 2.0, 8.0):
            spec_t = marginal_at(spec, t)
            ref_spec = _factorized(spec_t)
            lo, hi = spec_t.means.min() - 4.0, spec_t.means.max() + 4.0
            pts = np.vstack([sample_array(spec_t, 1000, rng),
                             rng.uniform(lo, hi, size=(1000, spec.dim))])
            for fn in (score, score_jacobian):
                got, ref = fn(spec_t, pts), fn(ref_spec, pts)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (fn.__name__, t)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 8.0), st.floats(0.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_law(self, seed, t1, t2):
        # the OU flow composes: noising to t1, then for t2 more, is noising to t1 + t2
        rng = np.random.default_rng(seed)
        spec = make_random_spec(int(rng.integers(1, 4)), int(rng.integers(1, 5)), seed=seed)
        double = marginal_at(marginal_at(spec, t1), t2)
        single = marginal_at(spec, t1 + t2)
        np.testing.assert_allclose(double.means, single.means, rtol=1e-12, atol=1e-300)
        # rtol 1e-12, with an absolute floor for entries that cross zero
        # (off-diagonal covariances; log-dets of covariances near I)
        np.testing.assert_allclose(double.covs, single.covs, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(double.log_dets, single.log_dets, rtol=1e-12, atol=1e-14)

    def test_monte_carlo_forward_matches(self):
        spec = make_random_spec(2, 2, seed=10)
        t, n = 3.0, 100000
        rng = np.random.default_rng(123)
        x0 = sample_array(spec, n, rng)
        z = rng.standard_normal(x0.shape)
        c = ou_coefficients(t)
        pushed = c.a * x0 + c.b * z
        target = marginal_at(spec, t)
        mean_se = pushed.std(axis=0, ddof=1) / math.sqrt(n)
        exact_mean = target.weights @ target.means
        assert np.all(np.abs(pushed.mean(axis=0) - exact_mean) <= 4.0 * mean_se)
        emp_cov = np.cov(pushed.T)
        from gmdiff.mixture import mixture_cov
        exact_cov = mixture_cov(target)
        cov_se = np.sqrt((np.outer(np.diag(exact_cov), np.diag(exact_cov))
                          + exact_cov ** 2) / n)
        assert np.all(np.abs(emp_cov - exact_cov) <= 4.0 * cov_se)

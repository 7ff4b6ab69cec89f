"""Metamorphic relations between exact quantities: each side is a closed
form, so no reference implementation and no sampling error enters.

- OU semigroup: noising to t1 and then for t2 more is noising to t1 + t2,
  seen through the score; the marginal's second moment is a^2 M2 + b^2 d.
- Translation: shifting the data law by c and the points by a_t c leaves
  log_density, score and score_jacobian unchanged, and the condition region
  calibrated on the shifted marginal holds the shifted points.
- One component: score_jacobian is -Sigma^{-1}, and the convexity bound is
  the exact Gaussian KL to the standard normal.

Specs have d <= 5, k <= 5, covariance eigenvalues in [0.25, 4] and means
drawn with a spread of up to 20, so components sit up to about 60 standard
deviations apart. Every tolerance is TOL times eps times a scale computed
from the spec and the points: how far rounding of the means, the points
and the precisions can move each quantity, propagated through the
component terms and their responsibilities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiff import (
    calibrate_region,
    kl_gaussian_exact,
    kl_to_standard_upper,
    log_density,
    marginal_at,
    ou_coefficients,
    random_spec,
    score,
    score_jacobian,
    second_moment,
    validate_spec,
)
from gmdiff.bounds import region_mask
from gmdiff.mixture import responsibilities, sample_array
from gmdiff.samples import SampleBatch
from gmdiff.suite import lipschitz_suite

EPS = float(np.finfo(float).eps)
# the multiple of the propagated rounding that a relation may miss by
TOL = 32.0
N_POINTS = 16
SUITE = lipschitz_suite(2024)
times = st.floats(0.0, 4.0)


@st.composite
def specs(draw, k=None):
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5)) if k is None else k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_spec(d, k, rng, eig_range=(0.25, 4.0), mean_scale=draw(st.floats(0.0, 20.0)))


def _points(spec, seed=0):
    return sample_array(spec, N_POINTS, np.random.default_rng(seed))


def _rounding_scales(spec, x, shift):
    """Bounds, up to a constant, on the rounding error of log_density, score
    and score_jacobian at each point x when every difference x - mu_i is
    off by shift (n, k) and every precision by eps relative."""
    diff = x[:, None, :] - spec.means                            # (n, k, d)
    g = np.einsum("kij,nkj->nki", spec.inv_covs, diff)           # P_i (x - mu_i)
    g_norm = np.linalg.norm(g, axis=2)
    quad = np.sum(diff * g, axis=2)
    p_norm = np.linalg.norm(spec.inv_covs, ord=2, axis=(1, 2))  # (k,)
    r = responsibilities(spec, x)                                # (n, k)
    d_log = g_norm * shift + EPS * (1.0 + 0.5 * quad + np.abs(spec.log_norms))
    d_r = r * (d_log + np.sum(r * d_log, axis=1, keepdims=True))
    d_g = p_norm * shift + EPS * g_norm
    s_norm = np.linalg.norm(np.sum(r[:, :, None] * g, axis=1), axis=1)
    logdens = np.sum(r * d_log, axis=1)
    sc = np.sum(r * d_g + d_r * g_norm, axis=1)
    jac = (np.sum(r * (2.0 * g_norm * d_g) + (d_r + EPS * r) * (g_norm ** 2 + p_norm), axis=1)
           + 2.0 * s_norm * sc + EPS * s_norm ** 2)
    return logdens, sc, jac


def _translated(spec, c):
    return validate_spec([(w, m + c, cov)
                          for w, m, cov in zip(spec.weights, spec.means, spec.covs)])


def _within(got, ref, scale):
    err = np.abs(np.asarray(got) - np.asarray(ref)).reshape(len(scale), -1).max(axis=1)
    assert np.all(err <= TOL * scale), (err / scale).max()


@given(specs(), times, times)
@settings(max_examples=150, deadline=None)
def test_ou_semigroup_through_the_score(spec, t1, t2):
    double = marginal_at(marginal_at(spec, t1), t2)
    single = marginal_at(spec, t1 + t2)
    x = _points(single)
    # the two means differ by a few roundings of a mu_i
    shift = EPS * np.abs(single.means).max(axis=1) * np.ones((len(x), 1))
    _, score_scale, _ = _rounding_scales(single, x, shift)
    _within(score(double, x), score(single, x), score_scale)


@given(specs(), times)
@settings(max_examples=150, deadline=None)
def test_marginal_second_moment_is_a2_M2_plus_b2_d(spec, t):
    coeff = ou_coefficients(t)
    expected = coeff.a ** 2 * second_moment(spec).M2 + coeff.b ** 2 * spec.dim
    got = second_moment(marginal_at(spec, t)).M2
    assert abs(got - expected) <= TOL * EPS * (spec.dim + spec.k) * expected


@given(specs(), times, st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_translation_leaves_density_score_and_jacobian_unchanged(spec, t, c):
    c = np.array(c[:spec.dim])
    a = ou_coefficients(t).a
    spec_t, moved_t = marginal_at(spec, t), marginal_at(_translated(spec, c), t)
    x = _points(spec_t)
    x_moved = x + a * c
    # x + a c - a (mu_i + c) against x - a mu_i: a few roundings of each term
    shift = EPS * spec.dim * (np.abs(x).max(axis=1, keepdims=True)
                              + a * (np.abs(c).max() + np.abs(spec.means).max(axis=1)))
    scales = _rounding_scales(spec_t, x, shift)
    for fn, scale in zip((log_density, score, score_jacobian), scales):
        _within(fn(moved_t, x_moved), fn(spec_t, x), scale)


def _region_scales(spec_t, x, a, c):
    """Rounding scales of the distances |x - a_t mu_i| (n, k) and of the log
    density (n,) at x when the points move by a_t c and the means by a_t c."""
    shift = EPS * spec_t.dim * (np.abs(x).max(axis=1, keepdims=True)
                                + a * np.abs(c).max() + np.abs(spec_t.means).max(axis=1))
    dists = np.linalg.norm(x[:, None, :] - spec_t.means, axis=2)
    return dists, shift + EPS * spec_t.dim * dists, _rounding_scales(spec_t, x, shift)[0]


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("idx", range(6))
@given(c=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2))
@settings(max_examples=4, deadline=None)
def test_translation_moves_the_calibrated_region(idx, t, c):
    spec = SUITE[idx]
    c = np.array(c[:spec.dim])
    a = ou_coefficients(t).a
    spec_t, moved_t = marginal_at(spec, t), marginal_at(_translated(spec, c), t)
    rng = np.random.default_rng(idx)
    calib, probe = sample_array(spec_t, 1000, rng), sample_array(spec_t, 1000, rng)
    params = calibrate_region(spec_t, SampleBatch(points=calib, meta={}))
    moved = calibrate_region(moved_t, SampleBatch(points=calib + a * c, meta={}))
    # a percentile moves no further than the values it is taken from
    _, dist_scale, log_scale = _region_scales(spec_t, calib, a, c)
    for ref, got, scale in ((params.R, moved.R, dist_scale.max()),
                            (params.beta, moved.beta, dist_scale.max()),
                            (params.log_gamma, moved.log_gamma, log_scale.max())):
        assert abs(got - ref) <= TOL * scale, (ref, got)
    # decisions within rounding of a threshold may flip; every other one holds
    dists, d_scale, l_scale = _region_scales(spec_t, probe, a, c)
    d_tol, l_tol = TOL * (d_scale + dist_scale.max()), TOL * (l_scale + log_scale.max())
    near = ((np.abs(dists - params.R) <= d_tol)
            | (np.abs(dists - params.beta) <= d_tol)).any(axis=1)
    near |= np.abs(log_density(spec_t, probe) - params.log_gamma) <= l_tol
    assert near.mean() < 0.01
    mask = region_mask(spec_t, probe, params)
    np.testing.assert_array_equal(region_mask(moved_t, probe + a * c, moved)[~near], mask[~near])
    assert 0 < mask.sum() < len(mask)


@given(specs(k=1))
@settings(max_examples=150, deadline=None)
def test_one_component_jacobian_is_minus_the_precision(spec):
    x = _points(spec)
    cov = spec.covs[0]
    # inv's own error grows with the condition number
    cond = spec.eigvals[0, -1] / spec.eigvals[0, 0]
    shift = EPS * spec.dim * cond * (np.abs(x).max(axis=1, keepdims=True)
                                     + np.abs(spec.means).max())
    _, _, jac_scale = _rounding_scales(spec, x, shift)
    _within(score_jacobian(spec, x), -np.linalg.inv(cov)[None], jac_scale)


@given(specs(k=1))
@settings(max_examples=150, deadline=None)
def test_one_component_convexity_bound_is_the_exact_kl(spec):
    d, lam = spec.dim, spec.eigvals[0]
    exact = kl_gaussian_exact(spec.means[0], spec.covs[0], np.zeros(d), np.eye(d))
    # the eigenvalue sum and log-determinant against their Cholesky forms
    scale = (lam.sum() + spec.means[0] @ spec.means[0] + d + abs(spec.log_dets[0])
             + d * lam[-1] / lam[0])
    assert abs(kl_to_standard_upper(spec).convexity_bound - exact) <= TOL * EPS * scale

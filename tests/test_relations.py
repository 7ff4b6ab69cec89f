"""Metamorphic relations between exact quantities: each side is a closed
form, so no reference implementation and no sampling error enters.

- OU semigroup: noising to t1 and then for t2 more is noising to t1 + t2,
  seen through the score; the marginal's second moment is a^2 M2 + b^2 d.
- Translation: shifting the data law by c and the points by a_t c leaves
  log_density, score and score_jacobian unchanged, and the condition region
  calibrated on the shifted marginal holds the shifted points.
- One component: score_jacobian is -Sigma^{-1}, and the convexity bound is
  the exact Gaussian KL to the standard normal.
- Permutation and splitting: reordering the components, or splitting one
  into two copies of half its weight, leaves log_density, score,
  score_jacobian and spectral_summary unchanged, at d = 1 and at d >= 2
  (the posterior kernel has one branch for each).
- Rotation: for an orthogonal Q, the spec (w_i, Q mu_i, Q Sigma_i Q^T) at
  Q x has the log_density of the spec at x, the score Q s(x) and the
  Jacobian Q H(x) Q^T; spectral_summary, second_moment and both
  kl_to_standard_upper bounds are unchanged. At d = 1 and at d >= 2.
- The region under rotation and reordering: calibrate_region on the
  rotated (or reordered) marginal at the rotated points gives the same R,
  beta and log gamma, and region_mask the same decisions away from a
  threshold, as translation does.

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
    spectral_summary,
    validate_spec,
)
from gmdiff.bounds import region_mask
from gmdiff.mixture import responsibilities, sample_array
from gmdiff.samples import SampleBatch
from gmdiff.suite import lipschitz_suite

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
# the multiple of the propagated rounding that a relation may miss by
TOL = 32.0
N_POINTS = 16
SUITE = lipschitz_suite(2024)
times = st.floats(0.0, 4.0)


@st.composite
def specs(draw, k=None, dims=(1, 5)):
    d = draw(st.integers(*dims))
    k = draw(st.integers(1, 5)) if k is None else k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_spec(d, k, rng, eig_range=(0.25, 4.0), mean_scale=draw(st.floats(0.0, 20.0)))


def _points(spec, seed=0):
    return sample_array(spec, N_POINTS, np.random.default_rng(seed))


def _rounding_scales(spec, x, shift, prec=0.0):
    """Bounds, up to a constant, on the rounding error of log_density, score
    and score_jacobian at each point x when every difference x - mu_i is
    off by shift (n, k) and every precision by eps relative, plus prec (k,)
    relative more, which moves each of the d log-eigenvalues by prec too."""
    diff = x[:, None, :] - spec.means                            # (n, k, d)
    g = np.einsum("kij,nkj->nki", spec.inv_covs, diff)           # P_i (x - mu_i)
    g_norm = np.linalg.norm(g, axis=2)
    quad = np.sum(diff * g, axis=2)
    p_norm = np.linalg.norm(spec.inv_covs, ord=2, axis=(1, 2))  # (k,)
    dist = np.linalg.norm(diff, axis=2)
    r = responsibilities(spec, x)                                # (n, k)
    d_log = (g_norm * shift + EPS * (1.0 + 0.5 * quad + np.abs(spec.log_norms))
             + prec * 0.5 * (p_norm * dist ** 2 + spec.dim))
    d_r = r * (d_log + np.sum(r * d_log, axis=1, keepdims=True))
    d_g = p_norm * shift + EPS * g_norm + prec * p_norm * dist
    s_norm = np.linalg.norm(np.sum(r[:, :, None] * g, axis=1), axis=1)
    logdens = np.sum(r * d_log, axis=1)
    sc = np.sum(r * d_g + d_r * g_norm, axis=1)
    jac = (np.sum(r * (2.0 * g_norm * d_g) + (d_r + (EPS + prec) * r) * (g_norm ** 2 + p_norm),
                  axis=1)
           + 2.0 * s_norm * sc + EPS * s_norm ** 2)
    return logdens, sc, jac


def _translated(spec, c):
    return validate_spec([(w, m + c, cov)
                          for w, m, cov in zip(spec.weights, spec.means, spec.covs)])


def _within(got, ref, scale):
    err = np.abs(np.asarray(got) - np.asarray(ref)).reshape(len(scale), -1).max(axis=1)
    assert np.all(err <= TOL * scale), (err / scale).max()


def _rebuilt(spec, triples):
    return validate_spec([(w, spec.means[i], spec.covs[i]) for w, i in triples])


def _same_mixture(spec, other):
    """other is spec with its components reordered or split: the pointwise
    quantities agree to rounding, and spectral_summary to rounding of the
    per-component values it takes the extremes of."""
    x = _points(spec)
    scales = _rounding_scales(spec, x, np.zeros((len(x), 1)))
    for fn, scale in zip((log_density, score, score_jacobian), scales):
        _within(fn(other, x), fn(spec, x), scale)
    ref, got = spectral_summary(spec), spectral_summary(other)
    log_det_scale = spec.dim * (1.0 + np.abs(np.log(spec.eigvals)).max())
    for name, scale in (("sigma_min", ref.sigma_min), ("sigma_max", ref.sigma_max),
                        ("log_det_min", log_det_scale), ("mu_max", ref.mu_max)):
        assert abs(getattr(got, name) - getattr(ref, name)) <= TOL * EPS * scale, name


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


def _same_region(spec_t, other_t, mapped, scales, seed):
    """calibrate_region on other_t at the mapped calibration points agrees
    with spec_t at the points to rounding, and region_mask agrees on every
    probe point not within rounding of a threshold. scales(x) gives the
    distances to spec_t's means (n, k), their rounding (n, k) and that of
    the log density (n,)."""
    rng = np.random.default_rng(seed)
    calib, probe = sample_array(spec_t, 1000, rng), sample_array(spec_t, 1000, rng)
    params = calibrate_region(spec_t, SampleBatch(points=calib, meta={}))
    moved = calibrate_region(other_t, SampleBatch(points=mapped(calib), meta={}))
    _, dist_scale, log_scale = scales(calib)
    for ref, got, scale in ((params.R, moved.R, dist_scale.max()),
                            (params.beta, moved.beta, dist_scale.max()),
                            (params.log_gamma, moved.log_gamma, log_scale.max())):
        assert abs(got - ref) <= TOL * scale, (ref, got)
    dists, d_scale, l_scale = scales(probe)
    d_tol, l_tol = TOL * (d_scale + dist_scale.max()), TOL * (l_scale + log_scale.max())
    near = ((np.abs(dists - params.R) <= d_tol)
            | (np.abs(dists - params.beta) <= d_tol)).any(axis=1)
    near |= np.abs(log_density(spec_t, probe) - params.log_gamma) <= l_tol
    assert near.mean() < 0.01
    mask = region_mask(spec_t, probe, params)
    np.testing.assert_array_equal(region_mask(other_t, mapped(probe), moved)[~near], mask[~near])
    assert 0 < mask.sum() < len(mask)


def _distance_scales(spec_t, x, shift, prec=0.0):
    """Distances |x - mu_i| (n, k), their rounding when each difference is
    off by shift (n, k), and the log density's, as in _rounding_scales."""
    dists = np.linalg.norm(x[:, None, :] - spec_t.means, axis=2)
    return dists, shift + EPS * spec_t.dim * dists, _rounding_scales(spec_t, x, shift, prec)[0]


@pytest.mark.parametrize("idx", range(6))
def test_rotation_rotates_the_calibrated_region(idx):
    spec = SUITE[idx]
    d = spec.dim
    # the Q of a 2 x 2 QR is a reflection, which is symmetric; a product of
    # two is a rotation, which is not
    rng = np.random.default_rng(idx)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] @ np.linalg.qr(rng.standard_normal((d, d)))[0]
    rotated = validate_spec([(w, q @ m, q @ cov @ q.T)
                             for w, m, cov in zip(spec.weights, spec.means, spec.covs)])
    # the rotated marginal's precisions are off by d eps cond relative, as
    # in test_rotation_rotates_score_and_jacobian_and_keeps_the_bounds
    prec = EPS * d * (spec.eigvals[:, -1] / spec.eigvals[:, 0])
    for t in (0.0, 0.5, 2.0):
        spec_t = marginal_at(spec, t)

        def scales(x):
            shift = EPS * d * (np.linalg.norm(x, axis=1, keepdims=True)
                               + np.linalg.norm(spec_t.means, axis=1))
            return _distance_scales(spec_t, x, shift, prec)

        _same_region(spec_t, marginal_at(rotated, t), lambda x: x @ q.T, scales, idx)


@pytest.mark.parametrize("idx", range(6))
def test_reordering_components_keeps_the_calibrated_region(idx):
    spec = SUITE[idx]
    order = np.random.default_rng(idx).permutation(spec.k)
    reordered = _rebuilt(spec, [(spec.weights[i], i) for i in order])
    for t in (0.0, 0.5, 2.0):
        spec_t = marginal_at(spec, t)
        # each distance is the same arithmetic; only the log-sum-exp order moves
        _same_region(spec_t, marginal_at(reordered, t), lambda x: x,
                     lambda x: _distance_scales(spec_t, x, np.zeros((len(x), 1))), idx)


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


dims = pytest.mark.parametrize("dims", [(1, 1), (2, 5)], ids=["d1", "d2-5"])


@dims
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reordering_components_changes_nothing(dims, data):
    spec = data.draw(specs(dims=dims))
    order = data.draw(st.permutations(range(spec.k)))
    _same_mixture(spec, _rebuilt(spec, [(spec.weights[i], i) for i in order]))


@dims
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_splitting_a_component_changes_nothing(dims, data):
    spec = data.draw(specs(dims=dims))
    j = data.draw(st.integers(0, spec.k - 1))
    # halving is exact, so the two copies carry exactly the weight of one
    triples = [(w, i) for i, w in enumerate(spec.weights) if i != j]
    half = 0.5 * spec.weights[j]
    position = data.draw(st.integers(0, len(triples)))
    triples[position:position] = [(half, j), (half, j)]
    _same_mixture(spec, _rebuilt(spec, triples))


@dims
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rotation_rotates_score_and_jacobian_and_keeps_the_bounds(dims, data):
    spec = data.draw(specs(dims=dims))
    d = spec.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # a product of two QR factors: one alone is a symmetric reflection at d = 2,
    # which cannot tell Q from Q^T
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] @ np.linalg.qr(rng.standard_normal((d, d)))[0]
    rotated = validate_spec([(w, q @ m, q @ cov @ q.T)
                             for w, m, cov in zip(spec.weights, spec.means, spec.covs)])
    x = _points(spec)
    # Q x - Q mu_i against x - mu_i: d roundings of each product, and Q is
    # orthogonal to d eps
    mu_norm = np.linalg.norm(spec.means, axis=1)
    shift = EPS * d * (np.linalg.norm(x, axis=1, keepdims=True) + mu_norm)
    # Q Sigma Q^T and its eigh are off by d eps lam_max, so each
    # re-validated precision and eigenvalue is off by d eps cond relative
    lam_min, lam_max = spec.eigvals[:, 0], spec.eigvals[:, -1]
    cond = lam_max / lam_min
    log_scale, score_scale, jac_scale = _rounding_scales(spec, x, shift, EPS * d * cond)
    s, h = score(spec, x), score_jacobian(spec, x)
    _within(log_density(rotated, x @ q.T), log_density(spec, x), log_scale)
    # rotating the reference rounds too: d eps of its norm
    s_scale = score_scale + EPS * d * np.linalg.norm(s, axis=1)
    _within(score(rotated, x @ q.T), s @ q.T, s_scale)
    h_scale = jac_scale + EPS * d * np.linalg.norm(h, ord=2, axis=(1, 2))
    _within(score_jacobian(rotated, x @ q.T), q @ h @ q.T, h_scale)

    # each eigenvalue moves by d eps lam_max, each log-determinant by d of
    # them relative, each |mu|^2 by d eps of itself, each trace by d of them
    log_dets = d * (d * cond + 1.0 + np.abs(np.log(spec.eigvals)).max(axis=1))
    ref, got = spectral_summary(spec), spectral_summary(rotated)
    # a subnormal |mu|^2 rounds in absolute steps of eps tiny, hence max(., tiny)
    for name, scale in (("sigma_min", d * lam_max.max()), ("sigma_max", d * lam_max.max()),
                        ("log_det_min", log_dets.max()), ("mu_max", d * max(ref.mu_max, TINY))):
        assert abs(getattr(got, name) - getattr(ref, name)) <= TOL * EPS * scale, name
    per = d * (mu_norm ** 2 + d * lam_max)
    assert abs(second_moment(rotated).M2 - second_moment(spec).M2) <= TOL * EPS * (
        spec.weights @ per)
    kl_ref, kl_got = kl_to_standard_upper(spec), kl_to_standard_upper(rotated)
    bound_scale = 0.5 * (log_dets.max() + d * d * lam_max.max() + d * ref.mu_max + d)
    assert abs(kl_got.bound - kl_ref.bound) <= TOL * EPS * bound_scale
    convexity_scale = spec.weights @ (0.5 * (per + log_dets + d))
    assert abs(kl_got.convexity_bound - kl_ref.convexity_bound) <= TOL * EPS * convexity_scale


def test_rotation_keeps_a_subnormal_mu_max_to_an_absolute_rounding():
    """At mean_scale 1e-159, |mu|^2 is subnormal (about 4e-319): below tiny
    a rounding is absolute, up to eps tiny = 2^-1074, and the relative
    scale d eps mu_max underflows to 0. So the mu_max scale is floored at
    tiny; rotating this spec moves mu_max by one subnormal step."""
    spec = random_spec(2, 1, np.random.default_rng(0), mean_scale=1e-159)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    rotated = validate_spec([(spec.weights[0], q @ spec.means[0], q @ spec.covs[0] @ q.T)])
    ref, got = spectral_summary(spec).mu_max, spectral_summary(rotated).mu_max
    assert 0.0 < ref < TINY and TOL * EPS * 2 * ref == 0.0
    assert abs(got - ref) <= TOL * EPS * 2 * max(ref, TINY)

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiff import (
    density,
    lipschitz_suite,
    log_density,
    responsibilities,
    sample,
    score,
    score_jacobian,
    validate_spec,
)
from gmdiff.errors import (
    DimensionMismatch,
    EmptyMixture,
    GmdiffError,
    NonFiniteParameter,
    NonSymmetricCovariance,
    NotPositiveDefinite,
    WeightsDoNotSumToOne,
)
from gmdiff import mixture
from gmdiff.forward import marginal_at
from gmdiff.metrics import default_histogram_grid, moment_diagnostics
from gmdiff.schedules import uniform_grid
from gmdiff.solvers import FourierField, make_score_model
from gmdiff.suite import standard_mixture_1d, standard_normal_spec
from gmdiff.verify import fd_jacobian

from conftest import make_random_spec, naive_density

INV_SQRT_2PI = 0.3989422804014327


class TestValidateSpec:
    def test_single_standard_normal(self):
        spec = validate_spec([(1.0, [0.0], [[1.0]])])
        assert spec.k == 1
        assert spec.dim == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightsDoNotSumToOne):
            validate_spec([(0.6, [0.0], [[1.0]]), (0.6, [1.0], [[1.0]])])

    def test_indefinite_covariance_rejected(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        with pytest.raises(NotPositiveDefinite):
            validate_spec([(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])])

    def test_singular_covariance_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_spec([(1.0, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])])

    def test_rank_deficient_covariances_rejected(self):
        # A A^T with A of shape (d, r), r < d: a Cholesky of the float product
        # succeeded for 170 of these 2,000 draws
        rng = np.random.default_rng(1)
        for _ in range(2000):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal((d, int(rng.integers(1, d))))
            with pytest.raises(NotPositiveDefinite, match="component 0: "):
                validate_spec([(1.0, np.zeros(d), a @ a.T)])

    def test_positive_definite_rule_is_the_matrix_rank_tolerance(self):
        # accepted exactly when lam_min > max(d eps lam_max, tiny): full
        # numerical rank by numpy.linalg.matrix_rank, and a finite precision
        eps = np.finfo(float).eps
        for lam, full_rank in [(2.5 * eps, True), (2.0 * eps, False)]:
            cov = np.diag([1.0, lam])
            assert (np.linalg.matrix_rank(cov) == 2) == full_rank
            if full_rank:
                validate_spec([(1.0, [0.0, 0.0], cov)])
            else:
                with pytest.raises(NotPositiveDefinite):
                    validate_spec([(1.0, [0.0, 0.0], cov)])
        validate_spec([(1.0, [0.0], [[1e-300]])])
        with pytest.raises(NotPositiveDefinite, match="component 0: "):
            validate_spec([(1.0, [0.0], [[1e-310]])])

    @pytest.mark.parametrize("d", [2, 4, 10, 50])
    def test_ill_conditioned_covariances_validate(self, d):
        # condition numbers up to 1e12 sit far inside 1/(d eps)
        rng = np.random.default_rng(d)
        for cond in (1e4, 1e8, 1e12):
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            cov = q @ np.diag(np.geomspace(1.0, cond, d)) @ q.T
            validate_spec([(1.0, np.zeros(d), 0.5 * (cov + cov.T))])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(NonSymmetricCovariance):
            validate_spec([(1.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])])

    @staticmethod
    def _unit_scale_cov(kind):
        if kind == "1d":
            return np.eye(1)
        rng = np.random.default_rng(0)
        if kind == "rotated":
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            cov = q @ np.diag([1.0, 2.0, 3.0]) @ q.T
        else:
            a = rng.standard_normal((3, 3))
            cov = a @ a.T + np.eye(3)
        return 0.5 * (cov + cov.T)

    @pytest.mark.parametrize("c, kind", [(1e7, "1d"), (1e6, "rotated"), (1e8, "random")],
                             ids=["1d-1e7", "rotated-1e6", "random-1e8"])
    def test_scaled_covariance_validates(self, c, kind):
        # SPD at every scale: Cholesky's L L^T misses c Sigma by about
        # d eps c |Sigma|, so no absolute tolerance on it may reject the input;
        # the score scales exactly, score_{c Sigma}(sqrt(c) x) = score_Sigma(x) / sqrt(c)
        cov = self._unit_scale_cov(kind)
        d, r = len(cov), math.sqrt(c)
        means = [np.zeros(d), np.full(d, 0.5)]
        base = validate_spec([(0.3, means[0], cov), (0.7, means[1], np.eye(d))])
        scaled = validate_spec([(0.3, r * means[0], c * cov), (0.7, r * means[1], c * np.eye(d))])
        x = np.random.default_rng(1).standard_normal((50, d))
        want = score(base, x)
        got = score(scaled, r * x) * r
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("bad_at", [(1,), (2,), (1, 2)])
    @pytest.mark.parametrize("fault, error, text", [
        ("asymmetric", NonSymmetricCovariance, "not symmetric"),
        ("indefinite", NotPositiveDefinite, "not positive definite"),
    ])
    def test_names_first_failing_component(self, bad_at, fault, error, text):
        cov = {"asymmetric": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
               "indefinite": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}[fault]
        triples = [(1.0 / 3.0, np.full(3, float(i)), cov if i in bad_at else np.eye(3))
                   for i in range(3)]
        with pytest.raises(error, match=f"component {bad_at[0]}: .*{text}"):
            validate_spec(triples)

    def test_empty_mixture_rejected(self):
        with pytest.raises(EmptyMixture):
            validate_spec([])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_spec([(0.5, [0.0], [[1.0]]), (0.5, [0.0, 0.0], np.eye(2))])

    @pytest.mark.parametrize("triples", [
        [(0.5, [0.0], [[1.0]]), (float("nan"), [1.0], [[1.0]])],
        [(0.5, [0.0], [[1.0]]), (0.5, [float("inf")], [[1.0]])],
        [(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, float("nan")]])],
    ], ids=["nan-weight", "inf-mean", "nan-cov"])
    def test_non_finite_parameters_rejected(self, triples):
        with pytest.raises(NonFiniteParameter) as info:
            validate_spec(triples)
        assert isinstance(info.value, GmdiffError)

    def test_file_format_mapping(self):
        spec = validate_spec({
            "dim": 2,
            "components": [
                {"weight": 1.0, "mean": [1.0, -1.0], "cov": [[2.0, 0.0], [0.0, 0.5]]}
            ],
        })
        assert spec.dim == 2
        np.testing.assert_allclose(spec.means[0], [1.0, -1.0])

    def test_caches_reproduce_covariance(self):
        spec = make_random_spec(3, 4, seed=99)
        for chol, cov in zip(spec.chols, spec.covs):
            np.testing.assert_allclose(chol @ chol.T, cov, atol=1e-10)


class TestDensity:
    def test_standard_normal_at_zero(self, std1d):
        assert density(std1d, [0.0]) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_far_component_negligible(self):
        spec = validate_spec([(0.5, [0.0], [[1.0]]), (0.5, [10.0], [[1.0]])])
        assert density(spec, [0.0]) == pytest.approx(0.5 * INV_SQRT_2PI, rel=1e-10)

    def test_matches_naive_oracle_2d(self):
        weights = [0.3, 0.7]
        means = [[1.0, -0.5], [-1.5, 2.0]]
        covs = [[[1.2, 0.3], [0.3, 0.8]], [[0.6, -0.1], [-0.1, 1.5]]]
        spec = validate_spec(list(zip(weights, means, covs)))
        x = np.array([0.4, 0.9])
        assert density(spec, x) == pytest.approx(
            naive_density(weights, means, covs, x), rel=1e-12)

    def test_dimension_mismatch(self, std2d):
        with pytest.raises(DimensionMismatch):
            density(std2d, [0.0])

    def test_batch_matches_pointwise(self):
        spec = make_random_spec(2, 3, seed=5)
        pts = np.random.default_rng(0).normal(size=(7, 2))
        batch = density(spec, pts)
        singles = [density(spec, p) for p in pts]
        np.testing.assert_allclose(batch, singles, rtol=1e-13)


class TestLogDensity:
    def test_standard_normal_at_zero(self, std1d):
        assert log_density(std1d, [0.0]) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_consistent_with_density(self):
        spec = make_random_spec(2, 3, seed=17)
        pts = np.random.default_rng(1).normal(size=(20, 2))
        np.testing.assert_allclose(
            np.exp(log_density(spec, pts)), density(spec, pts), rtol=1e-12)

    def test_well_separated_components_survive(self):
        # naive per-component products underflow at 60 sigma; the log-sum-exp
        # value was pinned with a 60-digit arbitrary-precision evaluation
        spec = validate_spec([(0.5, [0.0], [[1.0]]), (0.5, [60.0], [[1.0]])])
        assert log_density(spec, [0.0]) == pytest.approx(-1.612085713764618, abs=1e-12)
        assert math.isfinite(log_density(spec, [30.0]))


class TestResponsibilities:
    def test_single_component_is_one(self, std1d):
        assert responsibilities(std1d, [0.3]) == pytest.approx([1.0])

    def test_symmetric_point_splits_evenly(self):
        spec = validate_spec([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
        np.testing.assert_allclose(responsibilities(spec, [0.0]), [0.5, 0.5],
                                   atol=1e-14)

    def test_asymmetric_point_frozen_oracle(self):
        # arbitrary-precision ratio for w=(0.3,0.7), mu=(-1,2), var=(0.5,2), x=0.4
        spec = validate_spec([(0.3, [-1.0], [[0.5]]), (0.7, [2.0], [[2.0]])])
        np.testing.assert_allclose(
            responsibilities(spec, [0.4]),
            [0.18631255069389366, 0.8136874493061064], rtol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        spec = make_random_spec(d, k, seed=seed)
        x = rng.normal(size=d, scale=3.0)
        vals = responsibilities(spec, x)
        assert abs(vals.sum() - 1.0) <= 1e-12
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestScore:
    def test_identity_gaussian(self, std2d):
        np.testing.assert_allclose(score(std2d, [1.0, 2.0]), [-1.0, -2.0], atol=1e-14)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_single_gaussian_is_linear(self, seed, d):
        # one SPD Gaussian: the score is exactly -Sigma^{-1} (x - mu)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        mu = rng.normal(size=d, scale=2.0)
        spec = validate_spec([(1.0, mu, cov)])
        x = rng.normal(size=(20, d), scale=3.0)
        expected = -np.linalg.solve(cov, (x - mu).T).T
        # rtol 1e-12 against the largest entry: single entries can cross zero
        np.testing.assert_allclose(score(spec, x), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    def test_scalar_variance(self):
        spec = validate_spec([(1.0, [0.0], [[4.0]])])
        assert score(spec, [2.0]) == pytest.approx([-0.5])

    def test_symmetric_mixture_vanishes_at_center(self):
        spec = validate_spec([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
        assert abs(score(spec, [0.0])[0]) <= 1e-12

    def test_matches_finite_difference(self):
        spec = make_random_spec(2, 3, seed=3)
        x = np.array([0.7, -0.4])
        fd = fd_jacobian(lambda z: log_density(spec, z), x)
        np.testing.assert_allclose(score(spec, x), fd, rtol=1e-5, atol=1e-8)

    def test_single_component_closed_form_exact(self):
        spec = make_random_spec(3, 1, seed=8)
        x = np.array([0.5, -1.0, 2.0])
        expected = -spec.inv_covs[0] @ (x - spec.means[0])
        np.testing.assert_allclose(score(spec, x), expected, rtol=1e-15)


class TestScoreJacobian:
    def test_identity_gaussian(self, std2d):
        np.testing.assert_allclose(score_jacobian(std2d, [3.0, -1.0]), -np.eye(2),
                                   atol=1e-14)

    def test_diagonal_gaussian(self):
        spec = validate_spec([(1.0, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])])
        np.testing.assert_allclose(score_jacobian(spec, [5.0, 5.0]),
                                   np.diag([-0.25, -1.0]), atol=1e-14)

    def test_matches_finite_difference(self):
        spec = make_random_spec(2, 4, seed=21)
        x = np.array([-0.3, 1.1])
        fd = fd_jacobian(lambda z: score(spec, z), x)
        np.testing.assert_allclose(score_jacobian(spec, x), fd, rtol=1e-4, atol=1e-7)

    def test_symmetric(self):
        spec = make_random_spec(3, 3, seed=33)
        h = score_jacobian(spec, np.array([0.2, -0.8, 1.4]))
        np.testing.assert_allclose(h, h.T, atol=1e-13)


def _reference_posterior(spec, x):
    """Per-component loop at one point: log p, responsibilities, score and
    Hessian of log p in the textbook form sum_i f_i (g g^T - P_i) - s s^T.
    Also returns the magnitude of the summands, the scale of the rounding."""
    d = spec.dim
    logs, pulls, precs = [], [], []
    for w, mu, cov in zip(spec.weights, spec.means, spec.covs):
        prec = np.linalg.inv(cov)
        diff = x - mu
        logs.append(math.log(w) - 0.5 * d * math.log(2.0 * math.pi)
                    - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * diff @ prec @ diff)
        pulls.append(-prec @ diff)
        precs.append(prec)
    top = max(logs)
    ws = [math.exp(v - top) for v in logs]
    f = np.array(ws) / sum(ws)
    s = sum(fi * g for fi, g in zip(f, pulls))
    hess = sum(fi * (np.outer(g, g) - p) for fi, g, p in zip(f, pulls, precs))
    hess = hess - np.outer(s, s)
    scale = sum(fi * (g @ g + np.abs(p).max()) for fi, g, p in zip(f, pulls, precs))
    return top + math.log(sum(ws)), f, s, hess, scale


_KERNEL_SPECS = [(f"lipschitz{i}", spec) for i, spec in enumerate(lipschitz_suite())] + [
    ("separated-60-sigma",
     validate_spec([(0.5, [0.0], [[1.0]]), (0.5, [60.0], [[1.0]])])),
    ("separated-60-sigma-2d",
     validate_spec([(0.3, [0.0, 0.0], np.eye(2)), (0.7, [60.0, -2.0], [[1.0, 0.3], [0.3, 2.0]])])),
    ("d3-k3", make_random_spec(3, 3, seed=41)),
]


class TestPosteriorKernel:
    """The one component-major kernel behind log density, responsibilities,
    score and Jacobian agrees with a per-component loop to 1e-12 relative."""

    @pytest.mark.parametrize("spec", [s for _, s in _KERNEL_SPECS],
                             ids=[name for name, _ in _KERNEL_SPECS])
    def test_matches_per_component_loop(self, spec):
        rng = np.random.default_rng(spec.k * 10 + spec.dim)
        lo, hi = spec.means.min() - 4.0, spec.means.max() + 4.0
        pts = np.vstack([sample(spec, 40, seed=3).points,
                         rng.uniform(lo, hi, size=(40, spec.dim))])
        batch = (log_density(spec, pts), responsibilities(spec, pts),
                 score(spec, pts), score_jacobian(spec, pts))
        for i, x in enumerate(pts):
            lp, f, s, hess, scale = _reference_posterior(spec, x)
            single = (log_density(spec, x), responsibilities(spec, x),
                      score(spec, x), score_jacobian(spec, x))
            for got in (single, tuple(b[i] for b in batch)):
                assert got[0] == pytest.approx(lp, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(got[1], f, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(got[2], s, rtol=1e-12,
                                           atol=1e-12 * math.sqrt(scale))
                np.testing.assert_allclose(got[3], hess, rtol=1e-12, atol=1e-12 * scale)
            assert single[2].shape == (spec.dim,)
            assert single[3].shape == (spec.dim, spec.dim)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_d1_pulls_bitwise_equal_to_matmul(self, k):
        spec = make_random_spec(1, k, seed=k)
        rng = np.random.default_rng(k)
        pts = np.vstack([rng.normal(scale=5.0, size=(3000, 1)), spec.means,
                         [[0.0], [-0.0], [1e-300], [1e300]]])
        logs, pulls = mixture._posterior(spec, pts)
        diff = spec.means[:, :, None] - pts.T
        matmul = np.matmul(spec.inv_covs, diff)
        assert pulls.tobytes() == matmul.tobytes()
        ref_logs = spec.log_norms[:, None] - 0.5 * np.einsum("kdn,kdn->kn", diff, matmul)
        assert logs.tobytes() == ref_logs.tobytes()

    def test_single_component_jacobian_is_exact_precision(self):
        spec = make_random_spec(3, 1, seed=8)
        pts = np.random.default_rng(2).normal(size=(5, 3))
        np.testing.assert_array_equal(score_jacobian(spec, pts),
                                      np.broadcast_to(-spec.inv_covs[0], (5, 3, 3)))

    def test_far_point_log_density_is_minus_infinity(self, std1d):
        assert log_density(std1d, [1e200]) == -math.inf


# each public function against its block kernel, with the kernel's result
# shape; the kernel run once over all points is the unblocked reference
_BLOCKED = [
    ("log_density", lambda spec, x: log_density(spec, x), mixture._log_density_block),
    ("density", lambda spec, x: density(spec, x),
     lambda spec, pts: np.exp(mixture._log_density_block(spec, pts))),
    ("responsibilities", lambda spec, x: responsibilities(spec, x),
     mixture._responsibilities_block),
    ("score", lambda spec, x: score(spec, x), mixture._score_block),
    ("score_jacobian", lambda spec, x: score_jacobian(spec, x),
     mixture._score_jacobian_block),
]


class TestBlocks:
    """The pointwise functions run their kernel over blocks of
    _block_points(spec) = 2**16 // (k d) points; around the block edges
    they agree with one kernel call over the whole batch. A tail block can
    take another SIMD path, so rounding-level differences are allowed:
    1e-12 relative, with an absolute floor of 1e-12 times the largest
    entry for entries that cancel toward zero."""

    @pytest.mark.parametrize("spec", [s for _, s in _KERNEL_SPECS],
                             ids=[name for name, _ in _KERNEL_SPECS])
    def test_block_edges_match_one_kernel_call(self, spec):
        b = mixture._block_points(spec)
        rng = np.random.default_rng(spec.k * 100 + spec.dim)
        lo, hi = spec.means.min() - 4.0, spec.means.max() + 4.0
        pts = rng.uniform(lo, hi, size=(3 * b + 1, spec.dim))
        for name, public, kernel in _BLOCKED:
            whole = kernel(spec, pts)
            floor = 1e-12 * np.abs(whole).max()
            for n in (b - 1, b, b + 1, 3 * b + 1):
                got = public(spec, pts[:n])
                assert got.shape == whole[:n].shape, name
                np.testing.assert_allclose(got, whole[:n], rtol=1e-12, atol=floor,
                                           err_msg=f"{name}, n = {n}")
            single = public(spec, pts[b])
            assert np.shape(single) == whole.shape[1:], name
            np.testing.assert_allclose(single, whole[b], rtol=1e-12, atol=floor,
                                       err_msg=f"{name}, single point")

    def test_empty_batch_gives_empty_results(self, std2d):
        pts = np.empty((0, 2))
        assert log_density(std2d, pts).shape == (0,)
        assert score(std2d, pts).shape == (0, 2)
        assert score_jacobian(std2d, pts).shape == (0, 2, 2)


def _check_mesh_density(spec, coords):
    """_mesh_density against pointwise density on the meshgrid: 1e-12
    relative wherever the density is above 1e-290, zero in the same cells
    and never NaN. Returns the pointwise reference."""
    got = mixture._mesh_density(spec, coords)
    mesh = np.meshgrid(*coords, indexing="ij")
    ref = density(spec, np.stack([g.ravel() for g in mesh], axis=-1)).reshape(mesh[0].shape)
    assert got.shape == ref.shape
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    big = ref > 1e-290
    np.testing.assert_allclose(got[big], ref[big], rtol=1e-12, atol=0)
    return ref


_MESH_SIZES = (41, 29, 17)      # a different length on every axis


class TestMeshDensity:
    """The product-mesh density used by the histogram reference equals the
    pointwise density evaluated on the meshgrid of its axes."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pointwise_density(self, d, k):
        spec = make_random_spec(d, k, seed=10 * d + k)
        rng = np.random.default_rng(d + k)
        sd = np.sqrt(np.diagonal(spec.covs, axis1=1, axis2=2))
        lo, hi = (spec.means - 8 * sd).min(axis=0), (spec.means + 8 * sd).max(axis=0)
        coords = [np.sort(rng.uniform(lo[a], hi[a], _MESH_SIZES[a])) for a in range(d)]
        ref = _check_mesh_density(spec, coords)
        assert (ref > 1e-290).all()

    def test_sixty_sigma_separated_components(self):
        spec = validate_spec([(0.3, [0.0, 0.0], np.eye(2)),
                              (0.7, [60.0, -2.0], [[1.0, 0.3], [0.3, 2.0]])])
        coords = [np.linspace(-8.0, 68.0, 153), np.linspace(-30.0, 26.0, 57)]
        ref = _check_mesh_density(spec, coords)
        # the mesh spans both peaks, the near-empty middle and cells that underflow
        assert ref.max() > 0.01 and (ref == 0.0).any()
        assert ((ref > 0.0) & (ref < 1e-290)).any()

    def test_peaked_component_next_to_broad_one(self):
        spec = validate_spec([(0.5, [0.0, 0.0, 0.0], 1e-6 * np.eye(3)),
                              (0.5, [1.0, -1.0, 0.5], 4.0 * np.eye(3))])
        coords = [np.linspace(-0.005, 0.005, 21), np.linspace(-3.0, 3.0, 13),
                  np.linspace(-0.004, 0.006, 11)]
        ref = _check_mesh_density(spec, coords)
        assert ref.max() > 1e7

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_far_mesh_underflows_everywhere(self, d):
        spec = make_random_spec(d, 5, seed=d)
        coords = [np.linspace(1e3, 2e3, _MESH_SIZES[a]) for a in range(d)]
        _check_mesh_density(spec, coords)
        assert not mixture._mesh_density(spec, coords).any()


class TestSample:
    def test_mean_within_clt_band(self, std2d):
        n = 100000
        batch = sample(std2d, n, seed=42)
        assert np.all(np.abs(batch.points.mean(axis=0)) <= 4.0 / math.sqrt(n))

    def test_deterministic_given_seed(self, anchor):
        a = sample(anchor, 500, seed=7)
        b = sample(anchor, 500, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_component_frequencies_binomial(self):
        spec = validate_spec([(0.2, [-5.0], [[0.01]]), (0.8, [5.0], [[0.01]])])
        n = 50000
        batch = sample(spec, n, seed=11)
        frac_low = float(np.mean(batch.points[:, 0] < 0.0))
        se = math.sqrt(0.2 * 0.8 / n)
        assert abs(frac_low - 0.2) <= 4.0 * se

    def test_rejects_nonpositive_n(self, std1d):
        with pytest.raises(ValueError):
            sample(std1d, 0, seed=1)

    @staticmethod
    def _masked_draws(spec, n, rng):
        """The per-component mask loop sample_array replaced: the reference."""
        idx = rng.choice(spec.k, size=n, p=spec.weights)
        xi = rng.standard_normal((n, spec.dim))
        pts = np.empty((n, spec.dim))
        for i in range(spec.k):
            mask = idx == i
            if np.any(mask):
                pts[mask] = spec.means[i] + xi[mask] @ spec.chols[i].T
        return pts

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 300])    # 300 sorts uint16 labels
    def test_grouped_draws_equal_mask_loop_bitwise(self, k, d):
        spec = make_random_spec(d, k, seed=100 * k + d)
        for n in (1, 7, 8193, 20000):
            ref = self._masked_draws(spec, n, np.random.default_rng(n + k))
            pts = mixture.sample_array(spec, n, np.random.default_rng(n + k))
            assert pts.shape == (n, d)
            assert pts.tobytes() == ref.tobytes()


def _choice_sorted_draws(spec, n, rng):
    """The reference draws: Generator.choice labels, one stable sort and
    the row-major mu_i + xi @ L_i^T on each component's run of rows."""
    idx = rng.choice(spec.k, size=n, p=spec.weights)
    xi = rng.standard_normal((n, spec.dim))
    order = np.argsort(idx, kind="stable")
    grouped = xi[order]
    lo = 0
    for i, hi in enumerate(np.cumsum(np.bincount(idx, minlength=spec.k)).tolist()):
        grouped[lo:hi] = spec.means[i] + grouped[lo:hi] @ spec.chols[i].T
        lo = hi
    pts = np.empty_like(grouped)
    pts[order] = grouped
    return pts


PINNED_SPECS = {
    **{f"suite{i}-t{t}": (lambda i=i, t=t: marginal_at(lipschitz_suite(2024)[i], t))
       for i in range(6) for t in (0.0, 0.5, 2.0)},
    "anchor": standard_mixture_1d,
    **{f"normal-d{d}": (lambda d=d: standard_normal_spec(d)) for d in (1, 2, 50)},
    "random-k8-d3": lambda: make_random_spec(3, 8, seed=8),
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_draws_pinned_bit_for_bit_to_choice_reference(name):
    """sample_array returns the reference's bits, C-ordered, and leaves the
    generator where the reference leaves it."""
    spec = PINNED_SPECS[name]()
    for n in (1, 2, 7, 1000, 20000, 20001):
        ref_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
        ref = _choice_sorted_draws(spec, n, ref_rng)
        pts = mixture.sample_array(spec, n, rng)
        assert pts.shape == (n, spec.dim) and pts.flags.c_contiguous
        assert np.array_equal(pts.view(np.uint64), ref.view(np.uint64))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("name", ["anchor", "suite5-t0.5", "random-k8-d3"])
def test_sample_writes_the_reference_csv_bytes(name, tmp_path):
    spec = PINNED_SPECS[name]()
    batch = sample(spec, 1000, seed=3)
    batch.to_csv(tmp_path / "sample.csv")
    ref = _choice_sorted_draws(spec, 1000, np.random.default_rng(3))
    dataclasses.replace(batch, points=ref).to_csv(tmp_path / "ref.csv")
    for suffix in (".csv", ".meta.json"):
        assert ((tmp_path / "sample").with_suffix(suffix).read_bytes()
                == (tmp_path / "ref").with_suffix(suffix).read_bytes())


@pytest.mark.parametrize("make", [
    lambda spec: validate_spec(spec.to_dict()),
    lambda spec: make_score_model(spec, "perturbed", 0.1, seed=0),
    lambda spec: FourierField.create(1, seed=0),
    lambda spec: uniform_grid(1.0, 4),
    lambda spec: sample(spec, 4, seed=0),
    lambda spec: default_histogram_grid(spec, 10),
    lambda spec: moment_diagnostics(sample(spec, 100, seed=0), spec),
], ids=["GmmSpec", "ScoreModel", "FourierField", "TimeGrid",
        "SampleBatch", "HistogramGrid", "MomentDiagnostics"])
def test_array_holders_compare_and_hash_by_identity(anchor, make):
    # comparing the array fields would raise; identity is the only equality
    obj = make(anchor)
    assert obj == obj and obj in [obj] and {obj: 1}[obj] == 1
    assert obj != make(anchor)

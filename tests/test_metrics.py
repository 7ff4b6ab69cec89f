import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import gmdiff.metrics
from gmdiff import (
    ConditionParams,
    HistogramGrid,
    calibrate_region,
    convergence_sweep,
    default_histogram_grid,
    jacobian_spectral_probe,
    kl_histogram,
    kl_mc,
    lipschitz_suite,
    moment_diagnostics,
    sample,
    standard_normal_spec,
    tv_histogram,
    validate_spec,
)
from gmdiff.errors import (
    DimensionMismatch,
    DimensionTooHigh,
    EmptyBatch,
    NonFiniteParameter,
    NoPointsInRegion,
)
from gmdiff.metrics import (
    SampleBatch,
    _sample_cell_masses,
    fit_loglog_slope,
    reference_cell_masses,
    spectral_norms,
)
from gmdiff.bounds import region_mask
from gmdiff.mixture import density, score_jacobian

from conftest import make_random_spec


class TestHistogramGrid:
    def test_rejects_high_dimension(self):
        with pytest.raises(DimensionTooHigh):
            HistogramGrid(lo=np.zeros(4), hi=np.ones(4), bins=np.full(4, 10))

    def test_rejects_few_bins(self):
        with pytest.raises(ValueError):
            HistogramGrid(lo=[0.0], hi=[1.0], bins=[5])

    @pytest.mark.parametrize("bins", [[10.9], [9.0], [10, 20.5], [1e20]])
    def test_rejects_fractional_or_few_bin_counts(self, bins):
        lo = [0.0] * len(bins)
        with pytest.raises(ValueError):
            HistogramGrid(lo=lo, hi=[1.0] * len(bins), bins=bins)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bin_counts(self, bad):
        with pytest.raises(NonFiniteParameter):
            HistogramGrid(lo=[0.0], hi=[1.0], bins=[bad])

    def test_integral_float_bin_count_equals_int(self):
        a = HistogramGrid(lo=[0.0], hi=[1.0], bins=[10.0])
        b = HistogramGrid(lo=[0.0], hi=[1.0], bins=[10])
        assert a.bins.dtype == b.bins.dtype and a.bins.tolist() == b.bins.tolist() == [10]
        np.testing.assert_array_equal(a.edges[0], b.edges[0])
        assert a.cell_volume == b.cell_volume

    @pytest.mark.parametrize("lo, hi", [([math.nan], [1.0]), ([-math.inf], [1.0]),
                                        ([0.0], [math.nan]), ([0.0], [math.inf]),
                                        ([0.0, math.nan], [1.0, 1.0])])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(NonFiniteParameter):
            HistogramGrid(lo=lo, hi=hi, bins=[10] * len(lo))

    @pytest.mark.parametrize("lo, hi, bins, error", [
        ([0.0, 0.0], [1.0], [10, 10], DimensionMismatch),
        ([0.0], [1.0], [10, 10], DimensionMismatch),
        ([0.0], [0.0], [10], ValueError),
        ([0.0, 1.0], [1.0, 0.5], [10, 10], ValueError),
    ], ids=["hi-short", "bins-long", "hi-equals-lo", "hi-below-lo"])
    def test_rejects_mismatched_shapes_and_empty_axes(self, lo, hi, bins, error):
        with pytest.raises(error):
            HistogramGrid(lo=lo, hi=hi, bins=bins)

    def test_rejects_width_past_double_range(self):
        # hi - lo overflows to inf, so linspace would give NaN edges
        with pytest.raises(ValueError, match="finite width"):
            HistogramGrid(lo=[-1e308], hi=[1e308], bins=[10])

    def test_default_grid_covers_components(self, anchor):
        g = default_histogram_grid(anchor)
        assert g.lo[0] < -2.0 and g.hi[0] > 2.0

    def test_reference_masses_sum_to_one_inside(self, anchor):
        g = default_histogram_grid(anchor, bins=200)
        masses, outside = reference_cell_masses(anchor, g)
        assert masses.sum() + outside == pytest.approx(1.0, abs=1e-6)
        assert outside < 1e-6


def _whole_mesh_cell_masses(spec, grid):
    """The midpoint quadrature with the whole mesh in one density call, laid
    out axis by axis: the reference for the slabbed evaluation."""
    m = 4
    axes = []
    for a in range(grid.dim):
        width = (grid.hi[a] - grid.lo[a]) / grid.bins[a]
        offsets = (np.arange(m) + 0.5) / m * width
        starts = grid.lo[a] + np.arange(grid.bins[a]) * width
        axes.append((starts[:, None] + offsets[None, :]).ravel())
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    fine_shape = []
    for a in range(grid.dim):
        fine_shape.extend([int(grid.bins[a]), m])
    dens = np.asarray(density(spec, pts)).reshape(fine_shape)
    for a in reversed(range(grid.dim)):
        dens = dens.mean(axis=2 * a + 1)
    masses = dens * grid.cell_volume
    return masses, float(max(0.0, 1.0 - masses.sum()))


class TestReferenceCellMasses:
    # d = 3 keeps 10 bins on the last two axes: the whole-mesh reference at
    # 100^3 cells would need 64M points
    @pytest.mark.parametrize("slab", [None, 1000], ids=["default-slab", "slab-1000"])
    @pytest.mark.parametrize("bins", [100, 200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slabs_match_whole_mesh(self, d, bins, slab, monkeypatch):
        if slab is not None:
            monkeypatch.setattr(gmdiff.metrics, "_MESH_SLAB", slab)
        spec = {1: lipschitz_suite()[2], 2: lipschitz_suite()[5],
                3: make_random_spec(3, 3, seed=41)}[d]
        grid = default_histogram_grid(spec, bins=bins)
        if d == 3:
            grid = HistogramGrid(lo=grid.lo, hi=grid.hi, bins=[bins, 10, 10])
        masses, outside = reference_cell_masses(spec, grid)
        ref, ref_outside = _whole_mesh_cell_masses(spec, grid)
        assert masses.shape == ref.shape
        np.testing.assert_allclose(masses, ref, rtol=1e-12, atol=0)
        assert outside == pytest.approx(ref_outside, rel=0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slab_smaller_than_one_cell(self, d, monkeypatch):
        # 10 points is fewer than the 4^d sub-points of one cell at d >= 2,
        # so every slab is a single cell
        spec = {1: lipschitz_suite()[2], 2: lipschitz_suite()[5],
                3: make_random_spec(3, 3, seed=41)}[d]
        grid = default_histogram_grid(spec, bins=10)
        grid = HistogramGrid(lo=grid.lo, hi=grid.hi, bins=[30, 20, 10][:d])
        whole = reference_cell_masses(spec, grid)
        monkeypatch.setattr(gmdiff.metrics, "_MESH_SLAB", 10)
        masses, outside = reference_cell_masses(spec, grid)
        ref, ref_outside = _whole_mesh_cell_masses(spec, grid)
        np.testing.assert_allclose(masses, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(masses, whole[0], rtol=1e-12, atol=0)
        assert outside == pytest.approx(ref_outside, rel=0, abs=1e-12)


def _edge_points(rng, pts, grid):
    """Put a third of each axis' coordinates on an edge or one ulp either
    side of it, and one on hi; lo and hi are edges too."""
    n = pts.shape[0]
    for a, edges in enumerate(grid.edges):
        rows = rng.integers(0, n, n // 3 + 1)
        e = rng.choice(edges, rows.size)
        side = rng.integers(0, 3, rows.size)
        pts[rows, a] = np.where(side == 0, np.nextafter(e, -np.inf),
                                np.where(side == 1, e, np.nextafter(e, np.inf)))
        pts[rng.integers(0, n), a] = grid.hi[a]
    return pts


def _assert_histogramdd_masses(pts, grid):
    hist, _ = np.histogramdd(pts, bins=grid.edges)
    ref = hist / pts.shape[0]
    masses, outside = _sample_cell_masses(pts, grid)
    assert masses.shape == ref.shape
    assert masses.tobytes() == ref.tobytes()
    assert outside == float(1.0 - ref.sum())


class TestSampleCellMasses:
    @given(d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-3.0, 6.0),
           rel_width=st.lists(st.floats(-16.0, 3.0), min_size=3, max_size=3),
           bins=st.lists(st.integers(10, 40), min_size=3, max_size=3),
           n=st.integers(1, 2000))
    @settings(max_examples=80, deadline=None)
    def test_equals_histogramdd(self, d, seed, scale, rel_width, bins, n):
        # relative widths down to 1e-16 make narrow grids whose edges repeat,
        # where the arithmetic bin is off by more than one
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1.0, 1.0, d) * 10.0 ** scale
        width = np.abs(center) * 10.0 ** np.array(rel_width[:d]) + 1e-300
        lo, hi = center - width, center + width
        assume(np.all(hi > lo))
        grid = HistogramGrid(lo=lo, hi=hi, bins=bins[:d])
        assume(all(np.all(np.diff(e) >= 0) for e in grid.edges))
        # some points fall outside the grid
        pts = center + width * rng.uniform(-1.5, 1.5, (n, d))
        _assert_histogramdd_masses(_edge_points(rng, pts, grid), grid)

    @pytest.mark.parametrize("lo, hi, bins", [
        ([1e6], [1e6 + 1e-9], [100]),                 # 9 ulps over 100 bins
        ([1e6, -2.0], [1e6 + 5e-10, 5.0], [200, 30]),
        ([-1e300, 0.0, 1e-300], [1e300, 1e-3, 1.0001e-300], [50, 20, 10]),
    ], ids=["narrow-1d", "narrow-2d", "wide-and-narrow-3d"])
    def test_extreme_widths(self, lo, hi, bins):
        grid = HistogramGrid(lo=lo, hi=hi, bins=bins)
        if lo[0] == 1e6:
            # repeated edges: (x - lo) bins / (hi - lo) is up to 6 (1-D) or
            # 25 (2-D) bins away from the last edge <= x
            assert np.any(np.diff(grid.edges[0]) == 0)
        rng = np.random.default_rng(17)
        width = grid.hi - grid.lo
        pts = grid.lo + width * rng.uniform(-0.2, 1.2, (3000, grid.dim))
        pts[::7] = (grid.lo + grid.hi) / 2 + rng.uniform(-1e-9, 1e-9, (1, grid.dim))
        _assert_histogramdd_masses(_edge_points(rng, pts, grid), grid)

    def test_points_outside_are_dropped(self):
        grid = HistogramGrid(lo=[0.0, 0.0], hi=[1.0, 1.0], bins=[10, 10])
        pts = np.array([[0.5, 0.5], [-1e300, 0.5], [0.5, 1e300], [1.0, 1.0], [2.0, -2.0]])
        masses, outside = _sample_cell_masses(pts, grid)
        assert masses[5, 5] == masses[9, 9] == 0.2 and masses.sum() == 0.4
        assert outside == pytest.approx(0.6, abs=1e-15)
        _assert_histogramdd_masses(pts, grid)


class TestTvHistogram:
    def test_identical_sample_sets_are_zero(self, anchor):
        batch = sample(anchor, 2000, seed=1)
        grid = default_histogram_grid(anchor)
        assert tv_histogram(batch, batch, grid) == 0.0

    def test_disjoint_supports_are_one(self):
        grid = HistogramGrid(lo=[-10.0], hi=[10.0], bins=[20])
        a = SampleBatch(points=np.full((100, 1), -5.0), meta={})
        b = SampleBatch(points=np.full((100, 1), 5.0), meta={})
        assert tv_histogram(a, b, grid) == 1.0

    def test_symmetric_in_sample_arguments(self, anchor):
        grid = default_histogram_grid(anchor)
        a = sample(anchor, 3000, seed=2)
        b = sample(anchor, 4000, seed=3)
        assert tv_histogram(a, b, grid) == pytest.approx(tv_histogram(b, a, grid))

    def test_shifted_normal_pair_matches_quadrature_oracle(self):
        # exact TV between N(0,1) and N(1,1) is 2 Phi(1/2) - 1: the densities
        # cross at x = 1/2 and the gap integrates to the two tail differences
        exact = 2.0 * norm.cdf(0.5) - 1.0
        p = standard_normal_spec(1)
        q = validate_spec([(1.0, [1.0], [[1.0]])])
        grid = HistogramGrid(lo=[-6.0], hi=[7.0], bins=[200])
        batch = sample(p, 1_000_000, seed=4)
        tv = tv_histogram(batch, q, grid)
        # measured TV(samples of p, q) >= TV(p, q); binning + MC add ~0.01
        assert tv == pytest.approx(exact, abs=0.01)

    def test_bounded_and_dimension_checked(self, anchor):
        grid = default_histogram_grid(anchor)
        batch = sample(anchor, 1000, seed=5)
        assert 0.0 <= tv_histogram(batch, anchor, grid) <= 1.0
        with pytest.raises(DimensionMismatch):
            tv_histogram(SampleBatch(points=np.zeros((10, 2))), anchor, grid)


class TestKlMc:
    def test_identical_specs_near_zero(self, anchor):
        est = kl_mc(anchor, anchor, 10000, seed=6)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_closed_form(self):
        p = validate_spec([(1.0, [1.0, 2.0], np.eye(2))])
        q = standard_normal_spec(2)
        est = kl_mc(p, q, 200000, seed=7)
        assert abs(est.value - 2.5) <= 4.0 * est.stderr

    def test_mixture_vs_normal_matches_quadrature(self, anchor):
        # adaptive quadrature of p log(p/q) is the independent oracle
        from scipy.integrate import quad
        from gmdiff.mixture import log_density

        q = standard_normal_spec(1)

        def integrand(x):
            lp = log_density(anchor, [x])
            lq = log_density(q, [x])
            return math.exp(lp) * (lp - lq)

        oracle, err = quad(integrand, -8.0, 8.0, limit=200)
        est = kl_mc(anchor, q, 400000, seed=8)
        assert abs(est.value - oracle) <= 4.0 * est.stderr + err

    def test_nonnegative_within_noise(self):
        p = make_random_spec(2, 2, seed=51)
        q = make_random_spec(2, 3, seed=52)
        est = kl_mc(p, q, 50000, seed=9)
        assert est.value >= -4.0 * est.stderr


class TestKlHistogram:
    def test_self_sampling_bias_small(self, anchor):
        grid = default_histogram_grid(anchor, bins=200)
        batch = sample(anchor, 1_000_000, seed=10)
        res = kl_histogram(batch, anchor, grid)
        assert res.value <= 0.01
        assert res.clamped_cells == 0

    def test_concentrated_samples_positive(self):
        ref = standard_normal_spec(1)
        grid = HistogramGrid(lo=[-5.0], hi=[5.0], bins=[50])
        batch = SampleBatch(points=np.full((1000, 1), 0.05), meta={})
        res = kl_histogram(batch, ref, grid)
        assert res.value > 0.0

    def test_support_mismatch_clamps_and_stays_finite(self):
        ref = standard_normal_spec(1)
        grid = HistogramGrid(lo=[-40.0], hi=[40.0], bins=[80])
        batch = SampleBatch(points=np.full((100, 1), 35.0), meta={})
        res = kl_histogram(batch, ref, grid)
        assert math.isfinite(res.value)
        assert res.clamped_cells >= 1

    def test_halving_sample_size_does_not_shrink_self_distance(self, anchor):
        grid = default_histogram_grid(anchor, bins=100)
        small = kl_histogram(sample(anchor, 20000, seed=11), anchor, grid)
        large = kl_histogram(sample(anchor, 40000, seed=12), anchor, grid)
        assert large.value <= small.value + 2.0 * small.stderr


class TestMomentDiagnostics:
    def test_reference_samples_calibrated(self):
        spec = make_random_spec(2, 3, seed=61)
        batch = sample(spec, 100000, seed=13)
        assert moment_diagnostics(batch, spec).max_abs_z <= 4.0

    def test_second_moment_of_standard_normal(self):
        spec = standard_normal_spec(3)
        batch = sample(spec, 50000, seed=14)
        diag = moment_diagnostics(batch, spec)
        se = 4.0 * math.sqrt(2.0 * 3.0 / 50000)  # loose CLT band for E|x|^2
        assert diag.second_moment == pytest.approx(3.0, abs=4.0 * se)

    def test_shifted_batch_flags_mismatch(self):
        spec = standard_normal_spec(2)
        pts = sample(spec, 20000, seed=15).points.copy()
        pts[:, 0] += 1.0
        diag = moment_diagnostics(SampleBatch(points=pts), spec)
        assert abs(diag.mean_z[0]) > 4.0

    @pytest.mark.parametrize("index", range(6))
    def test_second_moment_z_bitwise_matches_inline_formula(self, index):
        # the reference M2 comes from bounds.second_moment; its z-score must
        # equal, bit for bit, the one built from the formula written out
        spec = lipschitz_suite()[index]
        pts = sample(spec, 4000, seed=100 + index).points
        sq = np.sum(pts ** 2, axis=1)
        ref_m2 = float(spec.weights @ (np.sum(spec.means ** 2, axis=1)
                                       + np.trace(spec.covs, axis1=1, axis2=2)))
        expected = (float(sq.mean()) - ref_m2) / (sq.std(ddof=1) / math.sqrt(4000))
        assert moment_diagnostics(SampleBatch(points=pts), spec).second_moment_z == expected


class TestSpectralProbe:
    def test_standard_normal_norms_are_one(self, std2d):
        params = ConditionParams(R=8.0, beta=0.01, log_gamma=math.log(1e-6))
        batch = sample(std2d, 2000, seed=16)
        probe = jacobian_spectral_probe(std2d, batch, params)
        assert probe.max_norm == pytest.approx(1.0, abs=1e-10)
        assert probe.n_passing > 1500

    def test_diagonal_covariance_norm(self):
        spec = validate_spec([(1.0, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])])
        params = ConditionParams(R=20.0, beta=0.01, log_gamma=math.log(1e-9))
        batch = sample(spec, 500, seed=17)
        probe = jacobian_spectral_probe(spec, batch, params)
        assert probe.max_norm == pytest.approx(1.0, abs=1e-10)

    def test_power_iteration_matches_dense_eigendecomposition(self):
        spec = make_random_spec(2, 5, seed=71)
        pts = sample(spec, 50, seed=18).points
        hess = score_jacobian(spec, pts)
        pi_norms = spectral_norms(hess)
        dense = np.array([np.max(np.abs(np.linalg.eigvalsh(h))) for h in hess])
        np.testing.assert_allclose(pi_norms, dense, rtol=1e-14, atol=0)

    def test_no_points_in_region(self, std1d):
        params = ConditionParams(R=1.0, beta=0.0999, log_gamma=math.log(0.0999))
        batch = SampleBatch(points=np.full((100, 1), 50.0), meta={})
        with pytest.raises(NoPointsInRegion):
            jacobian_spectral_probe(std1d, batch, params)


def _eigvalsh_norms(mats):
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


# entries of magnitude 1e-100..1, or exactly 0: scaled by 1e-150..1e150 they
# stay normal numbers, where eigvalsh is accurate to a few ulps of the norm
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1.0), st.floats(-1.0, -1e-100))


_PROBE_PARAMS = ConditionParams(R=8.0, beta=0.01, log_gamma=math.log(1e-6))
# each metric with the (bad) sample points in the argument it reads them from
_SAMPLE_METRICS = {
    "kl_histogram": lambda pts, spec, grid, clean: kl_histogram(pts, spec, grid),
    "tv_histogram": lambda pts, spec, grid, clean: tv_histogram(pts, spec, grid),
    "tv_histogram-reference": lambda pts, spec, grid, clean: tv_histogram(clean, pts, grid),
    "moment_diagnostics": lambda pts, spec, grid, clean: moment_diagnostics(pts, spec),
    "jacobian_spectral_probe": lambda pts, spec, grid, clean: jacobian_spectral_probe(
        spec, pts, _PROBE_PARAMS),
}


# the metrics plus the two region entry points that share their dimension
# check with mixture._check_points: region_mask takes an array (a NaN point
# falls outside the region), calibrate_region a batch of >= 1000 points
_DIM_CHECKED = {
    **_SAMPLE_METRICS,
    "region_mask": lambda pts, spec, grid, clean: region_mask(spec, pts, _PROBE_PARAMS),
    "calibrate_region": lambda pts, spec, grid, clean: calibrate_region(spec, pts),
}
_WRONG_DIM_CASES = ([(m, kind) for m in _SAMPLE_METRICS for kind in ("array", "batch")]
                    + [("region_mask", "array"), ("calibrate_region", "batch")])


class TestNonFiniteSamples:
    """Every metric that takes sample points rejects a NaN or infinity among
    them instead of booking it as mass outside the grid, and rejects empty
    and wrong-dimension points."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("metric", list(_SAMPLE_METRICS))
    def test_rejects_non_finite_points(self, anchor, metric, bad):
        pts = sample(anchor, 1000, seed=9).points.copy()
        clean = sample(anchor, 1000, seed=10)
        grid = default_histogram_grid(anchor)
        _SAMPLE_METRICS[metric](pts, anchor, grid, clean)      # finite: accepted
        pts[500, 0] = bad
        with pytest.raises(NonFiniteParameter):
            _SAMPLE_METRICS[metric](pts, anchor, grid, clean)

    @pytest.mark.parametrize("metric", list(_SAMPLE_METRICS))
    def test_rejects_empty_points(self, anchor, metric):
        clean = sample(anchor, 1000, seed=10)
        with pytest.raises(EmptyBatch):
            _SAMPLE_METRICS[metric](np.empty((0, 1)), anchor,
                                    default_histogram_grid(anchor), clean)

    @pytest.mark.parametrize("metric, kind", _WRONG_DIM_CASES)
    def test_rejects_wrong_dimension(self, anchor, metric, kind):
        wrong = sample(standard_normal_spec(2), 1000, seed=9)
        clean = sample(anchor, 1000, seed=10)
        with pytest.raises(DimensionMismatch):
            _DIM_CHECKED[metric](wrong if kind == "batch" else wrong.points, anchor,
                                 default_histogram_grid(anchor), clean)


class TestConvergenceSweep:
    @pytest.mark.parametrize("axis, bad", [
        ("N", math.inf), ("N", math.nan), ("N", 8.5), ("N", 0.0), ("N", -0.1),
        ("epsilon0", math.inf), ("epsilon0", math.nan), ("epsilon0", 0.0),
        ("epsilon0", -0.1),
    ])
    def test_rejects_bad_value_before_any_run(self, anchor, monkeypatch, axis, bad):
        monkeypatch.setattr(gmdiff.metrics, "run_sampler", lambda *args, **kwargs:
                            pytest.fail("a sampler ran before the values were checked"))
        with pytest.raises(ValueError, match="sweep values must be finite"):
            convergence_sweep(anchor, "ei", axis, [16.0, 32.0, bad, 64.0],
                              100, seed=1, T=2.0, fixed_N=16)


class TestSpectralNorms:
    @given(_ENTRY, _ENTRY, _ENTRY, st.integers(-150, 150))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_2x2_matches_eigvalsh(self, a, b, c, exponent):
        mats = np.array([[[a, b], [b, c]]]) * 10.0 ** exponent
        np.testing.assert_allclose(spectral_norms(mats), _eigvalsh_norms(mats),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("mat", [
        [[3.0, 0.0], [0.0, -5.0]],          # b = 0
        [[2.0, 0.7], [0.7, 2.0]],           # a = c
        [[-4.0, 1.5], [1.5, -1.0]],         # negative definite
        [[1.0, 1e-9], [1e-9, -1.0]],        # a + c = 0
    ])
    def test_closed_form_2x2_special_cases(self, mat, scale):
        mats = np.array([mat]) * scale
        np.testing.assert_allclose(spectral_norms(mats), _eigvalsh_norms(mats),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions_are_eigvalsh_bitwise(self, d):
        spec = make_random_spec(d, 5, seed=72 + d)
        hess = score_jacobian(spec, sample(spec, 500, seed=19).points)
        np.testing.assert_array_equal(spectral_norms(hess), _eigvalsh_norms(hess))

    def test_single_matrix(self):
        assert spectral_norms(np.array([[2.0, 0.0], [0.0, -3.0]])).tolist() == [3.0]


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = [64.0, 128.0, 256.0, 512.0]
        ys = [10.0 / x for x in xs]
        slope, hw = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert hw == pytest.approx(0.0, abs=1e-10)

    def test_constant_metric_slope_zero(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [3.0, 3.01, 2.99, 3.0, 3.005]
        slope, hw = fit_loglog_slope(xs, ys)
        assert abs(slope) <= hw + 1e-3

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_needs_spread_in_x(self):
        with pytest.raises(ValueError, match="two distinct x values"):
            fit_loglog_slope([8.0, 8.0, 8.0, 8.0], [1.0, 2.0, 3.0, 4.0])

"""Working-set bounds: the pointwise mixture functions, the histogram
reference quadrature, the Jacobian spectral probe and the sample CSV writer
and reader work in fixed-size blocks, so the memory they take beyond their
output grows neither with the number of points nor, for the mixture
functions, with the dimension. The moment diagnostics take O(n d), never
an (n, d, d) array, and the forward check of `gmdiff verify mixture` keeps
no draw beside the pushed points.

Peaks are the tracemalloc high-water mark of allocations made during the
call (numpy reports its array buffers to tracemalloc); the input points are
allocated before tracing starts.
"""

import tracemalloc

import numpy as np
import pytest

from gmdiff import calibrate_region, lipschitz_suite, random_spec, standard_normal_spec
from gmdiff.metrics import (
    default_histogram_grid,
    jacobian_spectral_probe,
    moment_diagnostics,
    reference_cell_masses,
)
from gmdiff.mixture import density, sample_array, score, score_jacobian
from gmdiff.samples import SampleBatch
from gmdiff.verify import mixture_suite

MB = 1 << 20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def spec_d2_k5():
    spec = lipschitz_suite()[5]
    assert (spec.dim, spec.k) == (2, 5)
    return spec


@pytest.mark.parametrize("fn", [density, score, score_jacobian],
                         ids=["density", "score", "score_jacobian"])
def test_pointwise_peak_is_output_plus_bounded_blocks(spec_d2_k5, fn):
    pts = np.random.default_rng(3).normal(scale=3.0, size=(200000, 2))
    out, peak = traced_peak(fn, spec_d2_k5, pts)
    assert out.shape[0] == 200000
    assert peak < out.nbytes + 8 * MB, f"peak {peak / MB:.1f} MB, output {out.nbytes / MB:.1f} MB"


def test_score_peak_at_high_dimension():
    # blocks of 2**16 // (k d) points: 32 points here, where 8192-point
    # blocks made (k, d, block) temporaries of 131 MB each
    spec = random_spec(400, 5, np.random.default_rng(400))
    pts = np.random.default_rng(3).normal(size=(8192, 400))
    out, peak = traced_peak(score, spec, pts)
    assert out.shape == (8192, 400)
    assert peak < out.nbytes + 8 * MB, f"peak {peak / MB:.1f} MB, output {out.nbytes / MB:.1f} MB"


def test_reference_cell_masses_peak_on_default_grid(spec_d2_k5):
    grid = default_histogram_grid(spec_d2_k5)
    assert list(grid.bins) == [200, 200]
    (masses, _), peak = traced_peak(reference_cell_masses, spec_d2_k5, grid)
    assert masses.shape == (200, 200)
    assert peak < 16 * MB, f"peak {peak / MB:.1f} MB"


def test_moment_diagnostics_peak_has_no_n_d_d_product():
    # the (400, 100, 100) product of the covariance standard errors is 32 MB,
    # and its std takes a second array of that size
    pts = np.random.default_rng(3).normal(size=(400, 100))
    diag, peak = traced_peak(moment_diagnostics, pts, standard_normal_spec(100))
    assert diag.cov_z.shape == (100, 100)
    assert peak < 8 * MB, f"peak {peak / MB:.1f} MB"


def test_spectral_probe_peak_is_bounded_blocks():
    # 2**20 Jacobian entries (8 MB) per block, which eigvalsh copies; one
    # (n, 64, 64) stack of all the passing points is 31 MB, and eigvalsh
    # copied that too
    spec = random_spec(64, 3, np.random.default_rng(64))
    rng = np.random.default_rng(1)
    params = calibrate_region(spec, SampleBatch(points=sample_array(spec, 1000, rng), meta={}))
    pts = sample_array(spec, 1000, rng)
    probe, peak = traced_peak(jacobian_spectral_probe, spec, pts, params)
    assert probe.n_passing > 900
    assert peak < 24 * MB, f"peak {peak / MB:.1f} MB"


def test_mixture_suite_peak_keeps_only_the_pushed_points():
    # 3.05 MB per (20000, 20) array: the pushed points, the reference-centred
    # copy and a row of products with its std temporaries peak at 4.3 arrays;
    # the draw x0 and the mean-centred copy held beside them made 6.3
    pts_nbytes = 20000 * 20 * 8
    results, peak = traced_peak(mixture_suite, standard_normal_spec(20), 1.5, 20000, 1)
    assert [r.name for r in results] == ["forward_mc_moments_at_t=1.5"]
    assert peak < 5 * pts_nbytes, f"peak {peak / MB:.1f} MB"


@pytest.fixture
def batch_200000x2():
    return SampleBatch(points=np.random.default_rng(3).normal(size=(200000, 2)), meta={"seed": 3})


def test_sample_csv_write_peak(tmp_path, batch_200000x2):
    _, peak = traced_peak(batch_200000x2.to_csv, tmp_path / "samples.csv")
    assert peak < 2 * MB, f"peak {peak / MB:.1f} MB"


def test_sample_csv_read_peak(tmp_path, batch_200000x2):
    csv = tmp_path / "samples.csv"
    batch_200000x2.to_csv(csv)
    loaded, peak = traced_peak(SampleBatch.from_csv, csv)
    pts = batch_200000x2.points
    assert loaded.points.tobytes() == pts.tobytes()
    # joining the blocks holds the points twice
    assert peak < 2 * pts.nbytes + 2 * MB, f"peak {peak / MB:.1f} MB"

"""Empirical distances and diagnostics: histogram TV/KL, Monte-Carlo KL,
moment checks, a Jacobian spectral probe, and convergence sweeps.

Histogram estimators are limited to d <= 3; density references are
integrated per cell with a 4-point midpoint rule per axis (peaked
components bias a center-value rule noticeably at a few hundred bins).
The sub-points form a product mesh, so the reference density is built
from per-axis quadratic-form terms without a point array, and its
components are summed in linear space rather than by log-sum-exp: a term
can only overflow where the mixture density itself does, and a sub-point
where every term underflows gets 0, as exp(log_density) gives there.
Mass falling outside the grid is accounted as one extra cell. Grid bounds
and sample points must be finite.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import ConditionParams, region_mask, second_moment
from .errors import (
    DimensionMismatch,
    DimensionTooHigh,
    NonFiniteParameter,
    NoPointsInRegion,
)
from .forward import marginal_at
from .mixture import (
    GmmSpec,
    _mesh_density,
    log_density,
    mixture_cov,
    mixture_mean,
    sample_array,
    score_jacobian,
)
from .samples import SampleBatch
from .schedules import check_grid_args, uniform_grid
from .solvers import check_epsilon0, make_score_model, run_sampler

_REF_CLAMP = 1e-12
_MIDPOINTS_PER_AXIS = 4
# sub-points per mesh slab: its two density buffers take 2 MB each
_MESH_SLAB = 1 << 18


@dataclass(frozen=True, eq=False)
class HistogramGrid:
    """Axis-aligned binning of a box in dimension d <= 3."""

    lo: np.ndarray
    hi: np.ndarray
    bins: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        bins = np.atleast_1d(np.asarray(self.bins, dtype=float))
        if not (lo.shape == hi.shape == bins.shape):
            raise DimensionMismatch("lo, hi and bins must have matching shapes")
        if lo.shape[0] > 3:
            raise DimensionTooHigh("histogram grids support at most 3 dimensions")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NonFiniteParameter("grid bounds lo and hi must be finite")
        if np.any(hi <= lo):
            raise ValueError("each axis needs lo < hi")
        with np.errstate(over="ignore"):
            if not np.isfinite(hi - lo).all():
                # linspace edges and the bin arithmetic would be NaN
                raise ValueError("each axis needs a finite width hi - lo")
        if not np.isfinite(bins).all():
            raise NonFiniteParameter("bin counts must be finite")
        if np.any(bins != np.floor(bins)) or np.any(bins >= 2.0**63):
            raise ValueError(f"bin counts must be integers below 2^63, got {bins.tolist()}")
        if np.any(bins < 10):
            raise ValueError("need at least 10 bins per axis")
        bins = bins.astype(int)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bins", bins)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def edges(self) -> list[np.ndarray]:
        return [np.linspace(self.lo[a], self.hi[a], self.bins[a] + 1)
                for a in range(self.dim)]

    @property
    def cell_volume(self) -> float:
        return float(np.prod((self.hi - self.lo) / self.bins))


def default_histogram_grid(spec: GmmSpec, bins: int = 200) -> HistogramGrid:
    """A grid covering every component mean plus 6 marginal deviations."""
    sd = np.sqrt(np.diagonal(spec.covs, axis1=1, axis2=2))   # (k, d)
    lo = (spec.means - 6.0 * sd).min(axis=0)
    hi = (spec.means + 6.0 * sd).max(axis=0)
    return HistogramGrid(lo=lo, hi=hi, bins=np.full(spec.dim, bins))


class Estimate(NamedTuple):
    value: float
    stderr: float


class KlHistogramResult(NamedTuple):
    value: float
    stderr: float
    clamped_cells: int


class SpectralProbeResult(NamedTuple):
    max_norm: float
    n_passing: int


def _batch_points(samples, dim: int) -> np.ndarray:
    """The (n, dim) points of a SampleBatch, or of an array checked as one
    (EmptyBatch, NonFiniteParameter); DimensionMismatch for another dim."""
    if not isinstance(samples, SampleBatch):
        samples = SampleBatch(points=samples)
    if samples.dim != dim:
        raise DimensionMismatch(f"samples have dim {samples.dim}, expected {dim}")
    return samples.points


def _sample_cell_masses(pts: np.ndarray, grid: HistogramGrid) -> tuple[np.ndarray, float]:
    """Normalized histogram over grid cells plus the out-of-grid fraction.

    The counts are np.histogramdd(pts, bins=grid.edges)'s, found without
    its general per-axis searchsorted: the grid is uniform, so arithmetic
    estimates each bin, and only the estimates that fail the test against
    the edges themselves are searched. Index j on an axis counts the edges
    <= x, so 0 and bins + 1 are the outliers. The last edge is moved up one
    ulp, which closes the last bin on the right as histogramdd does.
    """
    n = pts.shape[0]
    flat = 0
    for a, edges in enumerate(grid.edges):
        bins = int(grid.bins[a])
        edges[-1] = np.nextafter(edges[-1], np.inf)
        x = pts[:, a]
        est = np.floor((x - grid.lo[a]) * (bins / (grid.hi[a] - grid.lo[a])) + 1.0)
        j = np.clip(est, 0, bins + 1, out=est).astype(np.intp)
        bounds = np.concatenate(([-np.inf], edges, [np.inf]))
        bad = (x < bounds[j]) | (x >= bounds[j + 1])
        if bad.any():
            j[bad] = np.searchsorted(edges, x[bad], side="right")
        flat = flat * (bins + 2) + j
    shape = tuple(int(b) + 2 for b in grid.bins)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    masses = counts[(slice(1, -1),) * grid.dim] / n
    return masses, float(1.0 - masses.sum())


def reference_cell_masses(spec: GmmSpec, grid: HistogramGrid) -> tuple[np.ndarray, float]:
    """Per-cell probability mass of the mixture, by midpoint quadrature with
    4 sub-points per axis, plus the mass outside the grid.

    The mesh is evaluated in slabs of whole cells, at most _MESH_SLAB
    sub-points each, so memory does not grow with the cell count. A slab
    fixes the axes before a split axis, takes a run of bins on it and
    every bin after it, so it is the product of one sub-point vector per
    axis and its density comes from mixture._mesh_density without a point
    array.
    """
    if spec.dim != grid.dim:
        raise DimensionMismatch(f"spec dim {spec.dim} != grid dim {grid.dim}")
    m, d = _MIDPOINTS_PER_AXIS, grid.dim
    # per axis, the (m, bins) sub-point coordinates, sub-point-major:
    # averaging over an outer axis of length m adds contiguous rows, about
    # 5x faster than reducing an innermost axis of length m
    axes = []
    for a in range(d):
        width = (grid.hi[a] - grid.lo[a]) / grid.bins[a]
        offsets = (np.arange(m) + 0.5) / m * width
        starts = grid.lo[a] + np.arange(grid.bins[a]) * width
        axes.append(offsets[:, None] + starts[None, :])
    bins = [int(b) for b in grid.bins]
    split = 0
    while split < d - 1 and m ** d * math.prod(bins[split + 1:]) > _MESH_SLAB:
        split += 1
    run = max(1, _MESH_SLAB // (m ** d * math.prod(bins[split + 1:])))
    masses = np.empty(bins)
    for prefix in np.ndindex(*bins[:split]):
        for lo in range(0, bins[split], run):
            parts = ([axes[a][:, i:i + 1] for a, i in enumerate(prefix)]
                     + [axes[split][:, lo:lo + run]] + axes[split + 1:])
            dens = _mesh_density(spec, [p.ravel() for p in parts])
            dens = dens.reshape([n for p in parts for n in p.shape])
            # average the m sub-points on every axis, last axis first
            for a in reversed(range(d)):
                dens = dens.mean(axis=2 * a)
            masses[prefix + (slice(lo, lo + run),)] = dens.reshape(dens.shape[split:])
    masses *= grid.cell_volume
    return masses, float(max(0.0, 1.0 - masses.sum()))


def _resolve_reference(reference, grid: HistogramGrid) -> tuple[np.ndarray, float]:
    if isinstance(reference, GmmSpec):
        return reference_cell_masses(reference, grid)
    return _sample_cell_masses(_batch_points(reference, grid.dim), grid)


def _multinomial_se(weights: np.ndarray, cell_values: np.ndarray, n: int) -> float:
    """Delta-method standard error of sum_c weights_c * value_c for
    multinomial cell weights estimated from n draws."""
    mean = float((weights * cell_values).sum())
    second = float((weights * cell_values ** 2).sum())
    var = max(0.0, second - mean ** 2) / n
    return math.sqrt(var)


def tv_histogram(samples, reference, grid: HistogramGrid) -> float:
    """Total-variation estimate 0.5 * sum |p_hat - p_ref| over cells, with
    out-of-grid mass treated as one extra cell. Symmetric when both sides
    are sample batches; always in [0, 1]."""
    p_hat, p_hat_out = _sample_cell_masses(_batch_points(samples, grid.dim), grid)
    p_ref, p_ref_out = _resolve_reference(reference, grid)
    tv = 0.5 * (np.abs(p_hat - p_ref).sum() + abs(p_hat_out - p_ref_out))
    return float(min(1.0, tv))


def kl_histogram(samples, reference: GmmSpec, grid: HistogramGrid) -> KlHistogramResult:
    """Binned KL estimate sum p_hat log(p_hat / p_ref) over occupied cells.

    Reference cells with mass below 1e-12 are clamped to 1e-12 and counted,
    keeping the estimate finite and auditable on support mismatch.
    """
    pts = _batch_points(samples, grid.dim)
    p_hat, _ = _sample_cell_masses(pts, grid)
    p_ref, _ = _resolve_reference(reference, grid)
    occupied = p_hat > 0.0
    ref = p_ref[occupied]
    clamped = int(np.count_nonzero(ref < _REF_CLAMP))
    ref = np.maximum(ref, _REF_CLAMP)
    hat = p_hat[occupied]
    logs = np.log(hat / ref)
    value = float((hat * logs).sum())
    flat_vals = np.zeros(p_hat.size)
    flat_vals[occupied.ravel()] = logs + 1.0
    se = _multinomial_se(p_hat.ravel(), flat_vals, pts.shape[0])
    return KlHistogramResult(value=value, stderr=se, clamped_cells=clamped)


def kl_mc(p: GmmSpec, q: GmmSpec, n: int, seed: int) -> Estimate:
    """Monte-Carlo KL(p || q): mean of log p - log q over n draws from p,
    with its standard error."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    rng = np.random.default_rng(seed)
    x = sample_array(p, n, rng)
    vals = np.asarray(log_density(p, x)) - np.asarray(log_density(q, x))
    return Estimate(value=float(vals.mean()),
                    stderr=float(vals.std(ddof=1) / math.sqrt(n)))


@dataclass(frozen=True, eq=False)
class MomentDiagnostics:
    """Empirical first/second moments with z-scores against the reference."""

    mean: np.ndarray
    cov: np.ndarray
    second_moment: float
    mean_z: np.ndarray
    cov_z: np.ndarray
    second_moment_z: float

    @property
    def max_abs_z(self) -> float:
        return float(max(np.abs(self.mean_z).max(),
                         np.abs(self.cov_z).max(),
                         abs(self.second_moment_z)))


def moment_diagnostics(samples, reference: GmmSpec) -> MomentDiagnostics:
    """Compare sample mean, covariance and E|x|^2 against the mixture's
    analytic values, reporting per-entry z-scores."""
    pts = _batch_points(samples, reference.dim)
    n = pts.shape[0]
    emp_mean = pts.mean(axis=0)
    centered = pts - emp_mean
    emp_cov = centered.T @ centered / (n - 1)
    sq = np.sum(pts ** 2, axis=1)
    emp_m2 = float(sq.mean())

    ref_mean = mixture_mean(reference)
    ref_cov = mixture_cov(reference)
    ref_m2 = second_moment(reference).M2

    mean_se = pts.std(axis=0, ddof=1) / math.sqrt(n)
    mean_z = (emp_mean - ref_mean) / mean_se
    ref_centered = pts - ref_mean
    # one row of products at a time: (n, d) temporaries, never (n, d, d)
    cov_se = np.stack([(ref_centered[:, a:a + 1] * ref_centered).std(axis=0, ddof=1)
                       for a in range(pts.shape[1])]) / math.sqrt(n)
    cov_z = (emp_cov - ref_cov) / cov_se
    m2_se = sq.std(ddof=1) / math.sqrt(n)
    m2_z = (emp_m2 - ref_m2) / m2_se
    return MomentDiagnostics(mean=emp_mean, cov=emp_cov, second_moment=emp_m2,
                             mean_z=mean_z, cov_z=cov_z, second_moment_z=float(m2_z))


def spectral_norms(matrices: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each symmetric matrix, reading its lower
    triangle as eigvalsh does.

    d = 1 is |a|, bitwise the 1x1 eigvalsh. d = 2 is the closed form
    |(a + c)/2| + hypot((a - c)/2, b) for [[a, b], [b, c]], within 4e-16
    relative of eigvalsh at about a tenth of its cost on a batch. Larger d
    use a batched eigvalsh.
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    d = mats.shape[-1]
    if d == 1:
        return np.abs(mats[:, 0, 0])
    if d == 2:
        a, b, c = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
        return np.abs((a + c) / 2) + np.hypot((a - c) / 2, b)
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


def jacobian_spectral_probe(spec_t: GmmSpec, points, params: ConditionParams,
                            a_t=None) -> SpectralProbeResult:
    """Max spectral norm of the score Jacobian over region-passing points.

    Raises NoPointsInRegion when no probe point satisfies the region
    clauses for the given parameters. ``a_t`` is ignored (the region reads
    spec_t alone); the benchmark still passes it until ROADMAP item 1.
    """
    pts = _batch_points(points, spec_t.dim)
    mask = region_mask(spec_t, pts, params)
    passing = pts[mask]
    if passing.shape[0] == 0:
        raise NoPointsInRegion("no probe points satisfy the region clauses")
    # blocks of at most 2^20 Jacobian entries: one block at d <= 2
    step = max(1, 2**20 // spec_t.dim**2)
    norms = [spectral_norms(score_jacobian(spec_t, passing[i:i + step])).max()
             for i in range(0, passing.shape[0], step)]
    return SpectralProbeResult(max_norm=float(np.max(norms)), n_passing=int(passing.shape[0]))


class SweepRow(NamedTuple):
    axis_value: float
    metric: str
    value: float
    stderr: float


@dataclass(frozen=True)
class SweepResult:
    """Per-configuration metric values plus the fitted log-log slope."""

    rows: tuple[SweepRow, ...]
    slope: float
    slope_half_width: float


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """OLS slope of log y on log x with a 2-sigma half-width from residuals."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError("slope fit needs at least 4 points")
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    if lx.min() == lx.max():
        raise ValueError("log-log fit needs at least two distinct x values")
    lx_c = lx - lx.mean()
    slope = float((lx_c @ (ly - ly.mean())) / (lx_c @ lx_c))
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (intercept + slope * lx)
    dof = len(xs) - 2
    sigma2 = float(resid @ resid) / dof
    se = math.sqrt(sigma2 / float(lx_c @ lx_c))
    return slope, 2.0 * se


def convergence_sweep(spec0: GmmSpec, scheme: str, axis: str,
                      values: Sequence[float], n: int, seed: int,
                      T: float = 8.0, delta: float = 0.0,
                      fixed_N: int = 8192, fixed_epsilon0: float = 0.0,
                      bins: int = 200, threads: int = 1) -> SweepResult:
    """Run the sampler across a parameter axis and fit the log-log trend.

    axis "N" sweeps the uniform grid resolution (integers >= 1) at fixed
    score error; axis "epsilon0" sweeps the score perturbation (> 0) at fixed
    N. The values (at least two distinct ones) and the fixed N and epsilon0,
    read or not, are checked before any run. The histogram KL is taken
    against the marginal at time delta (the target the sampler is actually
    aiming for), on that marginal's default histogram grid with ``bins``
    cells per axis.
    """
    if axis not in ("N", "epsilon0"):
        raise ValueError(f"axis must be 'N' or 'epsilon0', got {axis!r}")
    if len(values) < 4:
        raise ValueError("sweep needs at least 4 values")
    vals = np.asarray(values, dtype=float)
    if axis == "N":
        ok, rule = (vals >= 1) & (vals == np.floor(vals)), "integers >= 1"
    else:
        ok, rule = vals > 0, "positive"
    if not np.all(ok & np.isfinite(vals)):
        raise ValueError(f"{axis} sweep values must be finite {rule}, got {list(values)}")
    if vals.min() == vals.max():
        raise ValueError(f"{axis} sweep needs at least two distinct values, got {list(values)}")
    check_grid_args(T, fixed_N, delta)
    check_epsilon0(fixed_epsilon0)
    reference = marginal_at(spec0, delta)
    grid = default_histogram_grid(reference, bins)
    children = np.random.SeedSequence(seed).spawn(len(values))

    def run_one(idx: int) -> SweepRow:
        value = values[idx]
        run_seed = int(children[idx].generate_state(1)[0])
        epsilon0, N = (fixed_epsilon0, int(value)) if axis == "N" else (value, fixed_N)
        model = make_score_model(spec0, "perturbed", epsilon0, seed=seed)
        batch = run_sampler(model, uniform_grid(T, N, delta), scheme, n, run_seed)
        res = kl_histogram(batch, reference, grid)
        return SweepRow(float(value), "kl_histogram", res.value, res.stderr)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, range(len(values))))
    else:
        rows = [run_one(i) for i in range(len(values))]
    slope, half_width = fit_loglog_slope([r.axis_value for r in rows],
                                         [max(r.value, 1e-300) for r in rows])
    return SweepResult(rows=tuple(rows), slope=slope, slope_half_width=half_width)

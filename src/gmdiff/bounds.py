"""Smoothness quantities of a mixture: score Lipschitz constant, second
moment, exact and upper-bound KL divergences, and the condition region.

The Lipschitz constant is the closed form

    L = 1/s_min + (2 R^2)/(g^2 s_min^2)
        * (1/((2 pi)^d D) + 1/((2 pi)^{d/2} sqrt(D))) * exp(-b^2/(2 s_max))

with s_min/s_max the eigenvalue extremes over component covariances, D the
smallest component determinant, and (R, b, g) the region parameters. The
(2 pi)^{-d} factor underflows in double precision near d ~ 250, and so does
the density floor g near d ~ 500, so the floor is kept as log g, the
second term is assembled in log space and L is reported together with its
natural log.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteParameter,
    NotPositiveDefinite,
    ParamsOutOfRange,
    TooFewSamples,
)
from .forward import marginal_at
from .mixture import GmmSpec, _block_points, _check_points, log_density, sample
from .samples import SampleBatch

_BETA_GAMMA_CAP = 0.0999  # keeps beta, gamma strictly below the 0.1 range limit
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ConditionParams:
    """Region parameters: radius band [beta, R] around every mean a_t mu_i of
    the marginal plus the log of a density floor gamma, which underflows in
    linear space at high d. Ranges: R >= 1, 0 < beta < 0.1, 0 < gamma < 0.1."""

    R: float
    beta: float
    log_gamma: float

    def __post_init__(self):
        if not (self.R >= 1.0):
            raise ParamsOutOfRange(f"R must be >= 1, got {self.R!r}")
        if not (0.0 < self.beta < 0.1):
            raise ParamsOutOfRange(f"beta must be in (0, 0.1), got {self.beta!r}")
        if not (-math.inf < self.log_gamma < math.log(0.1)):
            raise ParamsOutOfRange(
                f"log_gamma must be in (-inf, log 0.1), got {self.log_gamma!r}")


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue and determinant extremes over the component covariances,
    plus the largest squared mean norm.

    ``log_det_min`` is the log of the smallest determinant, taken from the
    log-determinants; ``det_min``, its exp, underflows to 0 at high d
    (0.01 I at d = 400 has determinant e^-1842), and is inf past the range.
    """

    sigma_min: float
    sigma_max: float
    log_det_min: float
    mu_max: float

    @property
    def det_min(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_det_min))


class LipschitzResult(NamedTuple):
    value: float
    log_value: float


class SecondMoment(NamedTuple):
    m2: float
    M2: float
    component_max: float


class KlUpperBound(NamedTuple):
    bound: float
    convexity_bound: float


def spectral_summary(spec: GmmSpec) -> SpectralSummary:
    """Eigen-extrema, determinant minimum, and mean-norm maximum over
    components, read off the spec's cached eigenvalues."""
    return SpectralSummary(
        sigma_min=float(spec.eigvals[:, 0].min()),
        sigma_max=float(spec.eigvals[:, -1].max()),
        log_det_min=float(spec.log_dets.min()),
        mu_max=float(max(np.sum(spec.means ** 2, axis=1))),
    )


def lipschitz_constant(summary: SpectralSummary, params: ConditionParams,
                       d: int) -> LipschitzResult:
    """Closed-form score Lipschitz constant for the summarized mixture.

    Assembled in log space; returns both the value and its natural log
    (the value itself can underflow toward 1/sigma_min for large d, and is
    inf when it exceeds the double range while the log stays finite).
    """
    s_min, s_max = summary.sigma_min, summary.sigma_max
    log_det_min = summary.log_det_min
    log2pi = math.log(2.0 * math.pi)
    # the two (2 pi)-power terms, combined with logaddexp
    term_full = -d * log2pi - log_det_min
    term_half = -0.5 * d * log2pi - 0.5 * log_det_min
    log_pair = np.logaddexp(term_full, term_half)
    log_second = (math.log(2.0) + 2.0 * math.log(params.R)
                  - 2.0 * params.log_gamma - 2.0 * math.log(s_min)
                  + log_pair - params.beta ** 2 / (2.0 * s_max))
    log_first = -math.log(s_min)
    log_value = float(np.logaddexp(log_first, log_second))
    if log_value > LOG_FLOAT_MAX:
        value = math.inf
    else:
        value = math.exp(log_first) + math.exp(log_second)
    return LipschitzResult(value=value, log_value=log_value)


def second_moment(spec: GmmSpec) -> SecondMoment:
    """M2 = sum_i alpha_i (|mu_i|^2 + tr Sigma_i); m2 = sqrt(M2).

    Also reports the per-component maximum, which M2 never exceeds.
    """
    per = np.sum(spec.means ** 2, axis=1) + np.trace(spec.covs, axis1=1, axis2=2)
    M2 = float(spec.weights @ per)
    comp_max = float(per.max())
    assert M2 <= comp_max + 1e-12 * abs(comp_max)
    return SecondMoment(m2=math.sqrt(M2), M2=M2, component_max=comp_max)


def kl_gaussian_exact(mu1, cov1, mu2, cov2) -> float:
    """Exact KL between two Gaussians:

    -1/2 log(det S1/det S2) + 1/2 tr(S2^{-1} S1)
    + 1/2 (m1-m2)^T S2^{-1} (m1-m2) - d/2
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    d = mu1.shape[0]
    if mu2.shape != (d,) or cov1.shape != (d, d) or cov2.shape != (d, d):
        raise DimensionMismatch("all inputs must share one dimension d")
    try:
        chol1 = np.linalg.cholesky(cov1)
        chol2 = np.linalg.cholesky(cov2)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("both covariances must be positive definite") from None
    logdet1 = 2.0 * np.sum(np.log(np.diag(chol1)))
    logdet2 = 2.0 * np.sum(np.log(np.diag(chol2)))
    # one solve against [L1 | m1 - m2]: the squared Frobenius norm of
    # L2^{-1} L1 is tr(S2^{-1} S1), and the last column's squared norm is
    # the Mahalanobis term
    sol = np.linalg.solve(chol2, np.column_stack([chol1, mu1 - mu2]))
    kl = 0.5 * (-(logdet1 - logdet2) + np.sum(sol * sol) - d)
    return float(max(kl, 0.0))


def kl_to_standard_upper(spec: GmmSpec) -> KlUpperBound:
    """Two upper bounds on KL(mixture || standard normal), both read off the
    cached eigendecomposition: the closed form

        1/2 (-log det_min + d sigma_max + mu_max - d),

    and the tighter mixture-convexity bound sum_i alpha_i KL(component_i ||
    standard normal), each term 1/2 (sum lam_i + |mu_i|^2 - d - log det
    Sigma_i) clamped at 0 as kl_gaussian_exact clamps. The closed form
    always dominates the convexity bound.
    """
    d = spec.dim
    summ = spectral_summary(spec)
    per = 0.5 * (spec.eigvals.sum(axis=1) + np.sum(spec.means ** 2, axis=1) - d - spec.log_dets)
    return KlUpperBound(
        bound=float(0.5 * (-summ.log_det_min + d * summ.sigma_max + summ.mu_max - d)),
        convexity_bound=float(spec.weights @ np.maximum(per, 0.0)))


def _mean_distances(spec_t: GmmSpec, x) -> np.ndarray:
    """|x - a_t mu_i| to the means of the marginal spec_t, per component and
    point: (k, n), or (k,) for one point; inf past the double range.

    The result and the differences, (k, d, block), are component-major and
    taken in point blocks, so no (n, k, d) array is built and reductions
    over the components run along contiguous rows of length n.
    """
    pts, single = _check_points(spec_t, x)
    centers = spec_t.means[:, :, None]
    out = np.empty((spec_t.k, pts.shape[0]))
    block = _block_points(spec_t)
    with np.errstate(over="ignore"):
        for lo in range(0, pts.shape[0], block):
            diff = np.ascontiguousarray(pts[lo:lo + block].T) - centers
            np.sqrt(np.add.reduce(diff * diff, axis=1), out=out[:, lo:lo + block])
    return out[:, 0] if single else out


def region_mask(spec_t: GmmSpec, points: np.ndarray, params: ConditionParams) -> np.ndarray:
    """Region membership of each point of an (n, d) array (or of one point):
    beta <= |x - a_t mu_i| <= R for every mean a_t mu_i of the marginal
    spec_t and log p_t(x) >= log gamma. A NaN point fails every clause."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists = _mean_distances(spec_t, pts)
    ok = (dists >= params.beta).all(axis=0) & (dists <= params.R).all(axis=0)
    ok &= log_density(spec_t, pts) >= params.log_gamma
    return ok


def _percentile(a: np.ndarray, q: float) -> float:
    """np.percentile(a, q) of a 1-D array, bit for bit (numpy's default
    linear method): order statistics i and i + 1 around the virtual index
    (n - 1) q / 100, interpolated by numpy's own rule.

    numpy partitions on both order statistics at once, and a partition on
    two kth values runs about 8x slower than on one (20000 values: 264 us
    against 31 us, slower than a full sort). So this partitions on i alone
    and takes order statistic i + 1 as the minimum of the part above it.
    """
    n = a.shape[0]
    v = (n - 1) * (q / 100.0)
    if v >= n - 1:
        # numpy reads the maximum on both sides, at weight v + 1
        lo = hi = a.max()
        t = v + 1.0
    else:
        i = math.floor(v)
        part = np.partition(a, i)
        lo, hi, t = part[i], part[i + 1:].min(), v - i
    diff = hi - lo
    return float(hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t)


def calibrate_region(spec_t: GmmSpec, samples: SampleBatch) -> ConditionParams:
    """Pick (R, beta, log gamma) from sample percentiles so that the bulk
    of the mass satisfies the region clauses, centred on spec_t's means:

    R         = 99th percentile of max_i |x - a_t mu_i|, clamped >= 1;
    beta      = 1st percentile of min_i |x - a_t mu_i|, capped below 0.1;
    log gamma = 1st percentile of the log density, capped below log 0.1.

    A percentile past the double range raises NonFiniteParameter.
    """
    pts = samples.points
    if pts.shape[0] < 1000:
        raise TooFewSamples(f"need >= 1000 samples to calibrate, got {pts.shape[0]}")
    dists = _mean_distances(spec_t, pts)
    with np.errstate(invalid="ignore"):        # inf - inf is NaN, refused below
        top = _percentile(dists.max(axis=0), 99.0)
        low = _percentile(dists.min(axis=0), 1.0)
        log_p = _percentile(log_density(spec_t, pts), 1.0)
    if not all(map(math.isfinite, (top, low, log_p))):
        raise NonFiniteParameter("region calibration overflows the double range: "
                                 f"R, beta, log gamma percentiles {top}, {low}, {log_p}")
    beta = min(low, _BETA_GAMMA_CAP)
    if beta <= 0.0:
        beta = 1e-6
    return ConditionParams(R=max(1.0, top), beta=beta,
                           log_gamma=min(log_p, math.log(_BETA_GAMMA_CAP)))


@dataclass(frozen=True)
class BoundReport:
    """All smoothness quantities for one time slice, ready to serialize."""

    t: float
    L: float
    log_L: float
    m2: float
    M2: float
    kl_upper: float
    summary: SpectralSummary
    params: ConditionParams

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "L": self.L,
            "log_L": self.log_L,
            "m2": self.m2,
            "M2": self.M2,
            "kl_upper": self.kl_upper,
            "sigma_min": self.summary.sigma_min,
            "sigma_max": self.summary.sigma_max,
            "det_min": self.summary.det_min,
            "log_det_min": self.summary.log_det_min,
            "mu_max": self.summary.mu_max,
            "R": self.params.R,
            "beta": self.params.beta,
            "gamma": math.exp(self.params.log_gamma),    # 0.0 once it underflows
            "log_gamma": self.params.log_gamma,
        }


def bound_report(spec0: GmmSpec, t: float, calibration_samples: int = 20000,
                 seed: int = 0) -> BoundReport:
    """Assemble the full report at time t, calibrating (R, beta, log gamma) from
    fresh forward samples."""
    spec_t = marginal_at(spec0, t)
    params = calibrate_region(spec_t, sample(spec_t, calibration_samples, seed))
    summ = spectral_summary(spec_t)
    lip = lipschitz_constant(summ, params, spec0.dim)
    mom = second_moment(spec0)
    return BoundReport(t=t, L=lip.value, log_L=lip.log_value,
                       m2=mom.m2, M2=mom.M2, kl_upper=kl_to_standard_upper(spec0).bound,
                       summary=summ, params=params)

"""Named verification suites: score gradients, Lipschitz bound, mixture
pushforward, and solver sanity. Each check is a measured value against a threshold."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bound_report
from .forward import marginal_at, ou_coefficients
from .metrics import (
    default_histogram_grid,
    jacobian_spectral_probe,
    moment_diagnostics,
    tv_histogram,
)
from .mixture import (
    GmmSpec,
    log_density,
    responsibilities,
    sample,
    sample_array,
    score,
    score_jacobian,
)
from .schedules import uniform_grid
from .solvers import make_score_model, run_sampler

FD_STEP = 1e-5
SCORE_TOL = 1e-5
JACOBIAN_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    """Passes iff measured <= threshold: an infinite threshold passes, a NaN fails."""

    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold

    def to_dict(self) -> dict:
        return {"check": self.name, "measured": self.measured,
                "threshold": self.threshold, "passed": self.passed}


def fd_jacobian(func, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite difference of a function of a d-vector: the (m, d)
    Jacobian of a vector function, or the (d,) gradient of a scalar one."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        cols.append((func(x + e) - func(x - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), 1.0)
    return float(np.linalg.norm(approx - exact)) / scale


def score_suite(spec: GmmSpec, seed: int = 7) -> list[CheckResult]:
    """Finite-difference gradient/Hessian checks plus responsibility sums at
    40 points drawn from the spec itself."""
    rng = np.random.default_rng(seed)
    pts = sample_array(spec, 40, rng)
    worst_score = 0.0
    worst_jac = 0.0
    worst_resp = 0.0
    for x in pts:
        fd_s = fd_jacobian(lambda z: log_density(spec, z), x)
        worst_score = max(worst_score, _rel_err(fd_s, score(spec, x)))
        fd_h = fd_jacobian(lambda z: score(spec, z), x)
        worst_jac = max(worst_jac, _rel_err(fd_h, score_jacobian(spec, x)))
        worst_resp = max(worst_resp,
                         abs(float(responsibilities(spec, x).sum()) - 1.0))
    return [
        CheckResult("score_vs_finite_difference", worst_score, SCORE_TOL),
        CheckResult("jacobian_vs_finite_difference", worst_jac, JACOBIAN_TOL),
        CheckResult("responsibilities_sum_to_one", worst_resp, 1e-12),
    ]


def lipschitz_suite_checks(spec: GmmSpec, n_points: int = 10000,
                           seed: int = 11) -> list[CheckResult]:
    """At each t in {0, 0.5, 2}: take L and the region calibrated from
    n_points samples from bound_report, probe the score Jacobian over
    region-passing samples, and require max spectral norm <= L."""
    results = []
    for t in (0.0, 0.5, 2.0):
        report = bound_report(spec, t, calibration_samples=n_points, seed=seed)
        spec_t = marginal_at(spec, t)
        probe = jacobian_spectral_probe(spec_t, sample(spec_t, n_points, seed + 1),
                                        report.params)
        results.append(CheckResult(f"jacobian_norm_below_L_at_t={t}", probe.max_norm, report.L))
    return results


def _law_checks(points, target: GmmSpec, names: tuple[str, str], z_max: float,
                tv_max: float) -> list[CheckResult]:
    """Moment z-scores of the points against the target within z_max, and
    (d = 1) their 100-bin histogram TV within tv_max."""
    results = [CheckResult(names[0], moment_diagnostics(points, target).max_abs_z, z_max)]
    if target.dim == 1:
        tv = tv_histogram(points, target, default_histogram_grid(target, bins=100))
        results.append(CheckResult(names[1], tv, tv_max))
    return results


def mixture_suite(spec: GmmSpec, t: float = 1.5, n: int = 100000,
                  seed: int = 13) -> list[CheckResult]:
    """Forward Monte Carlo a_t x0 + b_t z against the closed-form marginal:
    moment z-scores within 4, and (d = 1) histogram TV below 0.02."""
    coeff = ou_coefficients(t)
    rng = np.random.default_rng(seed)
    x0 = sample_array(spec, n, rng)
    pushed = coeff.a * x0 + coeff.b * rng.standard_normal(x0.shape)
    return _law_checks(pushed, marginal_at(spec, t),
                       (f"forward_mc_moments_at_t={t}", f"forward_mc_tv_at_t={t}"), 4.0, 0.02)


def solver_suite(spec: GmmSpec, N: int = 512, n: int = 20000,
                 seed: int = 17) -> list[CheckResult]:
    """Run the exponential-integrator sampler to T = 6 with the exact score
    and check the output against the target moments (and 1D histogram TV)."""
    batch = run_sampler(make_score_model(spec), uniform_grid(6.0, N), "ei", n, seed)
    # discretization bias plus Monte Carlo noise; looser than the pure MC gate
    return _law_checks(batch, spec, ("solver_moments", "solver_tv"), 6.0, 0.05)


SUITES = {
    "score": score_suite,
    "lipschitz": lipschitz_suite_checks,
    "mixture": mixture_suite,
    "solver": solver_suite,
}

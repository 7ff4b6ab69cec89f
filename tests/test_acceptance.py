"""Acceptance suite: every release gate runs here at its pinned tolerance.

Each criterion is one test; the conftest hook prints a PASS/FAIL line with
the measured runtime after each one. Monte-Carlo checks use fixed seeds,
so the suite is deterministic end to end.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gmdiff import (
    default_histogram_grid,
    exp_decay_grid,
    kl_mc,
    kl_to_standard_upper,
    lipschitz_constant,
    make_score_model,
    marginal_at,
    run_predictor_corrector,
    run_sampler,
    sample,
    second_moment,
    spectral_summary,
    standard_mixture_1d,
    standard_normal_spec,
    step_ei,
    tv_histogram,
    uniform_grid,
    validate_spec,
)
from gmdiff.bounds import calibrate_region
from gmdiff.cli import main
from gmdiff.errors import StepBudgetViolated
from gmdiff.fileio import save_spec
from gmdiff.metrics import convergence_sweep, jacobian_spectral_probe, kl_histogram
from gmdiff.mixture import log_density, sample_array, score, score_jacobian
from gmdiff.suite import lipschitz_suite, random_spec
from gmdiff.verify import fd_jacobian, mixture_suite

ANCHOR = standard_mixture_1d()


def _rel_err(approx, exact):
    scale = max(float(np.linalg.norm(exact)), 1.0)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(exact))) / scale


def test_c01_score_and_jacobian_finite_difference_suite():
    """200 random (d, k, point) cases: analytic score within 1e-5 of the
    central difference of log-density, analytic Jacobian within 1e-4 of the
    difference of the score."""
    rng = np.random.default_rng(20250801)
    cases = [(d, k) for d in (1, 2, 5) for k in (1, 3, 8)]
    worst_score, worst_jac = 0.0, 0.0
    count = 0
    while count < 200:
        d, k = cases[count % len(cases)]
        spec = random_spec(d, k, rng, eig_range=(0.25, 4.0))
        x = sample_array(spec, 1, rng)[0]
        fd_s = fd_jacobian(lambda z: log_density(spec, z), x, step=1e-5)
        worst_score = max(worst_score, _rel_err(fd_s, score(spec, x)))
        fd_h = fd_jacobian(lambda z: score(spec, z), x, step=1e-5)
        worst_jac = max(worst_jac, _rel_err(fd_h, score_jacobian(spec, x)))
        count += 1
    assert worst_score <= 1e-5
    assert worst_jac <= 1e-4


def test_c02_mixture_preservation_under_forward_noising():
    """Forward Monte Carlo a_t x0 + b_t z against the closed-form marginal,
    through verify.mixture_suite: moments within 4 SE at t in {0.1, 1, 3},
    and 1D histogram TV <= 0.02 on 100 bins."""
    specs = [ANCHOR, random_spec(2, 3, np.random.default_rng(20250802))]
    for t in (0.1, 1.0, 3.0):
        for spec in specs:
            checks = mixture_suite(spec, t=t, n=100000,
                                   seed=[20250803, int(t * 10), spec.dim])
            assert len(checks) == (2 if spec.dim == 1 else 1)
            assert all(c.passed for c in checks), [c.to_dict() for c in checks]


def test_c03_lipschitz_bound_holds_on_region():
    """For the standard suite (d in {1,2}, k in {1,2,5}) and t in {0, 0.5, 2},
    the max Jacobian spectral norm over 1e4 region-passing sampled points
    never exceeds the closed-form constant. Zero violations allowed."""
    checked = 0
    for idx, spec in enumerate(lipschitz_suite(seed=2024)):
        for t in (0.0, 0.5, 2.0):
            spec_t = marginal_at(spec, t)
            calib = sample(spec_t, 10000, seed=910 + idx)
            params = calibrate_region(spec_t, calib)
            probe_pts = sample(spec_t, 10000, seed=3700 + idx)
            probe = jacobian_spectral_probe(spec_t, probe_pts, params)
            L = lipschitz_constant(spectral_summary(spec_t), params, spec.dim).value
            assert probe.max_norm <= L, (idx, t, probe.max_norm, L)
            assert probe.n_passing > 0
            checked += 1
    assert checked == 18


def test_c04_second_moment_analytic_vs_monte_carlo():
    """Analytic M2 against a 1e6-draw estimate within 4 SE, and the
    per-component maximum dominates M2 exactly."""
    spec = random_spec(2, 3, np.random.default_rng(20250804))
    mom = second_moment(spec)
    n = 1_000_000
    sq = np.sum(sample_array(spec, n, np.random.default_rng(20250805)) ** 2, axis=1)
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(float(sq.mean()) - mom.M2) <= 4.0 * se
    assert mom.M2 <= mom.component_max
    assert second_moment(standard_normal_spec(3)).M2 == pytest.approx(3.0)


def test_c05_kl_to_prior_upper_bound():
    """The closed-form bound dominates the Monte-Carlo KL on 10 random
    specs; the two equality cases are exact to 1e-12."""
    assert kl_to_standard_upper(standard_normal_spec(2)).bound == pytest.approx(0.0, abs=1e-12)
    mu = np.array([0.7, -1.2])
    shifted = validate_spec([(1.0, mu, np.eye(2))])
    assert kl_to_standard_upper(shifted).bound == pytest.approx(
        0.5 * float(mu @ mu), abs=1e-12)

    rng = np.random.default_rng(20250806)
    prior = standard_normal_spec(2)
    for trial in range(10):
        spec = random_spec(2, int(rng.integers(1, 5)), rng, mean_scale=1.5)
        est = kl_mc(spec, prior, 100000, seed=5100 + trial)
        assert est.value <= kl_to_standard_upper(spec).bound + 4.0 * est.stderr


def test_c06_solver_stationarity_on_standard_normal():
    """With the exact score of the standard normal, all four samplers keep
    the stationary law: mean within 4/sqrt(n), variance within 4 sqrt(2/n)."""
    n = 100000
    spec = standard_normal_spec(1)
    model = make_score_model(spec)
    mean_band = 4.0 / math.sqrt(n)
    var_band = 4.0 * math.sqrt(2.0 / n)
    outputs = {
        "em": run_sampler(model, uniform_grid(2.0, 512), "em", n, seed=601),
        "ei": run_sampler(model, uniform_grid(2.0, 512), "ei", n, seed=602),
        "dpom": run_predictor_corrector(model, T=2.0, h_pred=2.0 / 128,
                                        h_corr=0.01, corr_steps_per_node=2,
                                        variant="overdamped", n=n, seed=603),
        "dpum": run_predictor_corrector(model, T=2.0, h_pred=2.0 / 128,
                                        h_corr=0.01, corr_steps_per_node=2,
                                        variant="underdamped", n=n, seed=604),
    }
    for name, batch in outputs.items():
        mean = batch.points.mean(axis=0)
        var = batch.points.var(axis=0, ddof=1)
        assert np.all(np.abs(mean) <= mean_band), (name, mean)
        assert np.all(np.abs(var - 1.0) <= var_band), (name, var)


def test_c07_discretization_rate_slope():
    """KL against the data law decays with the uniform-grid resolution at a
    fitted log-log slope of -1 +- 0.35 (exponential-integrator scheme,
    T = 8, N from 64 to 4096)."""
    result = convergence_sweep(
        ANCHOR, "ei", "N", [64, 128, 256, 512, 1024, 2048, 4096],
        n=60000, seed=20250807, T=8.0)
    assert result.slope == pytest.approx(-1.0, abs=0.35), result.rows


def test_c08_score_error_floor_ratios():
    """Doubling the score error quadruples the KL floor: consecutive ratios
    for epsilon0 in {0.05, 0.1, 0.2} at N = 8192 stay within [2.8, 5.7].
    A matched epsilon0 = 0 run is subtracted to isolate the floor from
    discretization and binning bias."""
    grid_h = default_histogram_grid(ANCHOR, bins=100)
    grid = uniform_grid(8.0, 8192)
    kls = {}
    for eps in (0.0, 0.05, 0.1, 0.2):
        model = make_score_model(ANCHOR, "perturbed" if eps else "exact", eps, seed=31)
        batch = run_sampler(model, grid, "ei", 12000, seed=4000)
        kls[eps] = kl_histogram(batch, ANCHOR, grid_h).value
    floors = {eps: kls[eps] - kls[0.0] for eps in (0.05, 0.1, 0.2)}
    r1 = floors[0.1] / floors[0.05]
    r2 = floors[0.2] / floors[0.1]
    assert 2.8 <= r1 <= 5.7, (floors, r1)
    assert 2.8 <= r2 <= 5.7, (floors, r2)


def test_c09_exponential_integrator_closed_form():
    """Deterministic part against a 1e4-substep Euler oracle (rel err 1e-4)
    and the stochastic variance against e^{2h} - 1 within 4 MC SE."""
    rng = np.random.default_rng(20250808)
    for _ in range(5):
        y0 = rng.normal(size=(1, 2))
        s = rng.normal(size=(1, 2))
        h = float(rng.uniform(0.02, 0.5))
        m = 10000
        y = y0.copy()
        dt = h / m
        for _ in range(m):
            y = y + dt * (y + 2.0 * s)
        closed = step_ei(y0, h, s, np.zeros_like(y0))
        assert _rel_err(closed, y) <= 1e-4

    h, n = 0.3, 1_000_000
    draws = step_ei(np.zeros((n, 1)), h, np.zeros((n, 1)),
                    np.random.default_rng(20250809).standard_normal((n, 1)))
    target = math.expm1(2.0 * h)
    assert abs(float(draws.var(ddof=1)) - target) <= 4.0 * target * math.sqrt(2.0 / n)


def test_c10_decay_schedule_contract():
    """Decay-schedule steps stay in [c/L, c]; L = 1 collapses exactly to the
    uniform grid; an infeasible budget is rejected with the minimal N."""
    for T, N, L, d in [(2.0, 100, 10.0, 1), (8.0, 400, 50.0, 1), (3.0, 500, 1000.0, 1)]:
        g = exp_decay_grid(T=T, N=N, L=L, d=d)
        c = (T + math.log(L)) / N
        assert np.all(g.steps <= c * (1.0 + 1e-12))
        assert np.all(g.steps >= c / L * (1.0 - 1e-12))

    g1 = exp_decay_grid(T=2.0, N=10, L=1.0, d=1)
    np.testing.assert_array_equal(g1.points, uniform_grid(2.0, 10).points)

    with pytest.raises(StepBudgetViolated) as exc_info:
        exp_decay_grid(T=2.0, N=3, L=10.0, d=2, K=1.0)
    remedy = exc_info.value.min_steps
    assert remedy == math.ceil((2.0 + math.log(10.0)) * 2.0)
    exp_decay_grid(T=2.0, N=remedy, L=10.0, d=2, K=1.0)


def test_c11_pinsker_consistency():
    """On 1D pairs with computable KL, the TV estimate never exceeds
    sqrt(KL/2) plus 0.02 estimator slack."""
    normal = standard_normal_spec(1)
    shifted = validate_spec([(1.0, [1.0], [[1.0]])])
    wide = validate_spec([(0.5, [-1.0], [[1.0]]), (0.5, [1.5], [[0.8]])])
    pairs = [(ANCHOR, wide), (normal, shifted), (wide, normal), (ANCHOR, normal)]
    for i, (p, q) in enumerate(pairs):
        kl = kl_mc(p, q, 200000, seed=7200 + i).value
        lo = np.minimum(p.means.min(), q.means.min()) - 6.0
        hi = np.maximum(p.means.max(), q.means.max()) + 6.0
        grid = default_histogram_grid(p, bins=150)
        grid = type(grid)(lo=[float(lo)], hi=[float(hi)], bins=[150])
        tv = tv_histogram(sample(p, 200000, seed=7300 + i), q, grid)
        assert tv <= math.sqrt(kl / 2.0) + 0.02, (i, tv, kl)


def test_c12_cli_determinism(tmp_path):
    """Re-running any command from its emitted metadata reproduces the CSVs
    byte for byte, independent of the thread cap."""
    spec_path = tmp_path / "spec.json"
    save_spec(ANCHOR, spec_path)

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample", "--spec", str(spec_path), "--out", str(out1),
                 "--solver", "ei", "--T", "6", "--N", "128", "--n", "5000",
                 "--seed", "7"]) == 0
    assert main(["replay", str(out1 / "run.meta.json"), "--out", str(out2)]) == 0
    assert digest(out1 / "samples.csv") == digest(out2 / "samples.csv")

    sw_args = ["sweep", "N", "--spec", str(spec_path), "--values", "8", "16",
               "32", "64", "--T", "4", "--n", "2000", "--seed", "3",
               "--bins", "40"]
    sw1, sw2 = tmp_path / "w1", tmp_path / "w2"
    assert main(sw_args + ["--out", str(sw1), "--threads", "1"]) == 0
    assert main(sw_args + ["--out", str(sw2), "--threads", "4"]) == 0
    assert digest(sw1 / "sweep.csv") == digest(sw2 / "sweep.csv")

    sw3 = tmp_path / "w3"
    assert main(["replay", str(sw1 / "run.meta.json"), "--out", str(sw3)]) == 0
    assert digest(sw1 / "sweep.csv") == digest(sw3 / "sweep.csv")

"""Gaussian-mixture diffusion toolkit: exact scores, smoothness bounds,
reverse-process samplers, and the metrics that check them against theory.
"""

from .bounds import (
    BoundReport,
    ConditionParams,
    SpectralSummary,
    bound_report,
    calibrate_region,
    kl_gaussian_exact,
    kl_to_standard_upper,
    lipschitz_constant,
    second_moment,
    spectral_summary,
)
from .forward import OuCoefficients, affine_push, marginal_at, ou_coefficients
from .metrics import (
    HistogramGrid,
    SweepResult,
    convergence_sweep,
    default_histogram_grid,
    jacobian_spectral_probe,
    kl_histogram,
    kl_mc,
    moment_diagnostics,
    tv_histogram,
)
from .mixture import (
    GmmSpec,
    density,
    log_density,
    responsibilities,
    sample,
    score,
    score_jacobian,
    validate_spec,
)
from .samples import SampleBatch
from .schedules import TimeGrid, exp_decay_grid, uniform_grid
from .solvers import (
    ScoreModel,
    make_score_model,
    run_predictor_corrector,
    run_sampler,
    step_ei,
    step_em,
)
from .suite import lipschitz_suite, random_spec, standard_mixture_1d, standard_normal_spec

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ConditionParams", "GmmSpec",
    "HistogramGrid", "OuCoefficients", "SampleBatch",
    "ScoreModel", "SpectralSummary", "SweepResult", "TimeGrid",
    "affine_push", "bound_report", "calibrate_region", "convergence_sweep",
    "default_histogram_grid", "density", "exp_decay_grid",
    "jacobian_spectral_probe", "kl_gaussian_exact", "kl_histogram", "kl_mc",
    "kl_to_standard_upper", "lipschitz_constant", "lipschitz_suite",
    "log_density", "make_score_model", "marginal_at", "moment_diagnostics",
    "ou_coefficients", "random_spec", "responsibilities",
    "run_predictor_corrector", "run_sampler", "sample", "score",
    "score_jacobian", "second_moment", "spectral_summary",
    "standard_mixture_1d", "standard_normal_spec", "step_ei", "step_em",
    "tv_histogram", "uniform_grid", "validate_spec",
]

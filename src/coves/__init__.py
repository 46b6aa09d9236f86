"""Two-sample treatment-effect testing via covariate-adjusted expected shortfall."""

from .baselines import OlsReport, run_ttest
from .coves_test import (
    CovesReport,
    Dataset,
    adjusted_outcomes,
    coves_stat,
    decompose_T,
    orthogonalized_covariate,
    run_coves,
    run_es,
    variance_est,
)
from .density import bandwidth_rot, kde_at_zero
from .diagnostics import QuantileCurves, adjusted_quantile_curves
from .mc_engine import (
    PowerEstimate,
    SampleSizeResult,
    estimate_rejection_rate,
    power_curve,
    sample_size_search,
)
from .quantreg import QuantileFit, RegressionData, fit_rq, rho_tau, rq_oracle
from .simgen import (
    EmpiricalDist,
    ScenarioSampler,
    ScenarioSpec,
    TargetedSampler,
    load_standin,
    sample_scenario,
    sample_targeted,
)

__version__ = "0.1.0"

__all__ = [
    "CovesReport",
    "Dataset",
    "EmpiricalDist",
    "OlsReport",
    "PowerEstimate",
    "QuantileCurves",
    "QuantileFit",
    "RegressionData",
    "SampleSizeResult",
    "ScenarioSampler",
    "ScenarioSpec",
    "TargetedSampler",
    "adjusted_outcomes",
    "adjusted_quantile_curves",
    "bandwidth_rot",
    "coves_stat",
    "decompose_T",
    "estimate_rejection_rate",
    "fit_rq",
    "kde_at_zero",
    "load_standin",
    "orthogonalized_covariate",
    "power_curve",
    "rho_tau",
    "rq_oracle",
    "run_coves",
    "run_es",
    "run_ttest",
    "sample_scenario",
    "sample_size_search",
    "sample_targeted",
    "variance_est",
]

"""Run-off triangle reserving with per-cell sensitivity analysis.

Chain-ladder / Mack and Bornhuetter-Ferguson reserve statistics from
incremental claims triangles, plus closed-form impact functions (first
derivatives) of reserves, prediction MSEs, and lognormal reserve
quantiles with respect to every observed incremental cell. A finite
difference oracle cross-checks every analytic derivative.
"""

from runoff.triangle import (
    IncrementalTriangle,
    CumulativeTriangle,
    cumulate,
    decumulate,
    validate,
    column_partial_sum,
)
from runoff.chainladder import (
    DevelopmentFactors,
    Fit,
    SigmaEstimates,
    MackSummary,
    estimate_development_factors,
    project_ultimates,
    reserves,
    estimate_sigmas,
    mse_accident_year,
    mse_total,
    mack_summary,
)
from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.impact import (
    ImpactTriangle,
    d_ln_f,
    impact_reserve_ay,
    impact_reserve_total,
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_rmse,
    impact_mse_total,
    marginal_contributions,
)
from runoff.quantile import (
    LognormalFit,
    fit_lognormal,
    inv_std_normal_cdf,
    lognormal_quantile,
    impact_quantile,
)
from runoff.oracle import (
    FdScheme,
    VerificationReport,
    fd_derivative,
    verify_reserve_impacts,
    verify_mse_components,
    verify_quantile_impacts,
)

__version__ = "0.1.0"

__all__ = [
    "IncrementalTriangle",
    "CumulativeTriangle",
    "cumulate",
    "decumulate",
    "validate",
    "column_partial_sum",
    "DevelopmentFactors",
    "Fit",
    "SigmaEstimates",
    "MackSummary",
    "estimate_development_factors",
    "project_ultimates",
    "reserves",
    "estimate_sigmas",
    "mse_accident_year",
    "mse_total",
    "mack_summary",
    "PriorUltimates",
    "bf_reserves",
    "default_priors",
    "ImpactTriangle",
    "d_ln_f",
    "impact_reserve_ay",
    "impact_reserve_total",
    "impact_bf_ay",
    "impact_bf_total",
    "impact_mse_ay",
    "impact_rmse",
    "impact_mse_total",
    "marginal_contributions",
    "LognormalFit",
    "fit_lognormal",
    "inv_std_normal_cdf",
    "lognormal_quantile",
    "impact_quantile",
    "FdScheme",
    "VerificationReport",
    "fd_derivative",
    "verify_reserve_impacts",
    "verify_mse_components",
    "verify_quantile_impacts",
]

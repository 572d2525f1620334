"""Guards for the tooling that reaches into runoff from outside.

perfbench/tracing.py wraps runoff functions by name for the per-layer
benchmark metrics. A rename or deletion in runoff breaks only a traced
benchmark run, silently, so the names it needs are pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

import runoff

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

PUBLIC = [
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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves():
    tracing = load_tracing()
    for span in (
        "triangle.IncrementalTriangle.with_cell",
        "quantile.inv_std_normal_cdf",
        "cli.compute",
        "triangle.column_partial_sum",
    ):
        assert span in tracing.SPAN_NAMES
    for span in tracing.SPAN_NAMES:
        mod_name, _, attr = span.partition(".")
        target = importlib.import_module(f"runoff.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{span} no longer resolves"
            target = getattr(target, part)
        assert callable(target), span


def test_public_names_unchanged():
    assert runoff.__all__ == PUBLIC
    assert all(hasattr(runoff, name) for name in PUBLIC)

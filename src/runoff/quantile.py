"""Lognormal moment matching for total reserves and quantile sensitivities.

The total reserve is modeled as LN(mu, sigma2) with the two parameters
chosen so the distribution's mean and variance equal the reserve point
estimate and its prediction MSE. Quantile impacts follow by the chain
rule through that fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from runoff.chainladder import DevelopmentFactors, Fit, SigmaEstimates
from runoff.impact import ImpactTriangle, _impact, _mse_total, _reserve_total
from runoff.triangle import CumulativeTriangle


@dataclass(frozen=True)
class LognormalFit:
    """Log-scale parameters matched to a mean and variance."""

    mu: float
    sigma2: float


def fit_lognormal(reserve: float, mse: float) -> LognormalFit:
    """Match LN(mu, sigma2) moments to E = reserve, Var = mse."""
    if reserve <= 0.0:
        raise ValueError(f"reserve must be positive, got {reserve}")
    if mse <= 0.0:
        raise ValueError(f"mse must be positive, got {mse}")
    sigma2 = math.log1p(mse / reserve**2)
    mu = math.log(reserve) - sigma2 / 2.0
    return LognormalFit(mu=mu, sigma2=sigma2)


# Rational approximation coefficients (central and tail regions) for the
# inverse standard normal CDF; one Halley refinement brings the absolute
# error to the order of machine precision.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def inv_std_normal_cdf(q: float) -> float:
    """Inverse standard normal CDF, absolute error well below 1e-9."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    p_low = 0.02425
    if q < p_low:
        r = math.sqrt(-2.0 * math.log(q))
        x = (
            ((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5]
        ) / ((((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0)
    elif q <= 1.0 - p_low:
        r = q - 0.5
        s = r * r
        x = (
            (((((_A[0] * s + _A[1]) * s + _A[2]) * s + _A[3]) * s + _A[4]) * s + _A[5])
            * r
            / (((((_B[0] * s + _B[1]) * s + _B[2]) * s + _B[3]) * s + _B[4]) * s + 1.0)
        )
    else:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(
            ((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5]
        ) / ((((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0)
    # Halley refinement against the exact CDF via erfc.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def lognormal_quantile(fit: LognormalFit, q: float) -> float:
    """exp(mu + sqrt(sigma2) * z_q)."""
    return math.exp(fit.mu + math.sqrt(fit.sigma2) * inv_std_normal_cdf(q))


def impact_quantile(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
    q: float,
) -> ImpactTriangle:
    """IF_{k,j}(F^-1(q)) for the moment-matched total reserve distribution.

    Chain rule through the fit: with D = mse + R^2,

        d(sigma2) = (IF(mse) - 2 mse IF(R) / R) / D
        d(mu)     = IF(R) / R - d(sigma2) / 2
        IF(F^-1)  = (d(mu) + z_q * d(sigma2) / (2 sqrt(sigma2))) * F^-1(q)

    evaluated cellwise from the reserve and MSE impact triangles, both
    read from one fitted state.
    """
    state = Fit.build(cum, factors, sigmas)
    total = float(np.sum(state.reserves))
    mse = state.mse_total
    if total <= 0.0:
        raise ValueError(f"total reserve must be positive, got {total}")
    if mse <= 0.0:
        cause = (
            "all development ratios are proportional, every sigma^2 is 0"
            if not np.any(state.sigma2)
            else f"mse = {mse}"
        )
        raise ValueError(f"impact_quantile undefined: {cause}")
    fit = fit_lognormal(total, mse)
    z = inv_std_normal_cdf(q)
    fq = lognormal_quantile(fit, q)
    if_r = _reserve_total(state)
    if_m = _mse_total(state)
    denom = mse + total**2
    d_sigma2 = (if_m - 2.0 * mse * if_r / total) / denom
    d_mu = if_r / total - d_sigma2 / 2.0
    d_sigma = d_sigma2 / (2.0 * math.sqrt(fit.sigma2))
    return _impact("quantile", None, state, (d_mu + z * d_sigma) * fq)

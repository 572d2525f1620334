"""Lognormal moment matching for total reserves and quantile sensitivities.

The total reserve is modeled as LN(mu, sigma2) with the two parameters
chosen so the distribution's mean and variance equal the reserve point
estimate and its prediction MSE. Quantile impacts follow by the chain
rule through that fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from runoff.chainladder import DevelopmentFactors, Fit, SigmaEstimates
from runoff.impact import ImpactTriangle, _check_mse, _impact, _mse_total, _reserve_total
from runoff.triangle import CumulativeTriangle


@dataclass(frozen=True)
class LognormalFit:
    """Log-scale parameters matched to a mean and variance."""

    mu: float
    sigma2: float


def fit_lognormal(reserve: float, mse: float) -> LognormalFit:
    """Match LN(mu, sigma2) moments to E = reserve, Var = mse.

    Complex-safe, for a complex step through the map: the signs are read
    from the real parts."""
    if np.real(reserve) <= 0.0:
        raise ValueError(f"reserve must be positive, got {reserve}")
    if np.real(mse) <= 0.0:
        raise ValueError(f"mse must be positive, got {mse}")
    sigma2 = np.log1p(mse / reserve**2)
    mu = np.log(reserve) - sigma2 / 2.0
    return LognormalFit(mu=mu, sigma2=sigma2)


def inv_std_normal_cdf(q: float) -> float:
    """Inverse standard normal CDF: the stdlib's NormalDist().inv_cdf,
    Wichura's algorithm AS 241, accurate to about 1e-16 relative."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


def lognormal_quantile(fit: LognormalFit, q: float) -> float:
    """exp(mu + sqrt(sigma2) * z_q), complex-safe like fit_lognormal."""
    return np.exp(fit.mu + np.sqrt(fit.sigma2) * inv_std_normal_cdf(q))


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
    _check_mse("impact_quantile", mse, state.sigma2)
    fit = fit_lognormal(total, mse)
    z = inv_std_normal_cdf(q)
    fq = lognormal_quantile(fit, q)
    if_r = _reserve_total(state)
    if_m = _mse_total(state)
    denom = mse + total**2
    d_sigma2 = (if_m - 2.0 * mse * if_r / total) / denom
    d_mu = if_r / total - d_sigma2 / 2.0
    d_sigma = d_sigma2 / (2.0 * np.sqrt(fit.sigma2))
    return _impact("quantile", None, state, (d_mu + z * d_sigma) * fq)

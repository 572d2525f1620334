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

from runoff.chainladder import DevelopmentFactors, Fit, SigmaEstimates, _fit, _scale
from runoff.impact import ImpactTriangle, _check_mse, _impact, _mse, _reserve
from runoff.triangle import CumulativeTriangle, _owned

__all__ = ["LognormalFit", "fit_lognormal", "inv_std_normal_cdf", "lognormal_quantile",
           "impact_quantile"]


@dataclass(frozen=True, eq=False)
class LognormalFit:
    """Log-scale parameters matched to a mean and variance."""

    mu: float
    sigma2: float


def fit_lognormal(reserve: float, mse: float) -> LognormalFit:
    """Match LN(mu, sigma2) moments to E = reserve, Var = mse.

    Complex-safe, for a complex step through the map, and elementwise
    over arrays: the signs are read from the real parts of every entry.
    numpy's complex log1p is log(1 + r), which drops any part of Re r
    below eps; so a complex r = mse / reserve^2 takes log1p(Re r) +
    i Im r / (1 + Re r), exact to first order in the step, with the real
    part of the real path bit for bit. reserve^2 is taken at _scale."""
    if not np.logical_and.reduce(reserve.real > 0.0, axis=None):
        raise ValueError(f"reserve must be positive, got {reserve}")
    if not np.logical_and.reduce(mse.real > 0.0, axis=None):
        raise ValueError(f"mse must be positive, got {mse}")
    s = _scale(reserve)
    r = mse / s / s / (reserve / s) ** 2
    complex_r = np.asarray(r).dtype.kind == "c"
    sigma2 = np.log1p(r.real) + 1j * r.imag / (1.0 + r.real) if complex_r else np.log1p(r)
    mu = np.log(reserve) - sigma2 / 2.0
    return _owned(LognormalFit, mu=mu, sigma2=sigma2)


# The standard normal; a NormalDist holds nothing that a call changes.
_STANDARD_NORMAL = NormalDist()


def inv_std_normal_cdf(q: float) -> float:
    """Inverse standard normal CDF: the stdlib's NormalDist().inv_cdf,
    Wichura's algorithm AS 241, accurate to about 1e-16 relative."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return _STANDARD_NORMAL.inv_cdf(q)


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

    taken over the fitted sums, from the gradients of the total reserve
    and MSE, and mapped to the cells once.
    """
    return _impact("quantile", None, _quantile(_fit(cum, factors, sigmas), q))


def _quantile(state: Fit, q: float) -> np.ndarray:
    """The gradient of the quantile over the fitted sums, of a fit with sigmas."""
    total = float(state.reserve_total)
    mse = state.mse_total
    if not total > 0.0:
        raise ValueError(f"total reserve must be positive, got {total}")
    _check_mse("impact_quantile", mse, not np.logical_or.reduce(state.sigma2))
    fit = fit_lognormal(total, mse)
    z = inv_std_normal_cdf(q)
    fq = lognormal_quantile(fit, q)
    d_r, d_m = _reserve(state), _mse(state)
    s = state.scale
    d_sigma2 = (d_m - 2.0 * mse * d_r / total) / (mse / s / s + (total / s) ** 2) / s / s
    d_mu = d_r / total - d_sigma2 / 2.0
    d_sigma = d_sigma2 / (2.0 * np.sqrt(fit.sigma2))
    return (d_mu + z * d_sigma) * fq

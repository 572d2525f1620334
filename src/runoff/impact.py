"""Impact functions: per-cell first derivatives of reserve statistics.

Every operation returns an ImpactTriangle holding d(statistic)/dX_{k,j}
for each observed incremental cell (k, j). Reserve impacts use the
indicator master formula built from d ln f; MSE impacts treat the
variance scales sigma^2 as fixed constants and differentiate the
development factors and cumulative cells they multiply.

Each triangle is O(I^2) array algebra over one chainladder.Fit: the sums
over accident years and development years collapse into one suffix sum
over years and one prefix sum over development years (_kernel), both
taken by chainladder._ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.bornhuetter import PriorUltimates, _prior_values
from runoff.chainladder import DevelopmentFactors, Fit, SigmaEstimates, _ahead, _fit
from runoff.triangle import (
    CumulativeTriangle,
    IncrementalTriangle,
    Triangle,
    _read_only,
    observed_mask,
)

# Statistics that are homogeneous of order 1 in the increments, for which
# the Euler allocation sum(IF * X) equals the statistic exactly. BF with
# frozen priors is excluded: mu does not scale with X.
ORDER_ONE_STATISTICS = ("reserve-ay", "reserve-total")
# Relative tolerance of the Euler sum-check in marginal_contributions.
EULER_RTOL = 1e-9


@dataclass(frozen=True)
class ImpactTriangle(Triangle):
    """Per-cell derivative values for one statistic.

    statistic: tag such as "reserve-total" or "mse-ay".
    target: accident year for per-year statistics, else None.
    values: (I, I) array, NaN outside the observed region.
    """

    statistic: str
    target: int | None
    dimension: int
    values: np.ndarray


def _impact(statistic: str, target, fit: Fit, values: np.ndarray) -> ImpactTriangle:
    """ImpactTriangle of values on the observed region, NaN outside.
    Adding 0.0 turns the -0.0 of a zero times a negative into 0.0."""
    dim = fit.dimension
    observed = observed_mask(dim)
    return ImpactTriangle(statistic, target, dim, np.where(observed, values + 0.0, np.nan))


def _kernel(fit: Fit, c: np.ndarray) -> np.ndarray:
    """K(c)[k, j] = sum over q > k of c_q * sum over s = I-q+1..I-k of g[s, j].

    This is sum over q of c_q IF_{k,j}(R_q) / ult_q off the diagonal, the
    shape every reserve-like total shares. Swapping the sums gives
    sum over s <= I-k of g[s, j] * (sum of c_q over q >= I-s+1): one suffix
    sum over q and one prefix sum over s, O(I^2). c_1 never enters. c may
    carry leading batch axes, (..., I), and so does the result.

    Only rows k <= I-s enter the column sums of f_s, so a term of year s
    reaches rows 1..I-s: the prefix sum over s read at s = I-k is _ahead
    of the reversed years, reversed (an empty sum for k = I).
    """
    ahead = _ahead(c[..., 1:])[..., 1:]
    return _ahead((fit.g * ahead[..., :, None])[..., ::-1, :], axis=-2)[..., ::-1, :]


def _one_year(fit: Fit, i: int, per_year: np.ndarray) -> np.ndarray:
    """per_year with every accident year but i set to zero."""
    if not 1 <= i <= fit.dimension:
        raise IndexError(f"accident year {i} out of range 1..{fit.dimension}")
    c = np.zeros(fit.dimension)
    c[i - 1] = per_year[i - 1]
    return c


def _year(fit: Fit, i: int | None, per_year: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The kernel of per_year on accident year i alone, with row i set to
    diagonal[i-1] (flat in j). For i None, every year's at once, (I, I, I):
    the weights are the rows of diag(per_year), one batched kernel, and
    slot [i-1] is year i's triangle bit for bit."""
    if i is None:
        values = _kernel(fit, np.diag(per_year))
        rows = np.arange(fit.dimension)
        values[rows, rows] = diagonal[:, None]
    else:
        values = _kernel(fit, _one_year(fit, i, per_year))
        values[i - 1] = diagonal[i - 1]
    return values


def d_ln_f(cum: CumulativeTriangle, s: int, k: int, j: int) -> float:
    """d ln f_s / dX_{k,j}, one cell of Fit.g, read from the fit cum holds.

    Zero when k > I - s (the cell is outside both column sums); otherwise
    the reciprocal of the numerator sum when j <= s+1 minus the
    reciprocal of the denominator sum when j <= s.
    """
    dim = cum.dimension
    if not 1 <= s <= dim - 1:
        raise IndexError(f"factor index {s} out of range 1..{dim - 1}")
    if not 1 <= j <= dim:
        raise IndexError(f"development year {j} out of range 1..{dim}")
    if k > dim - s:
        return 0.0
    return float(_fit(cum).g[s - 1, j - 1])


def impact_reserve_ay(
    cum: CumulativeTriangle, factors: DevelopmentFactors, i: int
) -> ImpactTriangle:
    """IF_{k,j}(R_i): zero for k > i, flat (f-product - 1) for k = i,
    the ultimate times the d ln f sum over s = I-i+1..I-k for k < i."""
    fit = _fit(cum, factors)
    return _impact("reserve-ay", i, fit, _reserve_ay(fit, i))


def _reserve_ay(fit: Fit, i: int | None) -> np.ndarray:
    """IF(R_i) as an (I, I) array, or every year's, (I, I, I), for i None."""
    return _year(fit, i, fit.ult, fit.fprod - 1.0)


def _held(build):
    """build(fit), an (I, I) total impact triangle, computed on the first
    call for a fit and kept on it, read-only, in its __dict__ under build's
    name, as functools.cached_property keeps a value; later calls return
    the held array. Every impact that reads the total reads this one."""

    def held(fit: Fit) -> np.ndarray:
        if build.__name__ not in fit.__dict__:
            fit.__dict__[build.__name__] = _read_only(build(fit))
        return fit.__dict__[build.__name__]

    return held


@_held
def _reserve_total(fit: Fit) -> np.ndarray:
    return _kernel(fit, fit.ult) + (fit.fprod - 1.0)[:, None]


def impact_reserve_total(
    cum: CumulativeTriangle, factors: DevelopmentFactors
) -> ImpactTriangle:
    """IF_{k,j}(R) = sum over accident years of IF_{k,j}(R_i)."""
    fit = _fit(cum, factors)
    return _impact("reserve-total", None, fit, _reserve_total(fit))


def impact_bf_ay(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
    i: int,
) -> ImpactTriangle:
    """IF_{k,j}(R_i^BF) with frozen priors: zero for k >= i, otherwise the
    prior discounted by the factor product times the d ln f sums."""
    fit = _fit(cum, factors)
    c = _one_year(fit, i, _prior_values(cum, priors) / fit.fprod)
    return _impact("bf-ay", i, fit, _kernel(fit, c))


def impact_bf_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
) -> ImpactTriangle:
    """IF_{k,j}(R^BF) = sum over accident years of IF_{k,j}(R_i^BF)."""
    fit = _fit(cum, factors)
    mu = _prior_values(cum, priors)
    return _impact("bf-total", None, fit, _kernel(fit, mu / fit.fprod))


def _shrink(fit: Fit) -> np.ndarray:
    """Per year, d(mse_i) / d(R_i) off the diagonal: -2 latest F sqrt(w)."""
    return -2.0 * fit.latest * fit.fprod * np.sqrt(fit.w)


def _mse_diagonal(fit: Fit) -> np.ndarray:
    """Per year, d(mse_i) / dX_{i,j}: the process sum plus twice the
    estimation term over the latest cumulative."""
    return fit.process + 2.0 * fit.latest * fit.fprod**2 * fit.w


def impact_mse_ay(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
    i: int,
) -> ImpactTriangle:
    """IF_{k,j}(mse(R_i)) with sigma^2 held constant.

    For k = i the value is the process sum plus twice the estimation
    term over the latest cumulative (flat in j). For k <= i-1 it is a
    negative constant times IF_{k,j}(R_i): the estimation error shrinks
    when the reserve impact grows.
    """
    fit = _fit(cum, factors, sigmas)
    return _impact("mse-ay", i, fit, _mse_ay(fit, i))


def _mse_ay(fit: Fit, i: int | None) -> np.ndarray:
    """IF(mse_i) as an (I, I) array, or every year's, (I, I, I), for i None."""
    return _year(fit, i, _shrink(fit) * fit.ult, _mse_diagonal(fit))


def impact_rmse(mse_value: float, mse_impacts: ImpactTriangle) -> ImpactTriangle:
    """Map MSE impacts to RMSE impacts: v -> v / (2 sqrt(mse)).

    mse_value must be positive. The total and year I read every sigma^2,
    so their MSE impacts vanish on every cell exactly when each sigma^2
    is 0; a zero MSE with such impacts is refused with that cause.
    """
    if mse_value <= 0.0:
        reads_every_sigma = mse_impacts.target in (None, mse_impacts.dimension)
        if reads_every_sigma and not np.any(np.nan_to_num(mse_impacts.values)):
            _check_mse("impact_rmse", mse_value, zero_sigmas=True)
        raise ValueError("rmse impact undefined for mse_value <= 0")
    scale = 1.0 / (2.0 * np.sqrt(mse_value))
    tag = mse_impacts.statistic.replace("mse", "rmse", 1)
    return ImpactTriangle(
        tag, mse_impacts.target, mse_impacts.dimension, mse_impacts.values * scale
    )


def _check_mse(what: str, mse: float, zero_sigmas: bool):
    """Raise ValueError when mse is not positive, since what divides by
    it; the message names the cause, every sigma^2 being 0 when
    zero_sigmas."""
    if mse <= 0.0:
        cause = (
            "all development ratios are proportional, every sigma^2 is 0"
            if zero_sigmas
            else f"mse = {mse}"
        )
        raise ValueError(f"{what} undefined: {cause}")


@_held
def _mse_total(fit: Fit) -> np.ndarray:
    """Sum over years of the per-year MSE impacts plus, by the product
    rule, of the cross covariances u_i v_i, with u_i = ult_i later_i and
    v_i = 2 w_i.

    d(u_i) collects dChat_q = IF(R_q) + 1{k=q}; summed over i with the
    weights v_i it is sum over q of alpha_q dChat_q, with
    alpha_q = sum over i < q of v_i ult_i, plus v_q later_q, so it joins
    the kernel as alpha * ult and adds alpha * F on the diagonal row. d(v_i)
    is a sum over r >= I-i+1 of
        -2 sigma^2_r (1{j <= r} + 2 B_r g[r, j]) / (f_r^2 B_r^2)
    for rows k <= I-r; summed over i with the weights u_i it is a prefix
    sum over r.
    """
    dim = fit.dimension
    later = fit.later
    v = 2.0 * fit.w
    vu = v * fit.ult
    alpha = np.concatenate(([0.0], np.cumsum(vu)[:-1])) + v * later
    u_ahead = _ahead((fit.ult * later)[1:])[1:]
    scale = -2.0 * fit.sigma2 / (fit.factors**2 * fit.den**2) * u_ahead
    r = np.arange(1, dim)
    member = np.arange(1, dim + 1) <= r[:, None]
    per_r = scale[:, None] * (member + 2.0 * fit.den[:, None] * fit.g)
    d_cross_v = _ahead(per_r[::-1], axis=0)[::-1]
    kernel = _kernel(fit, (_shrink(fit) + alpha) * fit.ult)
    return kernel + d_cross_v + (_mse_diagonal(fit) + alpha * fit.fprod)[:, None]


def impact_mse_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
) -> ImpactTriangle:
    """IF_{k,j}(mse(R)) with sigma^2 held constant.

    Sum over accident years of the per-year MSE impact plus the product
    rule applied to the cross covariance u_i * v_i, where
    u_i = Chat_i * sum(Chat_q, q > i) and v_i collects the column-sum
    weighted 2 sigma^2_r / f_r^2 terms. The derivative of v_i
    differentiates both the factors and the column sums; the derivative
    of u_i reduces to reserve impacts plus latest-diagonal indicators.
    """
    fit = _fit(cum, factors, sigmas)
    return _impact("mse-total", None, fit, _mse_total(fit))


def marginal_contributions(
    impacts: ImpactTriangle,
    inc: IncrementalTriangle,
    expected_total: float | None = None,
) -> ImpactTriangle:
    """Cellwise IF_{k,j} * X_{k,j}, the Euler allocation of the statistic.

    When expected_total is given the statistic must be homogeneous of
    order 1 (per-year or total chain-ladder reserves); the allocation of
    any other statistic does not sum to its value and the check is
    refused rather than silently reported. The allocation must then sum
    to expected_total within EULER_RTOL (1e-9) of the larger of
    |expected_total| and sum(|IF * X|), the scale of the rounding in the
    sum; otherwise ValueError.
    """
    if impacts.dimension != inc.dimension:
        raise ValueError("impact triangle and data triangle dimensions differ")
    if expected_total is not None and impacts.statistic not in ORDER_ONE_STATISTICS:
        raise ValueError(
            f"Euler sum-check refused: {impacts.statistic!r} is not homogeneous "
            "of order 1 in the increments, its allocation does not sum to the "
            "statistic"
        )
    contributions = impacts.values * inc.values
    if expected_total is not None:
        allocated = float(np.nansum(contributions))
        scale = max(abs(expected_total), float(np.nansum(np.abs(contributions))))
        if not abs(allocated - expected_total) <= EULER_RTOL * scale:
            raise ValueError(
                f"Euler identity broken: the allocation of {impacts.statistic!r} "
                f"sums to {allocated!r}, expected {expected_total!r}"
            )
    return ImpactTriangle(
        impacts.statistic + "-contribution",
        impacts.target,
        impacts.dimension,
        contributions,
    )

"""Impact functions: per-cell first derivatives of reserve statistics.

Every operation returns an ImpactTriangle holding d(statistic)/dX_{k,j}
for each observed incremental cell (k, j). Reserve impacts use the
indicator master formula built from d ln f; MSE impacts treat the
variance scales sigma^2 as fixed constants and differentiate the
development factors and cumulative cells they multiply.

Every statistic reads the triangle only through the 3I-2 fitted sums of
one chainladder.Fit (the column sums A_s, B_s and the latest diagonal
L_i), so each impact is first its gradient over the sums, O(I) (_grad),
then mapped to the cells by one chain rule (_effects): cell (k, j) gets
a row effect of k less a column effect of j. That difference has two
layouts, each taken by one call: an impact triangle writes it onto the
observed cells of an (I, I) NaN array with one masked subtract (_impact),
and _to_cells gathers it into the row-major cell columns (_cell_index) by
which the oracle maps its complex-step gradients and lays out its
reports; cell by cell, both are the same subtraction of the same two
effects, bit for bit. Each statistic has one gradient,
_reserve, _bf and _mse, of its total for year None, else of that year;
a Fit holds the total reserve and MSE gradients, each written read-only
into its __dict__ by _held_total, as a Fit keeps its Mack sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from runoff.bornhuetter import PriorUltimates, _prior_values, _usable_priors
from runoff.chainladder import DevelopmentFactors, Fit, SigmaEstimates, _ahead, _fit
from runoff.triangle import (
    CumulativeTriangle,
    IncrementalTriangle,
    Triangle,
    _cell_index,
    _one_based,
    _owned,
    _read_only,
    observed_mask,
)

__all__ = ["ImpactTriangle", "d_ln_f", "impact_reserve_ay", "impact_reserve_total", "impact_bf_ay",
           "impact_bf_total", "impact_mse_ay", "impact_rmse", "impact_mse_total",
           "marginal_contributions"]

# Relative tolerance of the Euler sum-check in marginal_contributions.
EULER_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ImpactTriangle(Triangle):
    """Per-cell derivative values for one statistic.

    statistic: tag such as "reserve-total" or "mse-ay".
    target: accident year for per-year statistics, checked and stored as
        an int (_one_based), else None.
    values: (I, I) array, NaN outside the observed region.
    """

    statistic: str
    target: int | None
    dimension: int
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.target is not None:
            object.__setattr__(self, "target", _one_based(self.target, self.dimension, "accident year"))


def _effects(grad: np.ndarray) -> tuple:
    """The chain rule from the fitted sums to the cells: for gradients
    (..., 3I-2) over A_1..A_{I-1}, B_1..B_{I-1}, L_1..L_I, the row and
    column effects (row, col), (..., I) each; cell (k, j) gets
    row[k-1] - col[j-1].

    X_{k,j} adds to C_{k,r} for r >= j alone, so it enters A_s for
    s >= j-1, B_s for s >= j (both for s <= I-k only) and L_k. With P[m]
    the sum of gA_s + gB_s over s <= m, cell (k, j) gets
    P[I-k] + gL_k - (P[j-1] - gA_{j-1}), gA_0 = 0: a row term less a
    column term, O(I) work per gradient. The prefix sums start at +0.0,
    so no term, nor a difference of two, is -0.0."""
    dim = (grad.shape[-1] + 2) // 3
    g_a, g_b, g_l = grad[..., : dim - 1], grad[..., dim - 1 : 2 * dim - 2], grad[..., 2 * dim - 2 :]
    prefix = np.zeros(g_l.shape, dtype=np.promote_types(grad.dtype, float))
    np.add(g_a, g_b, out=prefix[..., 1:])
    prefix = prefix.cumsum(axis=-1)
    row = prefix[..., ::-1] + g_l
    prefix[..., 1:] -= g_a  # the column terms
    return row, prefix


def _to_cells(grad: np.ndarray) -> np.ndarray:
    """Gradients (..., 3I-2) over the fitted sums as derivatives over the
    observed cells, (..., n) in the layout of _cell_index, gathered from
    _effects by its 0-based indices for the oracle's reports. The column
    effect is subtracted into the gathered row effect in place, so two
    (..., n) arrays are alive at once, not three; ndarray.take gathers
    C-ordered, so a leading slice of the result ravels without a copy."""
    row, col = _effects(grad)
    k, j = _cell_index(row.shape[-1])
    cells = row.take(k, axis=-1)
    cells -= col.take(j, axis=-1)
    return cells


def _impact(statistic: str, target, grad: np.ndarray) -> ImpactTriangle:
    """ImpactTriangle of the gradient grad over the fitted sums, target an
    accident year (checked, _one_based) or None: the row effect less the
    column effect (_effects) on the observed cells, one masked subtract,
    NaN outside, where nothing is computed. Each cell is the difference
    _to_cells takes for it, bit for bit."""
    dim = (grad.size + 2) // 3
    if target is not None:
        target = _one_based(target, dim, "accident year")
    row, col = _effects(grad)
    values = np.empty((dim, dim))
    values.fill(np.nan)
    np.subtract(row[:, None], col, out=values, where=observed_mask(dim))
    return _owned(ImpactTriangle, statistic=statistic, target=target, dimension=dim, values=_read_only(values))


def _held_total(gradient):
    """gradient(fit, year), its total (year None) computed once per Fit and
    held read-only in its __dict__ under gradient's name, as a Fit keeps
    its Mack sums, so every impact and verifier of a fit reads one and the
    attach of sigmas (chainladder._fit) carries it. Per-year and
    batched-year gradients are computed on every call."""
    name = gradient.__name__

    @functools.wraps(gradient)
    def held(fit: Fit, year=None) -> np.ndarray:
        if year is not None:
            return gradient(fit, year)
        if name not in fit.__dict__:
            fit.__dict__[name] = _read_only(gradient(fit))
        return fit.__dict__[name]

    return held


def _grad(fit: Fit, c: np.ndarray, diagonal: np.ndarray, year=None) -> np.ndarray:
    """The gradient over the fitted sums of c_q ln F_q + diagonal_q L_q,
    c and diagonal held fixed: summed over the years q for year None, of q =
    year alone for an accident year, one row per year for a 1-D array of them.

    ln F_q sums ln f_s over the years s = I-q+1..I-1 ahead of q, and
    d ln f_s = dA_s / A_s - dB_s / B_s; swapping the sums, a_s = the sum of
    c_q over q >= I-s+1 (one _ahead) goes on A_s as a_s / A_s and on B_s
    as -a_s / B_s. c and diagonal may carry leading batch axes, (..., I),
    and so does the result (an array of years takes them unbatched). With
    c = ult and diagonal = F - 1 it is the gradient of the reserves,
    R_q = L_q F_q - L_q.
    """
    if year is not None:
        years = year[..., None] if getattr(year, "ndim", 0) else _one_based(year, fit.dimension, "accident year")
        alone = np.arange(1, fit.dimension + 1) == years
        c, diagonal = np.where(alone, c, 0.0), np.where(alone, diagonal, 0.0)
    a = _ahead(c[..., 1:])[..., 1:]
    return np.concatenate((a / fit.num, -a / fit.den, diagonal), axis=-1)


def d_ln_f(cum: CumulativeTriangle, s: int, k: int, j: int) -> float:
    """d ln f_s / dX_{k,j} of an observed cell, from the column sums of the
    fit cum holds: zero when k > I - s (the cell is outside both sums);
    otherwise 1 / A_s when j <= s+1 less 1 / B_s when j <= s."""
    dim = cum.dimension
    s, j = _one_based(s, dim - 1, "factor index"), _one_based(j, dim, "development year")
    cum._check_observed(k, j)
    if k > dim - s:
        return 0.0
    fit = _fit(cum)
    return float((j <= s + 1) / fit.num[s - 1] - (j <= s) / fit.den[s - 1])


def impact_reserve_ay(
    cum: CumulativeTriangle, factors: DevelopmentFactors, i: int
) -> ImpactTriangle:
    """IF_{k,j}(R_i): zero for k > i, flat (f-product - 1) for k = i,
    the ultimate times the d ln f sum over s = I-i+1..I-k for k < i."""
    return _impact("reserve-ay", i, _reserve(_fit(cum, factors), i))


@_held_total
def _reserve(fit: Fit, year=None) -> np.ndarray:
    """The gradient of the reserve R_year over the fitted sums (see _grad),
    the total's held on the fit."""
    return _grad(fit, fit.ult, fit.fprod - 1.0, year)


def impact_reserve_total(
    cum: CumulativeTriangle, factors: DevelopmentFactors
) -> ImpactTriangle:
    """IF_{k,j}(R) = sum over accident years of IF_{k,j}(R_i)."""
    return _impact("reserve-total", None, _reserve(_fit(cum, factors)))


def impact_bf_ay(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
    i: int,
) -> ImpactTriangle:
    """IF_{k,j}(R_i^BF) with frozen priors: zero for k >= i, otherwise the
    prior discounted by the factor product times the d ln f sums."""
    return _impact("bf-ay", i, _bf(_fit(cum, factors), i, _prior_values(cum, priors)))


def _bf(fit: Fit, year, mu: np.ndarray) -> np.ndarray:
    """The gradient of the BF reserve R_year^BF over the fitted sums (see _grad),
    the priors mu frozen and checked (_usable_priors): mu_i / F_i on ln F_i."""
    c = _usable_priors(fit.fprod, mu) / fit.fprod
    return _grad(fit, c, np.zeros(c.shape, c.dtype), year)


def impact_bf_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
) -> ImpactTriangle:
    """IF_{k,j}(R^BF) = sum over accident years of IF_{k,j}(R_i^BF)."""
    return _impact("bf-total", None, _bf(_fit(cum, factors), None, _prior_values(cum, priors)))


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
    return _impact("mse-ay", i, _mse(_fit(cum, factors, sigmas), i))


def impact_rmse(mse_value: float, mse_impacts: ImpactTriangle) -> ImpactTriangle:
    """Map MSE impacts to RMSE impacts, v -> v / (2 sqrt(mse)); other tags raise.

    mse_value must be positive. The total and year I read every sigma^2,
    so their MSE impacts vanish on every cell exactly when each sigma^2
    is 0; a zero MSE with such impacts is refused with that cause.
    """
    if not mse_impacts.statistic.startswith("mse"):
        raise ValueError(f"impact_rmse maps MSE impacts, got {mse_impacts.statistic!r}")
    if not mse_value > 0.0:
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
    if not mse > 0.0:
        cause = (
            "all development ratios are proportional, every sigma^2 is 0"
            if zero_sigmas
            else f"mse = {mse}"
        )
        raise ValueError(f"{what} undefined: {cause}")


@_held_total
def _mse(fit: Fit, year=None) -> np.ndarray:
    """The gradient of mse_year over the fitted sums (see _grad); for year
    None, held on the fit, of the total MSE: the per-year gradients summed,
    plus by the product rule those of the cross covariances u_i v_i,
    u_i = ult_i later_i, v_i = 2 w_i.

    Summed over i with the weights v_i, d(u_i) is sum over q of alpha_q
    dChat_q, alpha_q = v_q later_q + sum over i < q of v_i ult_i: alpha
    joins the per-year weights as alpha * ult and the diagonal as
    alpha * F. Summed with the weights u_i, d(v_i) is sum over r of
    scale_r d(B_r f_r^2) / f_r^2 = scale_r (2 B_r / A_r dA_r - dB_r), with
    scale_r = -2 sigma^2_r / (f_r^2 B_r^2) times the u_i of the years
    i >= I-r+1 that have r ahead of them.
    """
    if year is not None:
        return _grad(fit, fit.shrink * fit.ult, fit.mse_diagonal, year)
    v = 2.0 * fit.w
    alpha = np.concatenate(([0.0], (v * fit.ult).cumsum()[:-1])) + v * fit.later
    s = fit.scale  # B_r^2 and u over s^2, so they overflow only with the MSE
    u = _ahead((fit.ult / s * (fit.later / s))[1:])[1:]
    scale = -2.0 * fit.sigma2 / (fit.factors**2 * (fit.den / s) ** 2) * u
    grad = _grad(fit, (fit.shrink + alpha) * fit.ult, fit.mse_diagonal + alpha * fit.fprod)
    return grad + np.concatenate((2.0 * scale * fit.den / fit.num, -scale, np.zeros(fit.dimension)))


def impact_mse_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
) -> ImpactTriangle:
    """IF_{k,j}(mse(R)) with sigma^2 held constant: the sum over accident
    years of the per-year MSE impacts plus the product rule on the cross
    covariances u_i v_i, u_i = Chat_i * sum(Chat_q, q > i) and v_i = 2 w_i,
    differentiating both the factors and the column sums in w_i."""
    return _impact("mse-total", None, _mse(_fit(cum, factors, sigmas)))


def marginal_contributions(
    impacts: ImpactTriangle,
    inc: IncrementalTriangle,
    expected_total: float | None = None,
) -> ImpactTriangle:
    """Cellwise IF_{k,j} * X_{k,j}, the Euler allocation of the statistic.

    When expected_total is given the statistic must be homogeneous of
    order 1: its label names an entry of runoff.oracle's _STATISTICS that
    sets order_one (the per-year and total chain-ladder reserves; BF with
    frozen priors is not, as mu does not scale with X). The allocation of
    any other statistic does not sum to its value and the check is
    refused rather than silently reported. The allocation must then sum
    to expected_total within EULER_RTOL (1e-9) of the larger of
    |expected_total| and sum(|IF * X|), the scale of the rounding in the
    sum, plus I eps |latest|, the rounding of a reserve ult - latest (latest
    the row sum of the target year's increments, or of every year's for the
    total); otherwise ValueError.
    """
    if impacts.dimension != inc.dimension:
        raise ValueError("impact triangle and data triangle dimensions differ")
    from runoff.oracle import _STATISTICS  # loaded by import runoff; oracle imports this module

    if expected_total is not None and not getattr(_STATISTICS.get(impacts.statistic), "order_one", False):
        raise ValueError(
            f"Euler sum-check refused: {impacts.statistic!r} is not homogeneous "
            "of order 1 in the increments, its allocation does not sum to the "
            "statistic"
        )
    contributions = impacts.values * inc.values
    if expected_total is not None:
        allocated = float(np.nansum(contributions))
        scale = max(abs(expected_total), float(np.nansum(np.abs(contributions))))
        rows = inc.values if impacts.target is None else inc.values[impacts.target - 1]
        rounding = inc.dimension * np.finfo(float).eps * abs(float(np.nansum(rows)))
        if not abs(allocated - expected_total) <= EULER_RTOL * scale + rounding:
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

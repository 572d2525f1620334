"""Complex-step verification of the analytic impact triangles.

Every numerical derivative is a complex step (Squire & Trapp, SIAM Review
1998): dS/dX_{k,j} = Im S(X + ih e_{k,j}) / h with h = 1e-30, taken
through the library's own array-form fit on stacks of perturbed
triangles. It subtracts nothing, so there is no step size to choose and
the derivative is exact to rounding. Reserve impacts are checked against
the derivative of the refit reserve. MSE impacts cannot be checked that
way: their estimation-error part substitutes an approximation after
differentiation, so the raw derivative of the plug-in estimator is a
different object. For those the oracle differentiates each building
block and re-assembles the impact formula from the numerical blocks,
holding the variance scales at their baseline values throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from runoff.bornhuetter import PriorUltimates, bf_reserve_values, default_priors
from runoff.chainladder import Fit, _ahead, estimate_development_factors, estimate_sigmas
from runoff.impact import (
    _mse_ay,
    _mse_diagonal,
    _mse_total,
    _reserve_ay,
    _shrink,
    impact_bf_ay,
    impact_bf_total,
    impact_reserve_ay,
    impact_reserve_total,
)
from runoff.quantile import fit_lognormal, impact_quantile, lognormal_quantile
from runoff.triangle import IncrementalTriangle, cumulate, cumulate_values, observed_mask

# The imaginary step h. Its square vanishes against any real part, and
# times any derivative met here it stays far above the smallest double.
STEP = 1e-30
# Cells of all the perturbed triangles refit in one stack; bounds the
# memory of a stack refit at any I.
BATCH_CELLS = 2**14


@dataclass(frozen=True)
class FdScheme:
    """Central differences with step max(relative_step * |X|, absolute_floor)."""

    relative_step: float = 1e-6
    absolute_floor: float = 1e-2


@dataclass
class VerificationReport:
    statistic: str
    tolerance: float
    cells: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, k, j, analytic, numeric):
        """Record cell (k, j), or one cell per entry of equal-length arrays."""
        analytic = np.asarray(analytic, dtype=float)
        numeric = np.asarray(numeric, dtype=float)
        rel = relative_error(analytic, numeric)
        columns = [np.ravel(c).tolist() for c in (k, j, analytic, numeric, rel)]
        keys = ("k", "j", "analytic", "numeric", "rel_error")
        self.cells.extend(dict(zip(keys, row)) for row in zip(*columns))

    def add_triangle(self, analytic: np.ndarray, numeric: np.ndarray):
        """Record every observed cell of two (I, I) triangles, row-major."""
        observed = observed_mask(analytic.shape[-1])
        k, j = np.nonzero(observed)
        self.add(k + 1, j + 1, analytic[observed], numeric[observed])

    @property
    def max_rel_error(self) -> float:
        return max((c["rel_error"] for c in self.cells), default=0.0)

    @property
    def worst_cell(self):
        if not self.cells:
            return None
        worst = max(self.cells, key=lambda c: c["rel_error"])
        return worst["k"], worst["j"]

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "max_rel_error": self.max_rel_error,
            "worst_cell": self.worst_cell,
            "passed": self.passed,
            "cells": self.cells,
            "notes": self.notes,
        }


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1e-12), elementwise over arrays."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)


def fd_derivative(
    statistic: Callable[[IncrementalTriangle], float],
    inc: IncrementalTriangle,
    k: int,
    j: int,
    scheme: FdScheme = FdScheme(),
) -> float:
    """Numerical d(statistic)/dX_{k,j}; falls back to a forward difference
    when a central step would push the cell negative."""
    x = inc.cell(k, j)
    h = max(scheme.relative_step * abs(x), scheme.absolute_floor)
    if x - h < 0.0:
        return (statistic(inc.with_cell(k, j, x + h)) - statistic(inc)) / h
    up = statistic(inc.with_cell(k, j, x + h))
    down = statistic(inc.with_cell(k, j, x - h))
    return (up - down) / (2.0 * h)


def _partial(f: Callable, x):
    """df/dx at a real x by one complex step, Im f(x + ih) / h."""
    return np.imag(f(x + STEP * 1j)) / STEP


def complex_step(inc: IncrementalTriangle, statistic: Callable) -> np.ndarray:
    """d(statistic)/dX_{k,j} for every observed cell, on two trailing (I, I)
    axes that hold zero outside the observed region.

    statistic maps an (n, I, I) stack of incremental values to an (n, ...)
    array and must be complex-safe, as the library's array forms are.
    Entry m of a stack carries the imaginary step on one observed cell;
    each stack holds at most BATCH_CELLS cells in all.
    """
    dim = inc.dimension
    observed = observed_mask(dim)
    k, j = np.nonzero(observed)
    size = max(1, BATCH_CELLS // dim**2)
    parts = []
    for start in range(0, k.size, size):
        kk, jj = k[start : start + size], j[start : start + size]
        stack = np.empty((kk.size, dim, dim), dtype=complex)
        stack[:] = inc.values
        stack[np.arange(kk.size), kk, jj] += STEP * 1j
        parts.append(np.imag(statistic(stack)) / STEP)
    d = np.concatenate(parts)
    out = np.zeros(d.shape[1:] + (dim, dim))
    out[..., observed] = np.moveaxis(d, 0, -1)
    return out


def verify_reserve_impacts(
    inc: IncrementalTriangle,
    statistic: str = "reserve-total",
    year: int | None = None,
    priors: PriorUltimates | None = None,
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Compare an analytic reserve impact triangle to the complex-step
    derivative of the refit reserve.

    statistic: reserve-total | reserve-ay | bf-total | bf-ay. Per-year
    statistics need year. BF priors default to the frozen chain-ladder
    ultimates of the unperturbed triangle.
    """
    if statistic.endswith("-ay") and year is None:
        raise ValueError(f"{statistic} needs an accident year")
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    bf = statistic.startswith("bf")
    if bf and priors is None:
        priors = default_priors(cum, factors)
    analytic = {
        "reserve-total": lambda: impact_reserve_total(cum, factors),
        "reserve-ay": lambda: impact_reserve_ay(cum, factors, year),
        "bf-total": lambda: impact_bf_total(cum, factors, priors),
        "bf-ay": lambda: impact_bf_ay(cum, factors, priors, year),
    }[statistic]()

    def refit(x):
        fit = Fit.of(cumulate_values(x))
        by_year = bf_reserve_values(fit.fprod, priors.values) if bf else fit.reserves
        return by_year[..., year - 1] if statistic.endswith("-ay") else np.sum(by_year, axis=-1)

    report = VerificationReport(statistic=statistic, tolerance=tolerance)
    report.add_triangle(analytic.values, complex_step(inc, refit))
    return report


def _mse_blocks(inc: IncrementalTriangle) -> dict:
    """Complex-step dlnf[s-1] = d ln f_s, dcrow[r-1] = dC_{k,r} and
    dult[q-1] = dChat_q, each over the cells (k, j) on two trailing axes.
    X_{k,j} moves row k of the cumulative triangle alone, so dC_{k,r} is
    the derivative of the sum of C_{n,r} over every row n."""
    dim = inc.dimension

    def blocks(x):
        cum = cumulate_values(x)
        fit = Fit.of(cum)
        return np.concatenate((np.log(fit.factors), np.nansum(cum, axis=-2), fit.ult), axis=-1)

    d = complex_step(inc, blocks)
    return {"dlnf": d[: dim - 1], "dcrow": d[dim - 1 : 2 * dim - 1], "dult": d[2 * dim - 1 :]}


def _in_column_sums(dim: int) -> np.ndarray:
    """(I-1, I, 1) mask, slot [s-1, k-1]: row k enters the column sums of
    f_s, k <= I-s."""
    rows = np.arange(dim)
    return (rows <= dim - 1 - rows[1:, None])[:, :, None]


def _assemble_mse_from_blocks(fit: Fit, blocks):
    """Rebuild the MSE impact triangles from numerical blocks, as (yearly, total).

    Same algebra as the analytic formulas, but every derivative factor
    (d ln f, dC, dChat) is the complex-step value. Variance scales
    and all non-differentiated quantities are read from the baseline fit.
    yearly[i-1] is the impact on mse_i; total adds the cross covariances
    u_i v_i, with u_i = ult_i later_i and v_i = 2 w_i, by the product rule.
    """
    dim = fit.dimension
    dlnf, dcrow, dult = blocks["dlnf"], blocks["dcrow"], blocks["dult"]
    rows = np.arange(dim)
    # d(mse_i): rows k < i get the shrink constant times the reserve impact
    # assembled from d ln f; row i the diagonal constant times the derivative of
    # the latest cumulative C_{i, I-i+1}.
    yearly = (_shrink(fit) * fit.ult)[:, None, None] * _ahead(dlnf, axis=0)
    yearly *= (rows < rows[:, None])[:, :, None]
    yearly[rows, rows] = _mse_diagonal(fit)[:, None] * dcrow[dim - 1 - rows, rows]
    # d(v_i): the sum over r >= I-i+1 of coef_r d(B_r f_r^2) / f_r^2, where
    # dC_{k,r} enters the column sum B_r for rows k <= I-r only
    coef = -2.0 * fit.sigma2 / (fit.den**2 * fit.factors**2)
    d_colsum = _in_column_sums(dim) * dcrow[:-1] + 2.0 * fit.den[:, None, None] * dlnf
    dv = _ahead(coef[:, None, None] * d_colsum, axis=0)
    # d(u_i) = ult_i * (sum of dChat_q over q > i) + later_i * dChat_i
    dlater = np.concatenate((np.cumsum(dult[:0:-1], axis=0)[::-1], np.zeros((1, dim, dim))))
    du = fit.ult[:, None, None] * dlater + fit.later[:, None, None] * dult
    u, v = fit.ult * fit.later, 2.0 * fit.w
    cross = u[:, None, None] * dv + v[:, None, None] * du
    return yearly, np.sum(yearly + cross, axis=0)


def _max_rel(analytic: np.ndarray, numeric: np.ndarray, observed: np.ndarray) -> float:
    """The largest relative_error over the observed cells of stacked triangles."""
    return float(np.max(relative_error(analytic, numeric)[..., observed], initial=0.0))


def verify_mse_components(
    inc: IncrementalTriangle,
    tolerance: float = 1e-5,
    year: int | None = None,
) -> VerificationReport:
    """Component-protocol verification of the MSE impact triangles.

    Differentiates the building blocks (d ln f_s, dC_{n,r}, dChat_q, and
    the derivative of column-sum * f^2) by complex step, re-assembles the
    per-year and total MSE impacts from those blocks, and compares against
    the analytic triangles: every per-year triangle and the total, or
    year's triangle alone when year is given. The direct derivative of the
    plug-in MSE value (of year, or of the total) is reported in notes but
    deliberately not compared: it is a different object from the impact
    formula, whose estimation-error part arises by substitution after
    differentiation.
    """
    dim = inc.dimension
    if year is not None and not 1 <= year <= dim:
        raise ValueError(f"accident year {year} out of range 1..{dim}")
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    fit = Fit.build(cum, factors, estimate_sigmas(cum, factors))
    blocks = _mse_blocks(inc)
    dlnf, dcrow, dult = blocks["dlnf"], blocks["dcrow"], blocks["dult"]
    report = VerificationReport(statistic="mse-components", tolerance=tolerance)
    rows = np.arange(dim)
    observed = observed_mask(dim)

    # building block: d ln f, Fit.g on the rows inside its column sums
    inside = _in_column_sums(dim)
    d_lnf = np.where(inside, fit.g[:, None, :], 0.0)
    report.notes["d_ln_f_max_rel"] = _max_rel(d_lnf, dlnf, observed)

    # building block: dChat_q = IF(R_q) + 1{k=q}
    d_ult = np.stack([_reserve_ay(fit, q) for q in range(2, dim + 1)])
    d_ult[rows[:-1], rows[1:]] += 1.0
    report.notes["d_ultimate_max_rel"] = _max_rel(d_ult, dult[1:], observed)

    # building block: d(sum_n C_{n,r} * f_r^2); X_{k,j} is inside C_{k,r}
    # for j <= r
    fsq = (fit.factors**2)[:, None, None]
    den = fit.den[:, None, None]
    member = inside & (rows <= rows[:-1, None, None])
    analytic = fsq * (member + 2.0 * d_lnf * den)
    numeric = inside * dcrow[:-1] * fsq + 2.0 * fsq * dlnf * den
    report.notes["d_colsum_fsq_max_rel"] = _max_rel(analytic, numeric, observed)

    # assembled impacts vs analytic: every year's and the total, or year's
    yearly, total = _assemble_mse_from_blocks(fit, blocks)
    if year is None:
        checks = [(_mse_ay(fit, i), yearly[i - 1]) for i in range(2, dim + 1)]
        checks.append((_mse_total(fit), total))
    else:
        checks = [(_mse_ay(fit, year), yearly[year - 1])]
    for analytic, numeric in checks:
        report.add_triangle(analytic, numeric)

    # direct derivative of the plug-in value of the last checked statistic,
    # sigma^2 held at the baseline; documented only
    def plugin(x):
        refit = Fit.of(cumulate_values(x), sigma2=fit.sigma2)
        return refit.mse_total if year is None else refit.mse_by_year[..., year - 1]

    direct = complex_step(inc, plugin)
    report.notes["direct_fd_max_rel"] = _max_rel(checks[-1][0], direct, observed)
    return report


def verify_quantile_impacts(
    inc: IncrementalTriangle,
    q: float = 0.995,
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Chain-rule verification of the quantile impact triangle.

    The closed-form quantile map F(R, m) is differentiated by complex step
    in its two scalar arguments; those partials are combined with the
    complex-step reserve impacts and the component-assembled MSE impacts
    and compared against the analytic quantile impact triangle.
    """
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    fit = Fit.build(cum, factors, sigmas)
    total_reserve = np.sum(fit.reserves)
    mse = fit.mse_total
    analytic = impact_quantile(cum, factors, sigmas, q)
    df_dr = _partial(lambda r: lognormal_quantile(fit_lognormal(r, mse), q), total_reserve)
    df_dm = _partial(lambda m: lognormal_quantile(fit_lognormal(total_reserve, m), q), mse)
    if_r = complex_step(inc, lambda x: np.sum(Fit.of(cumulate_values(x)).reserves, axis=-1))
    if_m = _assemble_mse_from_blocks(fit, _mse_blocks(inc))[1]
    report = VerificationReport(statistic="quantile", tolerance=tolerance)
    report.add_triangle(analytic.values, df_dr * if_r + df_dm * if_m)
    return report

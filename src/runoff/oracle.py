"""Finite-difference verification of the analytic impact triangles.

Reserve impacts are checked against plain central differences of the
recomputed statistic. MSE impacts cannot be checked that way: their
estimation-error part substitutes an approximation after differentiation,
so the raw derivative of the plug-in estimator is a different object.
For those the oracle verifies each differentiable building block by
finite differences and re-assembles the impact formula from the FD
blocks, holding the variance scales at their baseline values throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import (
    Fit,
    _ahead,
    estimate_development_factors,
    estimate_sigmas,
    mse_accident_year,
    mse_total,
    project_ultimates,
    reserves,
)
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
from runoff.triangle import IncrementalTriangle, cumulate, observed_mask


@dataclass(frozen=True)
class FdScheme:
    """Central differences with step max(relative_step * |X|, absolute_floor)."""

    relative_step: float = 1e-6
    absolute_floor: float = 1e-2
    mode: str = "central"


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


def _refit(kind: str, year, priors: PriorUltimates | None):
    """The recompute-everything functional of one reserve statistic: the
    chain-ladder (reserve-*) or BF (bf-*) reserve, of year for the per-year
    kinds (-ay), else the total."""

    def statistic(t):
        cum = cumulate(t)
        factors = estimate_development_factors(cum)
        if kind.startswith("bf"):
            by_year, total = bf_reserves(cum, factors, priors)
        else:
            by_year, total = reserves(cum, factors)
        return by_year[year - 1] if kind.endswith("-ay") else total

    return statistic


def verify_reserve_impacts(
    inc: IncrementalTriangle,
    statistic: str = "reserve-total",
    year: int | None = None,
    priors: PriorUltimates | None = None,
    scheme: FdScheme = FdScheme(),
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Compare an analytic reserve impact triangle to finite differences.

    statistic: reserve-total | reserve-ay | bf-total | bf-ay. Per-year
    statistics need year. BF priors default to the frozen chain-ladder
    ultimates of the unperturbed triangle.
    """
    if statistic.endswith("-ay") and year is None:
        raise ValueError(f"{statistic} needs an accident year")
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    if statistic.startswith("bf") and priors is None:
        priors = default_priors(cum, factors)
    analytic = {
        "reserve-total": lambda: impact_reserve_total(cum, factors),
        "reserve-ay": lambda: impact_reserve_ay(cum, factors, year),
        "bf-total": lambda: impact_bf_total(cum, factors, priors),
        "bf-ay": lambda: impact_bf_ay(cum, factors, priors, year),
    }[statistic]()
    functional = _refit(statistic, year, priors)
    report = VerificationReport(statistic=statistic, tolerance=tolerance)
    cells = list(inc.observed_cells())
    numeric = [fd_derivative(functional, inc, k, j, scheme) for k, j in cells]
    observed = observed_mask(inc.dimension)
    report.add(*np.transpose(cells), analytic.values[observed], numeric)
    return report


def _state(inc: IncrementalTriangle):
    """Baseline quantities reused by the block assembly."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    return cum, factors


def _block_snapshot(inc: IncrementalTriangle):
    """Everything the MSE formulas differentiate, as plain arrays."""
    cum, factors = _state(inc)
    # math.log, not np.log: numpy's log is not bound to round as libm's
    # does, and the verdicts hang on the last bit of every refit.
    lnf = np.array([math.log(f) for f in factors.values.tolist()])
    return np.nan_to_num(cum.values), lnf, project_ultimates(cum, factors)


def _fd_blocks(inc: IncrementalTriangle, scheme: FdScheme):
    """Per-cell central differences of ln f_s, C_{k,r} and Chat_q.

    Returns dict with dlnf[s][k,j], dcrow[r][k,j] and dult[q][k,j] arrays
    (1-based logical indices mapped onto 0-based array slots). A change of
    X_{k,j} moves only row k of the cumulative triangle, whose rows are
    independent cumulative sums, so dC_{n,r} is exactly 0 for n != k and
    dcrow keeps row k alone: dcrow[r][k,j] = dC_{k,r} / dX_{k,j}.
    """
    dim = inc.dimension
    dlnf = np.zeros((dim - 1, dim, dim))
    dcrow = np.zeros((dim, dim, dim))
    dult = np.zeros((dim, dim, dim))
    for k, j in inc.observed_cells():
        x = inc.cell(k, j)
        h = max(scheme.relative_step * abs(x), scheme.absolute_floor)
        if x - h < 0.0:
            c0, lnf0, ult0 = _block_snapshot(inc)
            step = h
        else:
            c0, lnf0, ult0 = _block_snapshot(inc.with_cell(k, j, x - h))
            step = 2.0 * h
        c1, lnf1, ult1 = _block_snapshot(inc.with_cell(k, j, x + h))
        dlnf[:, k - 1, j - 1] = (lnf1 - lnf0) / step
        dult[:, k - 1, j - 1] = (ult1 - ult0) / step
        dcrow[:, k - 1, j - 1] = (c1[k - 1] - c0[k - 1]) / step
    return {"dlnf": dlnf, "dcrow": dcrow, "dult": dult}


def _in_column_sums(dim: int) -> np.ndarray:
    """(I-1, I, 1) mask, slot [s-1, k-1]: row k enters the column sums of
    f_s, k <= I-s."""
    rows = np.arange(dim)
    return (rows <= dim - 1 - rows[1:, None])[:, :, None]


def _assemble_mse_from_blocks(fit: Fit, blocks):
    """Rebuild the MSE impact triangles from FD blocks, as (yearly, total).

    Same algebra as the analytic formulas, but every derivative factor
    (d ln f, dC, dChat) is the finite-difference value. Variance scales
    and all non-differentiated quantities are read from the baseline fit.
    yearly[i-1] is the impact on mse_i; total adds the cross covariances
    u_i v_i, with u_i = ult_i later_i and v_i = 2 w_i, by the product rule.
    """
    dim = fit.dimension
    dlnf, dcrow, dult = blocks["dlnf"], blocks["dcrow"], blocks["dult"]
    rows = np.arange(dim)
    # d(mse_i): rows k < i get the shrink constant times the reserve impact
    # assembled from d ln f; row i the diagonal constant times the FD of
    # the latest cumulative C_{i, I-i+1}.
    yearly = (_shrink(fit) * fit.ult)[:, None, None] * _ahead(dlnf)
    yearly *= (rows < rows[:, None])[:, :, None]
    yearly[rows, rows] = _mse_diagonal(fit)[:, None] * dcrow[dim - 1 - rows, rows]
    # d(v_i): the sum over r >= I-i+1 of coef_r d(B_r f_r^2) / f_r^2, where
    # dC_{k,r} enters the column sum B_r for rows k <= I-r only
    coef = -2.0 * fit.sigma2 / (fit.den**2 * fit.factors**2)
    d_colsum = _in_column_sums(dim) * dcrow[:-1] + 2.0 * fit.den[:, None, None] * dlnf
    dv = _ahead(coef[:, None, None] * d_colsum)
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
    scheme: FdScheme = FdScheme(),
    tolerance: float = 1e-5,
    year: int | None = None,
) -> VerificationReport:
    """Component-protocol verification of the MSE impact triangles.

    FD-checks the building blocks (d ln f_s, dC_{n,r}, dChat_q, and the
    derivative of column-sum * f^2), re-assembles the per-year and total
    MSE impacts from the FD blocks, and compares against the analytic
    triangles: every per-year triangle and the total, or year's triangle
    alone when year is given. The direct finite difference of the plug-in
    MSE value (of year, or of the total) is reported in notes but
    deliberately not compared: it is a different object from the impact
    formula, whose estimation-error part arises by substitution after
    differentiation.
    """
    dim = inc.dimension
    if year is not None and not 1 <= year <= dim:
        raise ValueError(f"accident year {year} out of range 1..{dim}")
    cum, factors = _state(inc)
    sigmas = estimate_sigmas(cum, factors)
    fit = Fit.build(cum, factors, sigmas)
    blocks = _fd_blocks(inc, scheme)
    dlnf, dcrow, dult = blocks["dlnf"], blocks["dcrow"], blocks["dult"]
    report = VerificationReport(statistic="mse-components", tolerance=tolerance)
    rows = np.arange(dim)
    observed = observed_mask(dim)
    cells = list(inc.observed_cells())

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
    yearly_fd, total_fd = _assemble_mse_from_blocks(fit, blocks)
    if year is None:
        checks = [(_mse_ay(fit, i), yearly_fd[i - 1]) for i in range(2, dim + 1)]
        checks.append((_mse_total(fit), total_fd))
    else:
        checks = [(_mse_ay(fit, year), yearly_fd[year - 1])]
    for analytic, numeric in checks:
        report.add(*np.transpose(cells), analytic[observed], numeric[observed])

    # direct FD of the plug-in value of the last checked statistic, documented only
    checked = checks[-1][0]

    def plugin(t):
        c = cumulate(t)
        f = estimate_development_factors(c)
        if year is None:
            return mse_total(c, f, sigmas)
        return mse_accident_year(c, f, sigmas, year)

    direct = [fd_derivative(plugin, inc, k, j, scheme) for k, j in cells]
    worst_direct = np.max(relative_error(checked[observed], direct))
    report.notes["direct_fd_max_rel"] = float(worst_direct)
    return report


def verify_quantile_impacts(
    inc: IncrementalTriangle,
    q: float = 0.995,
    scheme: FdScheme = FdScheme(),
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Chain-rule verification of the quantile impact triangle.

    The closed-form quantile map F(R, m) is differentiated numerically in
    its two scalar arguments; those partials are combined with the
    FD reserve impacts and the component-assembled MSE impacts and
    compared against the analytic quantile impact triangle.
    """
    cum, factors = _state(inc)
    sigmas = estimate_sigmas(cum, factors)
    fit = Fit.build(cum, factors, sigmas)
    total_reserve = float(np.sum(fit.reserves))
    mse = fit.mse_total
    analytic = impact_quantile(cum, factors, sigmas, q)

    def quantile_map(r, m):
        return lognormal_quantile(fit_lognormal(r, m), q)

    h_r = scheme.relative_step * total_reserve
    h_m = scheme.relative_step * mse
    df_dr = (
        quantile_map(total_reserve + h_r, mse) - quantile_map(total_reserve - h_r, mse)
    ) / (2.0 * h_r)
    df_dm = (
        quantile_map(total_reserve, mse + h_m) - quantile_map(total_reserve, mse - h_m)
    ) / (2.0 * h_m)

    total_statistic = _refit("reserve-total", None, None)
    blocks = _fd_blocks(inc, scheme)
    mse_fd = _assemble_mse_from_blocks(fit, blocks)[1]
    report = VerificationReport(statistic="quantile", tolerance=tolerance)
    cells = list(inc.observed_cells())
    if_r = np.array([fd_derivative(total_statistic, inc, k, j, scheme) for k, j in cells])
    observed = observed_mask(inc.dimension)
    numeric = df_dr * if_r + df_dm * mse_fd[observed]
    report.add(*np.transpose(cells), analytic.values[observed], numeric)
    return report

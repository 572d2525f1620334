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
    estimate_development_factors,
    estimate_sigmas,
    mse_total,
    project_ultimates,
    reserves,
)
from runoff.impact import (
    d_ln_f,
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
)
from runoff.quantile import fit_lognormal, impact_quantile, inv_std_normal_cdf
from runoff.triangle import IncrementalTriangle, column_partial_sum, cumulate


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

    def add(self, k: int, j: int, analytic: float, numeric: float):
        analytic = float(analytic)
        numeric = float(numeric)
        self.cells.append(
            {
                "k": int(k),
                "j": int(j),
                "analytic": analytic,
                "numeric": numeric,
                "rel_error": relative_error(analytic, numeric),
            }
        )

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


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


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


def _reserve_statistic(kind: str, year, priors: PriorUltimates | None):
    """Build the recompute-everything functional for one reserve statistic."""

    def total(t):
        cum = cumulate(t)
        return reserves(cum, estimate_development_factors(cum))[1]

    def per_year(t):
        cum = cumulate(t)
        return reserves(cum, estimate_development_factors(cum))[0][year - 1]

    def bf_total(t):
        cum = cumulate(t)
        return bf_reserves(cum, estimate_development_factors(cum), priors)[1]

    def bf_year(t):
        cum = cumulate(t)
        return bf_reserves(cum, estimate_development_factors(cum), priors)[0][year - 1]

    return {
        "reserve-total": total,
        "reserve-ay": per_year,
        "bf-total": bf_total,
        "bf-ay": bf_year,
    }[kind]


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
    functional = _reserve_statistic(statistic, year, priors)
    report = VerificationReport(statistic=statistic, tolerance=tolerance)
    for k, j in inc.observed_cells():
        numeric = fd_derivative(functional, inc, k, j, scheme)
        report.add(k, j, analytic.cell(k, j), numeric)
    return report


def _state(inc: IncrementalTriangle):
    """Baseline quantities reused by the block assembly."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    return cum, factors


def _block_snapshot(inc: IncrementalTriangle):
    """Everything the MSE formulas differentiate, as plain arrays."""
    cum, factors = _state(inc)
    dim = inc.dimension
    lnf = np.array([math.log(factors.factor(s)) for s in range(1, dim)])
    ult = project_ultimates(cum, factors)
    return cum.values, lnf, ult


def _fd_blocks(inc: IncrementalTriangle, scheme: FdScheme):
    """Per-cell central differences of ln f_s, C_{n,r}, and Chat_q.

    Returns dict with dlnf[s][k,j], dc[n,r][k,j], dult[q][k,j] arrays
    (1-based logical indices mapped onto 0-based array slots).
    """
    dim = inc.dimension
    dlnf = np.zeros((dim - 1, dim, dim))
    dc = np.zeros((dim, dim, dim, dim))
    dult = np.zeros((dim, dim, dim))
    for k, j in inc.observed_cells():
        x = inc.cell(k, j)
        h = max(scheme.relative_step * abs(x), scheme.absolute_floor)
        if x - h < 0.0:
            c0, lnf0, ult0 = _block_snapshot(inc)
            c1, lnf1, ult1 = _block_snapshot(inc.with_cell(k, j, x + h))
            dlnf[:, k - 1, j - 1] = (lnf1 - lnf0) / h
            dult[:, k - 1, j - 1] = (ult1 - ult0) / h
            dcc = (np.nan_to_num(c1) - np.nan_to_num(c0)) / h
        else:
            c1, lnf1, ult1 = _block_snapshot(inc.with_cell(k, j, x + h))
            c2, lnf2, ult2 = _block_snapshot(inc.with_cell(k, j, x - h))
            dlnf[:, k - 1, j - 1] = (lnf1 - lnf2) / (2.0 * h)
            dult[:, k - 1, j - 1] = (ult1 - ult2) / (2.0 * h)
            dcc = (np.nan_to_num(c1) - np.nan_to_num(c2)) / (2.0 * h)
        dc[:, :, k - 1, j - 1] = dcc
    return {"dlnf": dlnf, "dc": dc, "dult": dult}


def _assemble_mse_from_blocks(inc: IncrementalTriangle, blocks, per_year: bool = False):
    """Rebuild the MSE impact triangles from FD blocks.

    Same algebra as the analytic formulas, but every derivative factor
    (d ln f, dC, dChat) is the finite-difference value. Variance scales
    and all non-differentiated quantities stay at baseline. Returns the
    total matrix, or per-year matrices when per_year is set.
    """
    cum, factors = _state(inc)
    dim = inc.dimension
    sigmas = estimate_sigmas(cum, factors)
    fit = Fit.build(cum, factors, sigmas)
    ult = fit.ult
    dlnf, dc, dult = blocks["dlnf"], blocks["dc"], blocks["dult"]
    yearly = {}
    total = np.zeros((dim, dim))
    for i in range(2, dim + 1):
        latest = fit.latest[i - 1]
        fprod = fit.fprod[i - 1]
        w = fit.w[i - 1]
        proc = fit.process[i - 1]
        # d(mse_i): the diagonal case differentiates the explicit latest
        # cumulative (FD of C_{i, I-i+1}); below the diagonal the shrink
        # constant multiplies the reserve impact assembled from d ln f.
        m_i = np.zeros((dim, dim))
        shrink = -2.0 * latest * fprod * math.sqrt(w) if w > 0.0 else 0.0
        for k in range(1, i + 1):
            for j in range(1, dim - k + 2):
                if k == i:
                    dlatest = dc[i - 1, dim - i, k - 1, j - 1]
                    m_i[k - 1, j - 1] = (proc + 2.0 * latest * fprod**2 * w) * dlatest
                else:
                    if_res = ult[i - 1] * float(
                        np.sum(dlnf[dim - i : dim - 1, k - 1, j - 1])
                    )
                    m_i[k - 1, j - 1] = shrink * if_res
        yearly[i] = m_i
        # cross covariance u_i * v_i by the product rule on FD blocks
        u_i = ult[i - 1] * float(np.sum(ult[i:]))
        v_i = 2.0 * w
        cross = np.zeros((dim, dim))
        for k in range(1, dim + 1):
            for j in range(1, dim - k + 2):
                dv = 0.0
                for r in range(dim - i + 1, dim):
                    s_r = fit.den[r - 1]
                    f_r2 = fit.factors[r - 1] ** 2
                    inner = 0.0
                    for n in range(1, dim - r + 1):
                        c_nr = cum.cell(n, r)
                        dln_c = dc[n - 1, r - 1, k - 1, j - 1] / c_nr
                        inner += (
                            f_r2
                            * c_nr
                            * (dln_c + 2.0 * dlnf[r - 1, k - 1, j - 1])
                        )
                    dv += -2.0 * fit.sigma2[r - 1] * inner / (s_r * f_r2) ** 2
                later_d = float(np.sum(dult[i:dim, k - 1, j - 1]))
                du = ult[i - 1] * later_d + float(np.sum(ult[i:])) * dult[
                    i - 1, k - 1, j - 1
                ]
                cross[k - 1, j - 1] = u_i * dv + v_i * du
        total += m_i + cross
    return yearly if per_year else total


def verify_mse_components(
    inc: IncrementalTriangle,
    scheme: FdScheme = FdScheme(),
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Component-protocol verification of the MSE impact triangles.

    FD-checks the building blocks (d ln f_s, dC_{n,r}, dChat_q, and the
    derivative of column-sum * f^2), re-assembles the per-year and total
    MSE impacts from the FD blocks, and compares against the analytic
    triangles. The direct finite difference of the plug-in MSE value is
    reported in notes but deliberately not compared: it is a different
    object from the impact formula, whose estimation-error part arises
    by substitution after differentiation.
    """
    dim = inc.dimension
    cum, factors = _state(inc)
    sigmas = estimate_sigmas(cum, factors)
    blocks = _fd_blocks(inc, scheme)
    report = VerificationReport(statistic="mse-components", tolerance=tolerance)

    # building block: d ln f
    worst_dlnf = 0.0
    for s in range(1, dim):
        for k, j in inc.observed_cells():
            worst_dlnf = max(
                worst_dlnf,
                relative_error(
                    d_ln_f(cum, s, k, j), blocks["dlnf"][s - 1, k - 1, j - 1]
                ),
            )
    report.notes["d_ln_f_max_rel"] = float(worst_dlnf)

    # building block: dChat_q = IF(R_q) + 1{k=q}
    worst_dult = 0.0
    for qy in range(2, dim + 1):
        if_r = impact_reserve_ay(cum, factors, qy)
        for k, j in inc.observed_cells():
            analytic = if_r.cell(k, j) + (1.0 if k == qy else 0.0)
            worst_dult = max(
                worst_dult,
                relative_error(analytic, blocks["dult"][qy - 1, k - 1, j - 1]),
            )
    report.notes["d_ultimate_max_rel"] = float(worst_dult)

    # building block: d(sum_n C_{n,r} * f_r^2)
    worst_dsf = 0.0
    for r in range(1, dim):
        s_r = column_partial_sum(cum, r, dim - r)
        f_r = factors.factor(r)
        for k, j in inc.observed_cells():
            member = 1.0 if (k <= dim - r and j <= r) else 0.0
            analytic = f_r**2 * (member + 2.0 * d_ln_f(cum, r, k, j) * s_r)
            numeric = 0.0
            for n in range(1, dim - r + 1):
                numeric += blocks["dc"][n - 1, r - 1, k - 1, j - 1] * f_r**2
            numeric += 2.0 * f_r**2 * blocks["dlnf"][r - 1, k - 1, j - 1] * s_r
            worst_dsf = max(worst_dsf, relative_error(analytic, numeric))
    report.notes["d_colsum_fsq_max_rel"] = float(worst_dsf)

    # assembled per-year impacts vs analytic
    yearly_fd = _assemble_mse_from_blocks(inc, blocks, per_year=True)
    for i in range(2, dim + 1):
        analytic_i = impact_mse_ay(cum, factors, sigmas, i)
        for k, j in inc.observed_cells():
            report.add(k, j, analytic_i.cell(k, j), float(yearly_fd[i][k - 1, j - 1]))

    # assembled total impact vs analytic
    total_fd = _assemble_mse_from_blocks(inc, blocks)
    analytic_total = impact_mse_total(cum, factors, sigmas)
    for k, j in inc.observed_cells():
        report.add(k, j, analytic_total.cell(k, j), float(total_fd[k - 1, j - 1]))

    # direct FD of the plug-in value, documented only
    def plugin_total(t):
        c = cumulate(t)
        return mse_total(c, estimate_development_factors(c), sigmas)

    worst_direct = 0.0
    for k, j in inc.observed_cells():
        direct = fd_derivative(plugin_total, inc, k, j, scheme)
        worst_direct = max(worst_direct, relative_error(analytic_total.cell(k, j), direct))
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
    total_reserve = reserves(cum, factors)[1]
    mse = mse_total(cum, factors, sigmas)
    z = inv_std_normal_cdf(q)

    def quantile_map(r, m):
        fit = fit_lognormal(r, m)
        return math.exp(fit.mu + math.sqrt(fit.sigma2) * z)

    h_r = scheme.relative_step * total_reserve
    h_m = scheme.relative_step * mse
    df_dr = (
        quantile_map(total_reserve + h_r, mse) - quantile_map(total_reserve - h_r, mse)
    ) / (2.0 * h_r)
    df_dm = (
        quantile_map(total_reserve, mse + h_m) - quantile_map(total_reserve, mse - h_m)
    ) / (2.0 * h_m)

    def total_statistic(t):
        c = cumulate(t)
        return reserves(c, estimate_development_factors(c))[1]

    blocks = _fd_blocks(inc, scheme)
    mse_fd = _assemble_mse_from_blocks(inc, blocks)
    analytic = impact_quantile(cum, factors, sigmas, q)
    report = VerificationReport(statistic="quantile", tolerance=tolerance)
    for k, j in inc.observed_cells():
        if_r = fd_derivative(total_statistic, inc, k, j, scheme)
        numeric = df_dr * if_r + df_dm * float(mse_fd[k - 1, j - 1])
        report.add(k, j, analytic.cell(k, j), numeric)
    return report

"""Complex-step verification of the analytic impact triangles.

Every numerical derivative is a complex step (Squire & Trapp, SIAM Review
1998): dS/dX_{k,j} = Im S(X + ih e_{k,j}) / h with h = 1e-30, taken
through the library's own Fit, stacked over the perturbed cells. The step
adds ih to C_{k,r} for r >= j alone, so each cell's fit is the verifier's
baseline Fit with ih added to the column sums and latest diagonal that
C_{k,r} enters: no triangle is perturbed or cumulated again. It subtracts
nothing, so there is no step size to choose and the derivative is exact
to rounding. Reserve impacts are checked against the derivative of the
refit reserve. MSE impacts cannot be checked that way: their
estimation-error part substitutes an approximation after
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
from runoff.chainladder import Fit, _ahead, _fit, estimate_development_factors, estimate_sigmas
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
from runoff.quantile import _impact_quantile, fit_lognormal, lognormal_quantile
from runoff.triangle import IncrementalTriangle, _read_only, cumulate, observed_mask

# The imaginary step h. Its square vanishes against any real part, and
# times any derivative met here it stays far above the smallest double.
STEP = 1e-30
# n cells times I, the size of each (n, I) array of one stacked refit;
# bounds the memory of a stack at any I.
BATCH_CELLS = 2**14


@dataclass(frozen=True)
class FdScheme:
    """Central differences with step max(relative_step * |X|, absolute_floor)."""

    relative_step: float = 1e-6
    absolute_floor: float = 1e-2


# The statistics verify_reserve_impacts checks.
RESERVE_STATISTICS = ("reserve-total", "reserve-ay", "bf-total", "bf-ay")

# The per-cell columns of a VerificationReport, in the order of its cell dicts.
COLUMNS = ("k", "j", "analytic", "numeric", "rel_error")


@dataclass(eq=False)
class VerificationReport:
    """The checked cells as columns: k, j (int arrays), analytic, numeric
    and rel_error (float arrays), one entry per cell in the order added;
    read-only, as add replaces them."""

    statistic: str
    tolerance: float
    notes: dict = field(default_factory=dict)
    k: np.ndarray = field(init=False, repr=False)
    j: np.ndarray = field(init=False, repr=False)
    analytic: np.ndarray = field(init=False, repr=False)
    numeric: np.ndarray = field(init=False, repr=False)
    rel_error: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.k = self.j = _read_only(np.zeros(0, dtype=int))
        self.analytic = self.numeric = self.rel_error = _read_only(np.zeros(0))
        self._cells = None

    def add(self, k, j, analytic, numeric):
        """Record cell (k, j), or one cell per entry of equal-length arrays."""
        analytic = np.ravel(np.asarray(analytic, dtype=float))
        numeric = np.ravel(np.asarray(numeric, dtype=float))
        new = (np.ravel(k), np.ravel(j), analytic, numeric, relative_error(analytic, numeric))
        for name, values in zip(COLUMNS, new):
            setattr(self, name, _read_only(np.concatenate((getattr(self, name), values))))
        self._cells = None

    def add_triangle(self, analytic: np.ndarray, numeric: np.ndarray):
        """Record every observed cell of two (..., I, I) stacks of triangles,
        triangle by triangle, each row-major."""
        observed = observed_mask(analytic.shape[-1])
        analytic, numeric = analytic[..., observed], numeric[..., observed]
        k, j = (np.broadcast_to(c + 1, analytic.shape) for c in np.nonzero(observed))
        self.add(k, j, analytic, numeric)

    @property
    def cells(self) -> list:
        """One dict per checked cell, keyed by COLUMNS. Built on the first
        read after an add and kept, so every read returns the same list."""
        if self._cells is None:
            columns = [getattr(self, name).tolist() for name in COLUMNS]
            self._cells = [dict(zip(COLUMNS, row)) for row in zip(*columns)]
        return self._cells

    @property
    def max_rel_error(self) -> float:
        """The largest rel_error, 0.0 for no cells; NaN if any cell's is."""
        return float(np.max(self.rel_error, initial=0.0))

    @property
    def worst_cell(self):
        """(k, j) of the first cell with the largest rel_error, or None."""
        if not self.rel_error.size:
            return None
        m = np.argmax(self.rel_error)
        return int(self.k[m]), int(self.j[m])

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


def complex_step(fit: Fit, statistic: Callable) -> np.ndarray:
    """d(statistic)/dX_{k,j} for every observed cell, on two trailing (I, I)
    axes that hold zero outside the observed region.

    statistic maps a Fit stacked on a leading axis of n entries to an
    (n, ...) array and must be complex-safe, as the library's array forms
    are. Entry m of a stack carries the imaginary step on one observed cell
    (k, j). X_{k,j} + ih adds exactly ih to C_{k,r} for r >= j and changes
    nothing else, so entry m is the baseline fit's column sums and latest
    diagonal with ih added where C_{k,r} enters them: A_s for j <= s+1 and
    B_s for j <= s when k <= I-s, and the latest cell of row k. The real
    parts are the baseline's exactly. Every entry carries fit.sigma2, and
    its Mack sums are computed only if statistic reads them. A stack holds
    BATCH_CELLS // I cells, so each of its (n, I) arrays at most
    BATCH_CELLS values.
    """
    dim = fit.dimension
    observed = observed_mask(dim)
    k, j = np.nonzero(observed)
    s = np.arange(1, dim)
    size = max(1, BATCH_CELLS // dim)
    parts = []
    for start in range(0, k.size, size):
        kk, jj = k[start : start + size], j[start : start + size, None]
        inside = observed[kk, 1:]  # k <= I-s
        stack = Fit.of_sums(
            fit.num + np.where(inside & (jj <= s), STEP * 1j, 0.0),
            fit.den + np.where(inside & (jj < s), STEP * 1j, 0.0),
            fit.latest + np.where(kk[:, None] == np.arange(dim), STEP * 1j, 0.0),
            sigma2=fit.sigma2,
        )
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
    if statistic not in RESERVE_STATISTICS:
        raise ValueError(
            f"unknown statistic {statistic!r}; expected one of {', '.join(RESERVE_STATISTICS)}"
        )
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

    def refit(fit):
        by_year = bf_reserve_values(fit.fprod, priors.values) if bf else fit.reserves
        return by_year[..., year - 1] if statistic.endswith("-ay") else np.sum(by_year, axis=-1)

    report = VerificationReport(statistic=statistic, tolerance=tolerance)
    report.add_triangle(analytic.values, complex_step(_fit(cum, factors), refit))
    return report


def _column_totals(fit: Fit) -> np.ndarray:
    """Per development year r, the sum of C_{n,r} over every observed row n:
    B_r plus the latest cell of year I-r+1, and C_{1,I} for r = I."""
    return np.concatenate((fit.den + fit.latest[..., :0:-1], fit.latest[..., :1]), axis=-1)


def _mse_blocks(fit: Fit, extra: Callable | None = None) -> dict:
    """Complex-step dlnf[s-1] = d ln f_s, dcrow[r-1] = dC_{k,r} and
    dult[q-1] = dChat_q, each over the cells (k, j) on two trailing axes,
    stepped from the baseline fit. X_{k,j} moves row k of the cumulative
    triangle alone, so dC_{k,r} is the derivative of the sum of C_{n,r}
    over every row n.

    extra, when given, maps the stacked fit (which carries the baseline's
    sigma2) to one more statistic per entry, differentiated in the same
    stack: its derivative is under "extra"."""
    dim = fit.dimension

    def blocks(stack):
        values = [np.log(stack.factors), _column_totals(stack), stack.ult]
        if extra is not None:
            values.append(extra(stack)[..., None])
        return np.concatenate(values, axis=-1)

    d = complex_step(fit, blocks)
    out = {
        "dlnf": d[: dim - 1],
        "dcrow": d[dim - 1 : 2 * dim - 1],
        "dult": d[2 * dim - 1 : 3 * dim - 1],
    }
    if extra is not None:
        out["extra"] = d[-1]
    return out


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
    fit = _fit(cum, factors, estimate_sigmas(cum, factors))

    def plugin(refit):
        return refit.mse_total if year is None else refit.mse_by_year[..., year - 1]

    blocks = _mse_blocks(fit, plugin)
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
        analytic = np.stack([_mse_ay(fit, i) for i in range(2, dim + 1)] + [_mse_total(fit)])
        numeric = np.concatenate((yearly[1:], total[None]))
    else:
        analytic, numeric = _mse_ay(fit, year)[None], yearly[year - 1][None]
    report.add_triangle(analytic, numeric)

    # direct derivative of the plug-in value of the last checked statistic,
    # sigma^2 held at the baseline, from the blocks' stack; documented only
    report.notes["direct_fd_max_rel"] = _max_rel(analytic[-1], blocks["extra"], observed)
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
    fit = _fit(cum, factors, estimate_sigmas(cum, factors))
    total_reserve = np.sum(fit.reserves)
    mse = fit.mse_total
    analytic = _impact_quantile(fit, q)
    df_dr = _partial(lambda r: lognormal_quantile(fit_lognormal(r, mse), q), total_reserve)
    df_dm = _partial(lambda m: lognormal_quantile(fit_lognormal(total_reserve, m), q), mse)
    blocks = _mse_blocks(fit, lambda refit: np.sum(refit.reserves, axis=-1))
    if_m = _assemble_mse_from_blocks(fit, blocks)[1]
    report = VerificationReport(statistic="quantile", tolerance=tolerance)
    report.add_triangle(analytic.values, df_dr * blocks["extra"] + df_dm * if_m)
    return report

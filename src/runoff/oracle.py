"""Complex-step verification of the analytic impact triangles.

Every numerical derivative is a complex step (Squire & Trapp, SIAM
Review 1998): dS/dX_{k,j} = Im S(X + ih e_{k,j}) / h, h = 1e-30 at the
scale of the data (complex_step), taken through the library's own Fit.
Every statistic reads the triangle only through the 3I-2 fitted sums
(the column sums A_s, B_s and the latest diagonal L_i), and X_{k,j}
enters each of them with coefficient 1 or not at all; so the oracle
steps each sum of the baseline Fit once, in one stack, and keeps the
derivatives as gradients over the sums: a VerificationReport takes the
analytic and numeric ones and maps both to the observed cells (_cells)
by runoff.impact's _to_cells, the gather of the chain rule (_effects)
the analytic impacts take too, a few triangles at a time for its verdict (_verdict) and whole
only when its cell columns are read. Each verifier steps the triangle's
baseline (chainladder._baseline), cumulated and fitted once for the CLI
and all its verifiers.
The step subtracts nothing, so there is no step size to choose and the
derivative is exact to rounding, unless a stacked intermediate overflows:
a NaN verdict from a step that is not finite raises ValueError (_verify).
Every verifier compares an analytic gradient with the complex step of
the statistic it is the gradient of, the gradient read from the one
table of the statistics (_STATISTICS, year None the total), which the
CLI computes them from too, on one path (_verify): the complex step of
its value (the refit reserves), its own numeric (the quantile map's), or
for the MSE and RMSE the MSE verifier's (_mse_components).
The MSE impacts hold sigma^2 fixed and substitute the estimation error
after differentiation, so the MSE verifier alone steps the MSE with the
coefficients its formula holds fixed frozen at the baseline
(_frozen_mse), with its building blocks and the plug-in MSE in one stack
(_stepped_mse), picking its targets by one row slice. That stack also
holds the raw imaginary parts of its total reserve and of the total's
frozen MSE on the baseline Fit, one (2, 3I-2) record (_STEPPED) that
_stepped_mse alone writes: the quantile reads the triangle only through
those two totals, so its verifier steps the map by them alone
(_stepped_quantile), with no stack of its own where the fit holds them
and the MSE verifier's where not: every Mack verifier steps that stack.

A cell's rel_error is |a - n| / max(|a|, |n|, I eps S / TOLERANCE), S
the largest |analytic| of the triangle the cell belongs to: a difference
below I eps S, the rounding of an I-term sum at the triangle's scale,
reads at most the default tolerance, and scaling X by a power of two
leaves every rel_error as it is but the quantile's, whose log and exp
round differently at another scale.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np

from runoff.bornhuetter import PriorUltimates, _prior_values, bf_reserve_values, default_priors
from runoff.chainladder import Fit, _ahead, _baseline, _product
from runoff.impact import _bf, _grad, _mse, _reserve, _to_cells
from runoff.quantile import _quantile, fit_lognormal, lognormal_quantile
from runoff.triangle import IncrementalTriangle, _cached, _cells, _read_only, _records

__all__ = ["FdScheme", "VerificationReport", "fd_derivative", "verify_reserve_impacts",
           "verify_mse_components", "verify_quantile_impacts"]

# The imaginary step h relative to the data (see complex_step): h^2 vanishes
# against every real part, h times any derivative met here stays far above
# the smallest double at any scale, and X -> 2^m X steps by 2^m h exactly.
STEP = 1e-30

# The default tolerance of the verifiers, and the rel_error a difference of
# I eps S reads (see _floor).
TOLERANCE = 1e-5
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass(frozen=True)
class FdScheme:
    """Central differences with step max(relative_step * |X|, absolute_floor):
    relative_step a finite number >= 0 and absolute_floor a finite number
    > 0, so every step is finite and forward, or ValueError names the field."""

    relative_step: float = 1e-6
    absolute_floor: float = 1e-2

    def __post_init__(self):
        step, floor = self.relative_step, self.absolute_floor
        if not (isinstance(step, numbers.Real) and 0.0 <= step < math.inf):
            raise ValueError(f"relative_step must be a finite number >= 0, got {step!r}")
        if not (isinstance(floor, numbers.Real) and 0.0 < floor < math.inf):
            raise ValueError(f"absolute_floor must be a finite number > 0, got {floor!r}")


# The statistics verify_reserve_impacts checks.
RESERVE_STATISTICS = ("reserve-total", "reserve-ay", "bf-total", "bf-ay")

# The per-cell columns of a VerificationReport, in the order of its cell dicts.
COLUMNS = ("k", "j", "analytic", "numeric", "rel_error")


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """The verdict on the checked cells, and the cells as read-only columns:
    k, j (int arrays), analytic, numeric and rel_error (float arrays), one
    entry per cell, triangle by triangle and row-major within each.

    Built from the analytic and numeric gradients of the checked
    statistics over the 3I-2 fitted sums, (..., 3I-2) of one shape, I read
    from the width. The verdict (max_rel_error, worst_cell) is scored
    here a few triangles at a time (_verdict), and size counts the cells.
    The report holds a read-only copy of both gradients, (T, 3I-2) each
    for T triangles, until the first read of any column builds all five
    from it, which it then holds in its place: one _to_cells maps both
    gradients to the cells, the mapped arrays are the columns as they are,
    and rel_error is derived with each triangle's floor (see _floor). A
    tolerance that is not a number >= 0 (NaN, negative, text) raises
    ValueError."""

    statistic: str
    tolerance: float
    analytic: InitVar[np.ndarray]
    numeric: InitVar[np.ndarray]
    notes: dict = field(default_factory=dict)
    max_rel_error: float = field(init=False, repr=False)
    worst_cell: tuple | None = field(init=False, repr=False)
    size: int = field(init=False, repr=False)

    def __post_init__(self, analytic, numeric):
        if not (isinstance(self.tolerance, numbers.Real) and self.tolerance >= 0.0):
            raise ValueError(f"tolerance must be a number >= 0, got {self.tolerance!r}")
        analytic, numeric = np.asarray(analytic), np.asarray(numeric)
        shape = analytic.shape
        if shape != numeric.shape or not shape or shape[-1] % 3 != 1:
            raise ValueError(f"analytic {shape} and numeric {numeric.shape} are not "
                             "gradients of one shape over the 3I-2 fitted sums")
        count, dim = math.prod(shape[:-1]), (shape[-1] + 2) // 3
        grads = _read_only(np.array((analytic, numeric)).reshape(2, count, shape[-1]))
        worst, cell = _verdict(grads, dim)
        vars(self).update(max_rel_error=worst, worst_cell=cell, size=count * dim * (dim + 1) // 2, _gradients=grads)

    def __getattr__(self, name):
        """A column (COLUMNS): the first read of any builds all five from
        the gradients, which the report then drops."""
        if name not in COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        grads = self.__dict__.pop("_gradients")
        dim = (grads.shape[-1] + 2) // 3
        k, j = (np.tile(c, grads.shape[1]) for c in _cells(dim))
        for column, values in zip(COLUMNS, (k, j, *_scored(grads, dim))):
            object.__setattr__(self, column, _read_only(values.ravel()))
        return getattr(self, name)

    @_cached
    def cells(self) -> list:
        """One dict per checked cell, keyed by COLUMNS; built on the first
        read and kept, so every read returns the same list."""
        return _records(COLUMNS, [getattr(self, name).tolist() for name in COLUMNS])

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


# The most cells _verdict maps and scores at once, in whole triangles (one
# if a triangle is larger): every report of the benchmark sizes, the MSE
# verifier's 25 triangles of 325 cells at I=25 the largest, fits in one pass.
_VERDICT_CELLS = 1 << 15


def _scored(grads: np.ndarray, dim: int) -> tuple:
    """The analytic and numeric cells of gradients grads, (2, T, 3I-2), and
    their rel_error (T, n each), with each triangle's floor."""
    analytic, numeric = _to_cells(grads)
    return analytic, numeric, relative_error(analytic, numeric, _floor(analytic, dim))


def _verdict(grads: np.ndarray, dim: int) -> tuple:
    """The largest rel_error of the cells of grads, (2, T, 3I-2), 0.0 for no
    cells, and the (k, j) of the first cell that reads it, or None: scored
    in whole triangles, at most _VERDICT_CELLS cells at a time, so only one
    chunk's cells are alive at once. A NaN rel_error is the verdict and its
    first cell the worst; the scan stops there. A later chunk's largest
    replaces the one held only if larger, so ties keep the first cell."""
    n = dim * (dim + 1) // 2
    step = max(1, _VERDICT_CELLS // n)
    worst, cell = 0.0, None
    for t in range(0, grads.shape[1], step):
        rel = _scored(grads[:, t : t + step], dim)[2].ravel()
        m = int(rel.argmax())
        if cell is None or not rel[m] <= worst:  # the first chunk, a larger one, or NaN
            worst, cell = float(rel[m]), m % n
            if math.isnan(worst):
                break
    k, j = _cells(dim)
    return worst, None if cell is None else (int(k[cell]), int(j[cell]))


def relative_error(a, b, floor):
    """|a - b| / max(|a|, |b|, floor), elementwise over arrays; a NaN
    floor is ignored, a NaN in a or b gives NaN."""
    return np.abs(a - b) / np.fmax(np.maximum(np.abs(a), np.abs(b)), floor)


def _floor(analytic: np.ndarray, dim) -> np.ndarray:
    """Per triangle, the last axis of analytic, I eps S / TOLERANCE, S its
    largest |analytic|: the rel_error floor. It is fixed by the default
    tolerance, not by the one a report asks for, so a stricter tolerance
    stays stricter. At least the smallest normal double, so a triangle of
    exact zeros reads 0."""
    scale = np.maximum.reduce(np.abs(analytic), axis=-1, keepdims=True, initial=0.0)
    return np.maximum(dim * _EPS / TOLERANCE * scale, _TINY)


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


def complex_step(fit: Fit, statistic: Callable) -> np.ndarray:
    """d(statistic) over the 3I-2 fitted sums, on a trailing axis in the
    order A_1..A_{I-1}, B_1..B_{I-1}, L_1..L_I; _to_cells maps it to the
    cells.

    statistic maps fit's stack (_stack) to a (3I-2,) or (3I-2, m) array
    and must be complex-safe, as the library's array forms are: entry m
    of the stack steps sum m alone by ih (_step), so one stack gives the
    whole gradient, and nothing holds the stack after the call: the MSE
    verifier's stack (_stepped_mse) holds only the raw imaginary parts of
    its total reserve and total frozen MSE on fit (_STEPPED).
    """
    h = _step(fit)
    return (statistic(_stack(fit, h)).imag / h).T


def _step(fit: Fit) -> float:
    """h: STEP times the power of two of the largest latest cumulative, so
    the derivative does not depend on the scale of the data."""
    return math.ldexp(STEP, math.frexp(np.maximum.reduce(fit.latest, axis=None))[1])


def _stack(fit: Fit, h: float) -> Fit:
    """fit stacked on a leading axis of 3I-2 entries, entry m with ih added
    to sum m alone (real parts exactly the baseline's, sigma2 the
    baseline's). It is one complex diagonal added to the concatenated sums,
    its fits built on views of it and frozen in place; its Mack sums are
    computed only if a statistic reads them. Its factors are num / den,
    given to Fit._frozen, which checks no denominator: the real parts are
    the baseline's, which Fit.of checked."""
    dim = fit.dimension
    steps = np.zeros((3 * dim - 2,) * 2, complex)
    steps.flat[:: 3 * dim - 1] = h * 1j
    sums = np.concatenate((fit.num, fit.den, fit.latest)) + steps
    num, den = sums[:, : dim - 1], sums[:, dim - 1 : 2 * dim - 2]
    return Fit._frozen(num, den, sums[:, 2 * dim - 2 :], num / den, fit.sigma2)


def verify_reserve_impacts(
    inc: IncrementalTriangle,
    statistic: str = "reserve-total",
    year: int | None = None,
    priors: PriorUltimates | None = None,
    tolerance: float = TOLERANCE,
) -> VerificationReport:
    """Compare an analytic reserve impact triangle to the complex-step
    derivative of the refit reserve.

    statistic: reserve-total | reserve-ay | bf-total | bf-ay. Per-year
    statistics need year and the totals refuse one; priors apply to the BF
    statistics alone, and default to the frozen chain-ladder ultimates of
    the unperturbed triangle.
    """
    if statistic not in RESERVE_STATISTICS:
        raise ValueError(
            f"unknown statistic {statistic!r}; expected one of {', '.join(RESERVE_STATISTICS)}"
        )
    per_year, takes_priors = _per_year(statistic), _STATISTICS[statistic].priors
    if per_year and year is None:
        raise ValueError(f"{statistic} needs an accident year")
    if not per_year and year is not None:
        raise ValueError(f"{statistic} takes no accident year, got {year}")
    if not takes_priors and priors is not None:
        raise ValueError(f"{statistic} takes no priors")
    cum, factors, _ = _baseline(inc)
    mu = _prior_values(cum, default_priors(cum, factors) if priors is None else priors) if takes_priors else None
    return _verify(inc, statistic, year, mu, None, tolerance)


def _verify(inc: IncrementalTriangle, name: str, year, mu, q, tolerance: float) -> VerificationReport:
    """The report on statistic name of _STATISTICS at year (None: the total)
    from inc's baseline: its grad against its numeric (None: the complex step
    of its value), or for the MSE's component protocol the MSE verifier's
    (_mse_components), labelled mse-components. A NaN verdict where the step
    is not finite but the analytic is, or a note not finite, raises ValueError naming name."""
    entry = _STATISTICS[name]
    _, _, fit = _baseline(inc, entry.sigmas)
    if entry.components:
        label, (analytic, numeric, notes) = "mse-components", _mse_components(fit, year)
    else:  # grad first, to refuse a year or priors before any step
        label, analytic, notes = name, entry.grad(fit, year, mu, q), {}
        numeric = (entry.numeric(fit, year, mu, q) if entry.numeric
                   else complex_step(fit, lambda stack: entry.value(stack, year, mu, q)))
    report = VerificationReport(label, tolerance, analytic, numeric, notes)
    if math.isnan(report.max_rel_error) and (np.isfinite(analytic) & ~np.isfinite(numeric)).any():
        raise ValueError(f"{name}: the complex step is not finite where the analytic gradient is")
    for note, value in notes.items():
        if not math.isfinite(value):
            raise ValueError(f"{name}: the note {note} is not finite")
    return report


def _frozen_mse(base: Fit, stack: Fit, ln_f: np.ndarray) -> np.ndarray:
    """Every year's MSE, then the total's, of the stacked fit, with the
    coefficients the MSE impacts hold fixed frozen at base; ln_f is the
    stack's ln f. Year i is shrink_i Chat_i ln F_i + mse_diagonal_i L_i,
    and the total adds u_i 2 w_i + v_i Chat_i later_i over the years,
    u = Chat later and v = 2 w of base: at base its gradient is that of
    _mse, of each year and of the total, so a complex step applies the
    chain and product rules."""
    yearly = base.shrink * base.ult * _ahead(ln_f) + base.mse_diagonal * stack.latest
    cross = _product(base.ult, base.later * 2.0, stack.w, base.scale) + 2.0 * base.w * stack.ult * stack.later
    return np.concatenate((yearly, np.add.reduce(yearly + cross, axis=-1, keepdims=True)), axis=-1)


# The building blocks verify_mse_components checks, in the order of its notes.
BLOCKS = ("d_ln_f", "d_ultimate", "d_colsum_fsq")
_BLOCK_NOTES = tuple(f"{name}_max_rel" for name in BLOCKS)


def verify_mse_components(
    inc: IncrementalTriangle, tolerance: float = TOLERANCE, year: int | None = None
) -> VerificationReport:
    """Component-protocol verification of the MSE impact triangles, the
    report _verify gives for mse-total, or for mse-ay at year.

    One complex step of _stepped_mse differentiates the building blocks
    (d ln f_s, dChat_q and d(B_r f_r^2)), scored against their closed
    forms over the fitted sums in one pass (each note the largest
    rel_error over its block's rows), and the frozen MSE (_frozen_mse) of
    every year and of the total. The checked targets are every per-year
    triangle and the total, or year's triangle alone: their analytic
    gradients come first, so a bad year is refused (IndexError, TypeError)
    before any step, and one row slice picks their steps; the report maps
    both to the cells and compares them. The direct derivative of the
    plug-in MSE value (of year, or of the total) is reported in notes but
    deliberately not compared: it is a different object from the impact
    formula, whose estimation-error part arises by substitution after
    differentiation. A step that is not finite where the analytic
    gradient is raises ValueError naming mse-total or mse-ay.
    """
    return _verify(inc, "mse-total" if year is None else "mse-ay", year, None, None, tolerance)


def _mse_components(fit: Fit, year) -> tuple:
    """The analytic gradients, complex steps and notes of verify_mse_components on its baseline fit."""
    dim = fit.dimension
    if year is None:  # year 1's triangle is zero
        analytic, rows = np.concatenate((_mse(fit, np.arange(2, dim + 1)), _mse(fit)[None])), slice(1, None)
    else:
        analytic, rows = _mse(fit, year)[None], slice(year - 1, year)
    numeric = complex_step(fit, lambda stack: _stepped_mse(fit, stack))
    blocks, frozen, plugin = numeric[: 3 * dim - 2], numeric[3 * dim - 2 : 4 * dim - 1], numeric[4 * dim - 1 :]

    # building blocks against their gradients over the sums, in the stack's rows:
    # d ln f_s = dA_s / A_s - dB_s / B_s, dChat_q = Chat_q d ln F_q + F_q dL_q
    # (the _grad of ult and F, one row per year q) and d(B_r f_r^2) = f_r^2 (dB_r + 2 B_r d ln f_r)
    s = np.arange(dim - 1)
    d_lnf = np.zeros((dim - 1, 3 * dim - 2))
    d_lnf[s, s], d_lnf[s, dim - 1 + s] = 1.0 / fit.num, -1.0 / fit.den
    fsq = (fit.factors**2)[:, None]
    d_colsum_fsq = fsq * 2.0 * fit.den[:, None] * d_lnf
    d_colsum_fsq[s, dim - 1 + s] += fsq[:, 0]
    closed = np.concatenate((d_lnf, _grad(fit, fit.ult, fit.fprod, np.arange(1, dim + 1)), d_colsum_fsq))
    worst = np.maximum.reduce(relative_error(closed, blocks, _floor(closed, dim)), axis=-1)
    notes = dict(zip(_BLOCK_NOTES, np.maximum.reduceat(worst, [0, dim - 1, 2 * dim - 1]).tolist()))

    # the direct derivative of the last target's plug-in value, sigma^2 held at
    # the baseline, is noted only
    notes["direct_fd_max_rel"] = _verdict(np.array((analytic[-1:], plugin[rows][-1:])), dim)[0]
    return analytic, frozen[rows], notes


def verify_quantile_impacts(
    inc: IncrementalTriangle, q: float = 0.995, tolerance: float = TOLERANCE
) -> VerificationReport:
    """Complex-step verification of the quantile impact triangle (see
    _stepped_quantile): no stack once the MSE verifier has run on inc, the
    MSE verifier's one otherwise."""
    return _verify(inc, "quantile", None, None, q, tolerance)


# A statistic over a Fit: value(fit, year, mu, q), complex-safe over batch axes, of year (None: the
# total) with priors mu and quantile level q; grad and numeric(fit, year, mu, q), its gradient over the
# 3I-2 fitted sums and the oracle's step of it (None: the complex step of value); whether _verify checks
# it by the MSE's component protocol (_mse_components) and it reads sigmas, priors and q (--q); and for
# an RMSE root, the name of its MSE, whose value it reads and whose impacts the CLI maps by impact_rmse.
_Statistic = namedtuple("_Statistic", "value grad numeric components sigmas priors quantile root",
                        defaults=(None, False, False, False, False, None))


def _pick(by_year: np.ndarray, year: int | None):
    """year's entry over leading batch axes, or for year None the sum."""
    return np.add.reduce(by_year, axis=-1) if year is None else by_year[..., year - 1]


# The key of a Fit's one read-only (2, 3I-2) record of its stack's stepped totals: the
# raw imaginary parts of the total reserve, then of the total's frozen MSE.
_STEPPED = "_stepped_totals"


def _stepped_quantile(fit: Fit, q: float) -> np.ndarray:
    """The complex step of the quantile map over the fitted sums, with no
    stack: the map at the fit's total reserve and MSE (a stack's sums round
    them differently), stepped by the raw imaginary parts of the stack's
    total reserve and of the total's frozen MSE that fit holds (_STEPPED, its
    one reader), so the step applies the chain rule through the map. Where
    fit holds no record (no MSE verifier has run on it), the MSE verifier's
    stack (_stepped_mse) writes it, and what else it steps is dropped."""
    h = _step(fit)
    if _STEPPED not in fit.__dict__:
        _stepped_mse(fit, _stack(fit, h))
    reserve, mse = fit.__dict__[_STEPPED]
    return lognormal_quantile(fit_lognormal(fit.reserve_total + 1j * reserve, fit.mse_total + 1j * mse), q).imag / h


def _stepped_mse(base: Fit, stack: Fit) -> np.ndarray:
    """What verify_mse_components complex-steps, on the trailing axis: the
    building blocks ln f_s, Chat_q and B_r f_r^2 (3I-2); every year's
    frozen MSE, then the total's (_frozen_mse, I+1); and the same I+1 as
    plug-in MSEs, with base's sigma2, which the stack has. It alone writes
    base's record (_STEPPED) of the stack's total reserve, which reads no
    sigma^2, and the total's frozen MSE."""
    ln_f = np.log(stack.factors)
    frozen = _frozen_mse(base, stack, ln_f)
    base.__dict__[_STEPPED] = _read_only(np.array((stack.reserve_total.imag, frozen[:, -1].imag)))
    return np.concatenate(
        (ln_f, stack.ult, stack.den * stack.factors**2, frozen, stack.mse_by_year, stack.mse_total[..., None]), axis=-1
    )


_RESERVE = _Statistic(
    lambda fit, year, mu, q: fit.reserve_total if year is None else fit.reserves[..., year - 1],
    lambda fit, year, mu, q: _reserve(fit, year),
)
_BF = _Statistic(
    lambda fit, year, mu, q: _pick(bf_reserve_values(fit.fprod, mu), year),
    lambda fit, year, mu, q: _bf(fit, year, mu),
    priors=True,
)
_MSE = _Statistic(
    lambda fit, year, mu, q: fit.mse_total if year is None else fit.mse_by_year[..., year - 1],
    lambda fit, year, mu, q: _mse(fit, year),
    components=True, sigmas=True,
)
_QUANTILE = _Statistic(
    lambda fit, year, mu, q: lognormal_quantile(fit_lognormal(fit.reserve_total, fit.mse_total), q),
    lambda fit, year, mu, q: _quantile(fit, q),
    lambda fit, year, mu, q: _stepped_quantile(fit, q),
    sigmas=True, quantile=True,
)
# keyed by the CLI's --stat, in its order
_STATISTICS = {"reserve-ay": _RESERVE, "reserve-total": _RESERVE, "bf-ay": _BF, "bf-total": _BF, "mse-ay": _MSE,
               "mse-total": _MSE, "rmse-ay": _MSE._replace(root="mse-ay"),
               "rmse-total": _MSE._replace(root="mse-total"), "quantile": _QUANTILE}


def _per_year(name: str) -> bool:
    """Whether the statistic of _STATISTICS named name is of one accident year (--year): its name ends in -ay."""
    return name.endswith("-ay")

"""Chain-ladder point estimates and Mack prediction errors.

Development factors are volume-weighted column ratios; prediction MSE
splits into process variance and estimation error, with the usual
minimum rule supplying the variance scale for the last development year.

The Triangle-typed functions wrap array forms. Fit._frozen and the Fit
properties take the oracle's complex stack of fitted sums too, reading
real parts in comparisons; Fit.of keeps leading axes of (..., I, I)
values, as cumulate_values does, for the tests' whole-triangle refits.
sigma2_values reads one real triangle: the oracle holds sigma^2 fixed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from runoff.triangle import (Container, CumulativeTriangle, IncrementalTriangle, _cached, _one_based,
                             _owned, _read_only, cumulate, observed_mask)

__all__ = ["DevelopmentFactors", "Fit", "SigmaEstimates", "MackSummary",
           "estimate_development_factors", "project_ultimates", "reserves", "estimate_sigmas",
           "mse_accident_year", "mse_total", "mack_summary"]


@dataclass(frozen=True, eq=False)
class DevelopmentFactors(Container):
    """Estimated factors f_j for j = 1..I-1."""

    dimension: int
    values: np.ndarray
    SHORT = 1

    def factor(self, j: int) -> float:
        return float(self.values[_one_based(j, self.dimension - 1, "factor index") - 1])

    def product(self, a: int, b: int) -> float:
        """f_a * ... * f_b for 1 <= a <= b <= I-1; empty products (a > b,
        with a <= I and b >= 0) are 1."""
        a, b = operator.index(a), operator.index(b)
        if not (1 <= a <= self.dimension and 0 <= b <= self.dimension - 1):
            raise IndexError(f"factor product {a}..{b} out of range 1..{self.dimension - 1}")
        return float(np.multiply.reduce(self.values[a - 1 : b])) if a <= b else 1.0


def _check_sigmas(values: np.ndarray):
    """ValueError naming the first development year whose sigma^2 is negative."""
    if np.logical_or.reduce(negative := values < 0.0):
        j = int(negative.argmax()) + 1
        raise ValueError(f"sigma^2 of development year {j} must be >= 0, got {values[j - 1]}")


@dataclass(frozen=True, eq=False)
class SigmaEstimates(Container):
    """Variance scales sigma^2_j for j = 1..I-1: none negative (NaN passes)."""

    dimension: int
    values: np.ndarray
    SHORT = 1

    def __post_init__(self):
        super().__post_init__()
        _check_sigmas(self.values)

    def sigma2(self, j: int) -> float:
        return float(self.values[_one_based(j, self.dimension - 1, "sigma index") - 1])


@dataclass(frozen=True, eq=False)
class MackSummary:
    """Its arrays are read-only float64 copies of what the caller passed."""

    factors: DevelopmentFactors
    sigmas: SigmaEstimates
    ultimates: np.ndarray
    reserves_by_year: np.ndarray
    reserve_total: float
    mse_by_year: np.ndarray
    mse_total: float

    def __post_init__(self):
        for name in ("ultimates", "reserves_by_year", "mse_by_year"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))


def _ahead(per_s: np.ndarray) -> np.ndarray:
    """Per accident year i, per_s summed along the last axis over the
    development years s = I-i+1..I-1 still ahead of it; year 1 gets zeros.
    One allocation: the sums of the reversed input are written into its
    tail."""
    out = np.zeros(per_s.shape[:-1] + (per_s.shape[-1] + 1,), np.promote_types(per_s.dtype, float))
    per_s[..., ::-1].cumsum(axis=-1, out=out[..., 1:])
    return out


def _scale(x) -> float:
    """1, or past 2^500 the power of two near the largest finite |Re x|: the
    s at which a product of values at the scale of x is taken (_product).
    An entry that is inf or NaN is passed over, so s is at least 1."""
    big = abs(x.real) if isinstance(x, float) else float(np.maximum.reduce(np.abs(x.real), axis=None))
    if not big < math.inf:  # inf or NaN
        values = np.abs(np.asarray(x).real)
        big = float(np.maximum.reduce(values[np.isfinite(values)], initial=0.0))
    return 1.0 if big < 2.0**500 else math.ldexp(1.0, math.frexp(big)[1] - 1)


def _product(x, y, z, s: float):
    """x y z, as (x / s) (y / s) z s s past s = 1 (_scale): that overflows
    only where the product does, and each factor scales exactly."""
    return x * y * z if s == 1.0 else x * (1 / s) * (y * (1 / s)) * z * s * s


def sigma2_values(cum: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sigma^2_s for s = 1..I-1 of one real (I, I) cumulative triangle under
    its I-1 factors, the array form of estimate_sigmas."""
    dim = len(cum)
    if dim < 4:
        raise ValueError(f"sigma estimation needs I >= 4, got I={dim}")
    both = observed_mask(dim)[:, 1:-1]  # rows n <= I-k of columns k = 1..I-2
    c = cum[:, :-2]
    zero = both & (c == 0.0)
    if np.logical_or.reduce(zero, axis=None):
        k, i = np.argwhere(zero.T)[0] + 1  # the first zero column by column
        raise ZeroDivisionError(f"zero cumulative cell ({i}, {k}) in sigma estimation")
    ratio = cum[:, 1:-1] / np.where(both, c, 1.0)
    residual = np.where(both, c * (ratio - f[:-1]) ** 2, 0.0)
    head = np.add.reduce(residual, axis=0) / np.arange(dim - 2, 0, -1)
    a, b = head[-2:]  # sigma^2_{I-3}, sigma^2_{I-2}; a zero a gives min(a, b) = 0
    return np.concatenate((head, [min(b * b / a, a, b) if a > 0.0 else 0.0]))


@dataclass(frozen=True, eq=False)
class Fit:
    """The fitted chain-ladder state every statistic and impact reads.

    Built once from the cumulative triangle and its factors, and the
    sigmas for the Mack quantities. Slot s-1 holds development year s,
    slot i-1 accident year i; all arrays are read-only and carry the
    leading batch axes of the cumulative values they were built from.

    num, den: A_s and B_s, the sums of C_{n,s+1} and C_{n,s} over n <= I-s
    fprod:    F_i = f_{I-i+1} ... f_{I-1}, the factors still ahead of year i
    latest:   the latest diagonal C_{i,I-i+1}; ult = latest * F
    sigma2:   the variance scales, None when the fit has no sigmas
    The Mack sums w and process, the MSE impacts' coefficients shrink and
    mse_diagonal, and the derived reserves, reserve_total, later, scale,
    mse_by_year and mse_total are computed on first read, read-only, the
    totals one value per batch entry: a refit that carries sigma2 pays for
    the Mack sums only if its statistic reads them. Every statistic is a
    function of num, den and latest, the 3I-2 fitted sums, and
    runoff.impact differentiates it over them.
    """

    dimension: int
    num: np.ndarray
    den: np.ndarray
    factors: np.ndarray
    fprod: np.ndarray
    latest: np.ndarray
    ult: np.ndarray
    sigma2: np.ndarray | None = None

    @classmethod
    def of(
        cls, cum: np.ndarray, f: np.ndarray | None = None, sigma2: np.ndarray | None = None
    ) -> "Fit":
        """The fit of (..., I, I) cumulative values under (..., I-1) factors,
        estimated as f_s = A_s / B_s when None, and optionally sigma^2,
        broadcast against them."""
        dim = cum.shape[-1]
        rows = np.arange(dim)
        # one masked reduction over the rows n <= I-s that hold both columns
        both = observed_mask(dim)[:, 1:]
        num = np.add.reduce(np.where(both, cum[..., 1:], 0.0), axis=-2)
        den = np.add.reduce(np.where(both, cum[..., :-1], 0.0), axis=-2)
        # copies, which _frozen freezes: the caller's arrays stay theirs
        f = None if f is None else np.array(f)
        sigma2 = None if sigma2 is None else np.array(sigma2)
        return cls._frozen(num, den, cum[..., rows, dim - 1 - rows], f, sigma2)

    @classmethod
    def _frozen(cls, num, den, latest, f=None, sigma2=None) -> "Fit":
        """The fit from what it reads of the cumulative triangle: the column
        sums A_s and B_s, (..., I-1), and the latest diagonal, (..., I); f and
        sigma2 as in of. It freezes the arrays in place and holds them
        (_owned), so they must be ones nobody else holds, such as of's own
        sums or the oracle's stack. Only factors it divides for itself are
        checked for a zero denominator: given ones are the caller's, or the
        oracle's quotients of sums Fit.of checked (oracle._stack)."""
        dim = latest.shape[-1]
        if f is None:
            zero = (den.real == 0.0).nonzero()[-1]
            if zero.size:
                raise ZeroDivisionError(f"zero denominator for development factor {zero.min() + 1}")
            f = num / den
        fprod = np.empty(f.shape[:-1] + (dim,), dtype=np.promote_types(f.dtype, float))
        fprod[..., 0] = 1.0
        f[..., ::-1].cumprod(axis=-1, out=fprod[..., 1:])
        return _owned(cls, dimension=dim, num=_read_only(num), den=_read_only(den), factors=_read_only(f),
                      fprod=_read_only(fprod), latest=_read_only(latest), ult=_read_only(latest * fprod),
                      sigma2=None if sigma2 is None else _read_only(sigma2))

    @_cached
    def reserves(self) -> np.ndarray:
        """Per-year chain-ladder reserves, ultimate minus latest."""
        return _read_only(self.ult - self.latest)

    @_cached
    def reserve_total(self):
        """The total reserve: the one sum of the per-year reserves."""
        return _read_only(np.add.reduce(self.reserves, axis=-1))

    @_cached
    def later(self) -> np.ndarray:
        """Per year i, the sum of the ultimates of the years after it."""
        return _read_only(_ahead(self.ult[..., 1:])[..., ::-1])

    @_cached
    def scale(self) -> float:
        """_scale of the ultimates, one per batch: the s of the Mack sums' products."""
        return _scale(self.ult)

    def _need_sigmas(self):
        if self.sigma2 is None:
            raise ValueError("the fit has no sigmas; build it with SigmaEstimates")

    @_cached
    def w(self) -> np.ndarray:
        """Sum of sigma^2_s / (f_s^2 B_s) over the years s ahead of i."""
        self._need_sigmas()
        return _read_only(_ahead(self.sigma2 / (self.factors**2 * self.den)))

    @_cached
    def process(self) -> np.ndarray:
        """Sum of f_{I-i+1}..f_{s-1} sigma^2_s (f_{s+1}..f_{I-1})^2 over the
        years s ahead of i."""
        self._need_sigmas()
        # F_i / (f_{I-i+1}..f_s) * (f_{s+1}..f_{I-1})^2 = F_i (f_{s+1}..f_{I-1}) / f_s
        trail = self.fprod[..., self.dimension - 1 - np.arange(1, self.dimension)]
        return _read_only(self.fprod * _ahead(self.sigma2 * trail / self.factors))

    @_cached
    def shrink(self) -> np.ndarray:
        """Per year, d(mse_i) / d(R_i) off the diagonal: -2 latest F sqrt(w)."""
        return _read_only(-2.0 * self.latest * self.fprod * np.sqrt(self.w))

    @_cached
    def mse_diagonal(self) -> np.ndarray:
        """Per year, d(mse_i) / dX_{i,j}: process plus twice the estimation term over latest."""
        return _read_only(self.process + 2.0 * self.latest * self.fprod**2 * self.w)

    @_cached
    def mse_by_year(self) -> np.ndarray:
        """latest * process + ult^2 * w: process variance plus estimation error."""
        return _read_only(self.latest * self.process + _product(self.ult, self.ult, self.w, self.scale))

    @_cached
    def mse_total(self):
        """Per-year MSEs plus the cross covariances ult_i * later_i * 2 w_i,
        one value per batch entry."""
        cross = _product(self.ult, self.later * 2.0, self.w, self.scale)
        return _read_only(np.add.reduce(self.mse_by_year, axis=-1) + np.add.reduce(cross, axis=-1))


def _check_dimension(cum: CumulativeTriangle, *given):
    """ValueError unless the factors or sigmas given (None passes) are for
    cum's I: other lengths would broadcast into a wrong answer."""
    for g in given:
        if g is not None and g.dimension != cum.dimension:
            raise ValueError(f"{type(g).__name__} for I={g.dimension}, triangle has I={cum.dimension}")


def _fit(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors | None = None,
    sigmas: SigmaEstimates | None = None,
) -> Fit:
    """The Fit of cum under factors and sigmas, built once per triangle: cum
    keeps the last one built in its __dict__ as (factors, base, sigmas,
    fit), base the fit without sigmas, and serves fit to the same
    (read-only) factors and sigmas objects, or to None for either. Other
    factors build a base; other sigmas are then attached to it: the fit
    with them is one copy of the base's __dict__ with sigma2 the sigmas'
    read-only values, so it shares the base's arrays and every value the
    base has computed, none of which reads sigma2 (its readers raise on a
    base). Factors or sigmas for another I raise ValueError before the
    record changes; it is written last, and only when what it holds
    changes."""
    held = cum.__dict__.get("_fit")
    if held is not None and (factors is None or factors is held[0]) and (sigmas is None or sigmas is held[2]):
        return held[3]
    if held is None or (factors is not None and factors is not held[0]):
        _check_dimension(cum, factors)
        base = Fit.of(cum.values, None if factors is None else factors.values)
        held = (factors, base, None, base)
    kept, base, attached, fit = held
    if sigmas is not None:
        _check_dimension(cum, sigmas)
        attached, fit = sigmas, object.__new__(Fit)
        vars(fit).update(vars(base), sigma2=sigmas.values)
    cum.__dict__["_fit"] = (kept, base, attached, fit)
    return fit


def _baseline(inc: IncrementalTriangle, sigmas: bool = False) -> tuple:
    """(cum, factors, fit) of inc, the fit with sigmas when asked: the fit
    the CLI and every verifier read. inc keeps only cum in its __dict__,
    like a cached_property, once its factors are estimated; they and the
    sigmas, estimated on first need, are read from the record cum keeps
    (_fit), so every reader of inc shares one fit and its Mack sums, and
    nothing is stored when a build raises."""
    cum = inc.__dict__.get("_cum")
    if cum is None:
        cum = cumulate(inc)
        estimate_development_factors(cum)
        inc.__dict__["_cum"] = cum
    factors, _, held, fit = cum.__dict__["_fit"]
    if sigmas and held is None:
        fit = _fit(cum, factors, estimate_sigmas(cum, factors))
    return cum, factors, fit


def estimate_development_factors(cum: CumulativeTriangle) -> DevelopmentFactors:
    """f_j = sum(C_{i,j+1}, i<=I-j) / sum(C_{i,j}, i<=I-j)."""
    fit = Fit.of(cum.values)
    factors = _owned(DevelopmentFactors, dimension=cum.dimension, values=_read_only(fit.factors.copy()))
    cum.__dict__["_fit"] = (factors, fit, None, fit)  # its factors are num / den
    return factors


def project_ultimates(cum: CumulativeTriangle, factors: DevelopmentFactors) -> np.ndarray:
    """Ultimate claims per accident year: latest cumulative times remaining factors."""
    return np.array(_fit(cum, factors).ult)


def reserves(cum: CumulativeTriangle, factors: DevelopmentFactors):
    """Per-year reserves (ultimate minus latest cumulative) and their total."""
    fit = _fit(cum, factors)
    return np.array(fit.reserves), float(fit.reserve_total)


def estimate_sigmas(cum: CumulativeTriangle, factors: DevelopmentFactors) -> SigmaEstimates:
    """Weighted squared-ratio residual variances, with the min rule at I-1.

    sigma^2_k for k <= I-2 averages C_{i,k} (C_{i,k+1}/C_{i,k} - f_k)^2
    over i <= I-k with divisor I-k-1. The last scale is
    min(sigma^4_{I-2}/sigma^2_{I-3}, min(sigma^2_{I-3}, sigma^2_{I-2})),
    reading 0/0 as 0 so all-proportional triangles yield zero throughout.
    """
    _check_dimension(cum, factors)
    values = sigma2_values(cum.values, factors.values)
    _check_sigmas(values)
    return _owned(SigmaEstimates, dimension=cum.dimension, values=_read_only(values))


def mse_accident_year(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
    i: int,
) -> float:
    """Prediction MSE for accident year i, process plus estimation error.

    Plug-in form: the process term is the latest cumulative times a
    factor-weighted sum of sigma^2, and the estimation term is
    (latest * remaining factor product)^2 times the column-sum weighted
    sum of sigma^2/f^2. Algebraically identical to the standard
    two-reciprocal estimator (asserted in tests).
    """
    i = _one_based(i, cum.dimension, "accident year")
    return float(_fit(cum, factors, sigmas).mse_by_year[i - 1])


def mse_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
) -> float:
    """Prediction MSE of the total reserve: per-year MSEs plus cross covariances."""
    return float(_fit(cum, factors, sigmas).mse_total)


def mack_summary(cum: CumulativeTriangle) -> MackSummary:
    """Convenience bundle of all chain-ladder and Mack estimates."""
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    fit = _fit(cum, factors, sigmas)
    return MackSummary(
        factors=factors,
        sigmas=sigmas,
        ultimates=fit.ult,
        reserves_by_year=fit.reserves,
        reserve_total=float(fit.reserve_total),
        mse_by_year=fit.mse_by_year,
        mse_total=float(fit.mse_total),
    )

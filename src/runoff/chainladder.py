"""Chain-ladder point estimates and Mack prediction errors.

Development factors are volume-weighted column ratios; prediction MSE
splits into process variance and estimation error, with the usual
minimum rule supplying the variance scale for the last development year.

The Triangle-typed functions wrap array forms that take (..., I, I)
cumulative values with any leading batch axes. Their arithmetic is
complex-safe (comparisons read real parts), so a stack of perturbed
triangles refits in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from runoff.triangle import CumulativeTriangle, ReadOnlyArrays, YearValues, _read_only, observed_mask


@dataclass(frozen=True)
class DevelopmentFactors(YearValues):
    """Estimated factors f_j for j = 1..I-1."""

    dimension: int
    values: np.ndarray
    SHORT = 1

    def factor(self, j: int) -> float:
        if not 1 <= j <= self.dimension - 1:
            raise IndexError(f"factor index {j} out of range 1..{self.dimension - 1}")
        return float(self.values[j - 1])

    def product(self, a: int, b: int) -> float:
        """f_a * ... * f_b; empty products (a > b) are 1."""
        if a > b:
            return 1.0
        return float(np.prod(self.values[a - 1 : b]))


@dataclass(frozen=True)
class SigmaEstimates(YearValues):
    """Variance scales sigma^2_j for j = 1..I-1."""

    dimension: int
    values: np.ndarray
    SHORT = 1

    def sigma2(self, j: int) -> float:
        if not 1 <= j <= self.dimension - 1:
            raise IndexError(f"sigma index {j} out of range 1..{self.dimension - 1}")
        return float(self.values[j - 1])


@dataclass(frozen=True)
class MackSummary(ReadOnlyArrays):
    factors: DevelopmentFactors
    sigmas: SigmaEstimates
    ultimates: np.ndarray
    reserves_by_year: np.ndarray
    reserve_total: float
    mse_by_year: np.ndarray
    mse_total: float


def _ahead(per_s: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per accident year i, per_s summed along axis over the development
    years s = I-i+1..I-1 still ahead of it; year 1 gets zeros."""
    ahead = np.cumsum(np.flip(per_s, axis), axis=axis)
    return np.concatenate((np.zeros_like(np.take(ahead, [0], axis=axis)), ahead), axis=axis)


def sigma2_values(cum: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sigma^2_s for s = 1..I-1, the array form of estimate_sigmas."""
    dim = cum.shape[-1]
    if dim < 4:
        raise ValueError(f"sigma estimation needs I >= 4, got I={dim}")
    both = observed_mask(dim)[:, 1:-1]  # rows n <= I-k of columns k = 1..I-2
    c = cum[..., :-2]
    zero = np.argwhere(np.swapaxes(both & (np.real(c) == 0.0), -1, -2))
    if zero.size:
        k, i = zero[0, -2:] + 1
        raise ZeroDivisionError(f"zero cumulative cell ({i}, {k}) in sigma estimation")
    ratio = cum[..., 1:-1] / np.where(both, c, 1.0)
    residual = np.where(both, c * (ratio - f[..., None, :-1]) ** 2, 0.0)
    head = np.sum(residual, axis=-2) / np.arange(dim - 2, 0, -1)
    # min(sigma^4_{I-2}/sigma^2_{I-3}, sigma^2_{I-3}, sigma^2_{I-2}), first
    # minimum by real part; a zero sigma^2_{I-3} makes min(a, b) = 0 win
    a, b = head[..., -2], head[..., -1]
    positive = np.real(a) > 0.0
    rule = np.stack((b * b / np.where(positive, a, 1.0), a, b), axis=-1)
    pick = np.argmin(np.real(rule), axis=-1)[..., None]
    last = np.where(positive, np.take_along_axis(rule, pick, axis=-1)[..., 0], 0.0)
    return np.concatenate((head, last[..., None]), axis=-1)


@dataclass(frozen=True)
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
    The d ln f kernel g, the Mack sums w and process, and the derived
    reserves, later, mse_by_year and mse_total are computed on first read,
    read-only: the impacts need g, refits do not, and a refit that carries
    sigma2 pays for the Mack sums only if its statistic reads them.
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
    def build(
        cls,
        cum: CumulativeTriangle,
        factors: DevelopmentFactors,
        sigmas: SigmaEstimates | None = None,
    ) -> "Fit":
        return cls.of(cum.values, factors.values, None if sigmas is None else sigmas.values)

    @classmethod
    def of(
        cls, cum: np.ndarray, f: np.ndarray | None = None, sigma2: np.ndarray | None = None
    ) -> "Fit":
        """The array form of build: (..., I, I) cumulative values, (..., I-1)
        factors, estimated as f_s = A_s / B_s when None, and optionally
        sigma^2, broadcast against them."""
        dim = cum.shape[-1]
        rows = np.arange(dim)
        # one masked reduction over the rows n <= I-s that hold both columns
        both = observed_mask(dim)[:, 1:]
        num = np.sum(np.where(both, cum[..., 1:], 0.0), axis=-2)
        den = np.sum(np.where(both, cum[..., :-1], 0.0), axis=-2)
        return cls.of_sums(num, den, cum[..., rows, dim - 1 - rows], f, sigma2)

    @classmethod
    def of_sums(
        cls,
        num: np.ndarray,
        den: np.ndarray,
        latest: np.ndarray,
        f: np.ndarray | None = None,
        sigma2: np.ndarray | None = None,
    ) -> "Fit":
        """The fit from what it reads of the cumulative triangle: the column
        sums A_s and B_s, (..., I-1), and the latest diagonal, (..., I).
        f and sigma2 as in of."""
        dim = latest.shape[-1]
        if f is None:
            zero = np.nonzero(np.real(den) == 0.0)[-1]
            if zero.size:
                raise ZeroDivisionError(f"zero denominator for development factor {zero.min() + 1}")
            f = num / den
        ahead = np.cumprod(f[..., ::-1], axis=-1)
        fprod = np.concatenate((np.ones(ahead.shape[:-1] + (1,)), ahead), axis=-1)
        arrays = dict(
            num=np.array(num), den=np.array(den), factors=np.array(f), fprod=fprod,
            latest=np.array(latest), ult=latest * fprod,
        )
        if sigma2 is not None:
            arrays["sigma2"] = np.array(sigma2)
        return cls(dim, **{k: _read_only(v) for k, v in arrays.items()})

    @cached_property
    def g(self) -> np.ndarray:
        """d ln f_s / dX_{k,j} for every row k <= I-s (zero below):
        g[s-1, j-1] = 1{j <= s+1} / A_s - 1{j <= s} / B_s."""
        s = np.arange(1, self.dimension)[:, None]
        j = np.arange(1, self.dimension + 1)
        inv_num = np.where(j <= s + 1, 1.0 / self.num[..., None], 0.0)
        return _read_only(inv_num - np.where(j <= s, 1.0 / self.den[..., None], 0.0))

    @cached_property
    def reserves(self) -> np.ndarray:
        """Per-year chain-ladder reserves, ultimate minus latest."""
        return _read_only(self.ult - self.latest)

    @cached_property
    def later(self) -> np.ndarray:
        """Per year i, the sum of the ultimates of the years after it."""
        return _read_only(_ahead(self.ult[..., 1:])[..., ::-1])

    def _need_sigmas(self):
        if self.sigma2 is None:
            raise ValueError("the fit has no sigmas; build it with SigmaEstimates")

    @cached_property
    def w(self) -> np.ndarray:
        """Sum of sigma^2_s / (f_s^2 B_s) over the years s ahead of i."""
        self._need_sigmas()
        return _read_only(_ahead(self.sigma2 / (self.factors**2 * self.den)))

    @cached_property
    def process(self) -> np.ndarray:
        """Sum of f_{I-i+1}..f_{s-1} sigma^2_s (f_{s+1}..f_{I-1})^2 over the
        years s ahead of i."""
        self._need_sigmas()
        # F_i / (f_{I-i+1}..f_s) * (f_{s+1}..f_{I-1})^2 = F_i (f_{s+1}..f_{I-1}) / f_s
        trail = self.fprod[..., self.dimension - 1 - np.arange(1, self.dimension)]
        return _read_only(self.fprod * _ahead(self.sigma2 * trail / self.factors))

    @cached_property
    def mse_by_year(self) -> np.ndarray:
        """latest * process + ult^2 * w: process variance plus estimation error."""
        return _read_only(self.latest * self.process + self.ult**2 * self.w)

    @cached_property
    def mse_total(self):
        """Per-year MSEs plus the cross covariances ult_i * later_i * 2 w_i,
        one value per batch entry."""
        cross = self.ult * self.later * 2.0 * self.w
        return _read_only(np.sum(self.mse_by_year, axis=-1) + np.sum(cross, axis=-1))


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
    keeps the last one built as (factors, sigmas, fit) in its __dict__, like
    a cached_property, and serves it to calls with the same (read-only, so
    unchanged) factors and sigmas objects. A fit with sigmas serves a call
    without, and any fit serves factors None: the column sums and g.
    Factors or sigmas for another I raise ValueError."""
    held = cum.__dict__.get("_fit")
    if held and (factors is None or factors is held[0]) and (sigmas is None or sigmas is held[1]):
        return held[2]
    _check_dimension(cum, factors, sigmas)
    fit = Fit.of(cum.values) if factors is None else Fit.build(cum, factors, sigmas)
    cum.__dict__["_fit"] = (factors, sigmas, fit)
    return fit


def estimate_development_factors(cum: CumulativeTriangle) -> DevelopmentFactors:
    """f_j = sum(C_{i,j+1}, i<=I-j) / sum(C_{i,j}, i<=I-j)."""
    fit = Fit.of(cum.values)
    factors = DevelopmentFactors(cum.dimension, fit.factors)
    cum.__dict__["_fit"] = (factors, None, fit)  # its factors are num / den
    return factors


def project_ultimates(cum: CumulativeTriangle, factors: DevelopmentFactors) -> np.ndarray:
    """Ultimate claims per accident year: latest cumulative times remaining factors."""
    return np.array(_fit(cum, factors).ult)


def reserves(cum: CumulativeTriangle, factors: DevelopmentFactors):
    """Per-year reserves (ultimate minus latest cumulative) and their total."""
    by_year = np.array(_fit(cum, factors).reserves)
    return by_year, float(np.sum(by_year))


def estimate_sigmas(cum: CumulativeTriangle, factors: DevelopmentFactors) -> SigmaEstimates:
    """Weighted squared-ratio residual variances, with the min rule at I-1.

    sigma^2_k for k <= I-2 averages C_{i,k} (C_{i,k+1}/C_{i,k} - f_k)^2
    over i <= I-k with divisor I-k-1. The last scale is
    min(sigma^4_{I-2}/sigma^2_{I-3}, min(sigma^2_{I-3}, sigma^2_{I-2})),
    reading 0/0 as 0 so all-proportional triangles yield zero throughout.
    """
    _check_dimension(cum, factors)
    return SigmaEstimates(cum.dimension, sigma2_values(cum.values, factors.values))


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
    dim = cum.dimension
    if not 1 <= i <= dim:
        raise IndexError(f"accident year {i} out of range 1..{dim}")
    if i == 1:
        return 0.0
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
        reserve_total=float(np.sum(fit.reserves)),
        mse_by_year=fit.mse_by_year,
        mse_total=float(fit.mse_total),
    )

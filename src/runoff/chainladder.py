"""Chain-ladder point estimates and Mack prediction errors.

Development factors are volume-weighted column ratios; prediction MSE
splits into process variance and estimation error, with the usual
minimum rule supplying the variance scale for the last development year.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.triangle import CumulativeTriangle


@dataclass(frozen=True)
class DevelopmentFactors:
    """Estimated factors f_j for j = 1..I-1."""

    dimension: int
    values: np.ndarray

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
class SigmaEstimates:
    """Variance scales sigma^2_j for j = 1..I-1."""

    dimension: int
    values: np.ndarray

    def sigma2(self, j: int) -> float:
        if not 1 <= j <= self.dimension - 1:
            raise IndexError(f"sigma index {j} out of range 1..{self.dimension - 1}")
        return float(self.values[j - 1])


@dataclass(frozen=True)
class MackSummary:
    factors: DevelopmentFactors
    sigmas: SigmaEstimates
    ultimates: np.ndarray
    reserves_by_year: np.ndarray
    reserve_total: float
    mse_by_year: np.ndarray
    mse_total: float


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _ahead(per_s: np.ndarray) -> np.ndarray:
    """Per accident year i, per_s summed along axis 0 over the development
    years s = I-i+1..I-1 still ahead of it; year 1 gets zeros."""
    empty = np.zeros((1,) + per_s.shape[1:])
    return np.concatenate((empty, np.cumsum(per_s[::-1], axis=0)))


def _latest_and_fprod(cum: CumulativeTriangle, factors: DevelopmentFactors):
    """The latest diagonal C_{i,I-i+1} and the factor products
    F_i = f_{I-i+1} ... f_{I-1}, the two arrays a reserve reads.

    The products are multiplied left to right, as DevelopmentFactors.product
    does (padding with ones is exact): the finite-difference oracle's
    verdicts hang on the last bit of every refit reserve.
    """
    dim = cum.dimension
    rows = np.arange(dim)
    ahead = np.arange(1, dim) >= dim - rows[:, None]
    fprod = np.prod(np.where(ahead, factors.values, 1.0), axis=1)
    return cum.values[rows, dim - 1 - rows], fprod


@dataclass(frozen=True)
class Fit:
    """The fitted chain-ladder state every statistic and impact reads.

    Built once from the cumulative triangle and its factors, and the
    sigmas for the Mack quantities. Slot s-1 holds development year s,
    slot i-1 accident year i; all arrays are read-only.

    colsum:   column prefix sums, colsum[p-1, j-1] = sum of C_{n,j}, n <= p
    num, den: A_s and B_s, the sums of C_{n,s+1} and C_{n,s} over n <= I-s
    fprod:    F_i = f_{I-i+1} ... f_{I-1}, the factors still ahead of year i
    latest:   the latest diagonal C_{i,I-i+1}; ult = latest * F
    g:        d ln f_s / dX_{k,j} for every row k <= I-s (zero below):
              g[s-1, j-1] = 1{j <= s+1} / A_s - 1{j <= s} / B_s
    w:        sum of sigma^2_s / (f_s^2 B_s) over the years s ahead of i
    process:  sum of f_{I-i+1}..f_{s-1} sigma^2_s (f_{s+1}..f_{I-1})^2 over
              the same s
    w and process are None when the fit has no sigmas.
    """

    dimension: int
    colsum: np.ndarray
    num: np.ndarray
    den: np.ndarray
    factors: np.ndarray
    fprod: np.ndarray
    latest: np.ndarray
    ult: np.ndarray
    g: np.ndarray
    sigma2: np.ndarray | None = None
    w: np.ndarray | None = None
    process: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        cum: CumulativeTriangle,
        factors: DevelopmentFactors,
        sigmas: SigmaEstimates | None = None,
    ) -> "Fit":
        dim = cum.dimension
        colsum = np.cumsum(np.nan_to_num(cum.values), axis=0)
        s = np.arange(1, dim)
        num = colsum[dim - s - 1, s]
        den = colsum[dim - s - 1, s - 1]
        f = factors.values
        latest, fprod = _latest_and_fprod(cum, factors)
        j = np.arange(1, dim + 1)
        g = np.where(j <= s[:, None] + 1, 1.0 / num[:, None], 0.0) - np.where(
            j <= s[:, None], 1.0 / den[:, None], 0.0
        )
        mack = {}
        if sigmas is not None:
            sigma2 = np.array(sigmas.values)
            # F_i / (f_{I-i+1}..f_s) * (f_{s+1}..f_{I-1})^2 = F_i (f_{s+1}..f_{I-1}) / f_s
            trail = fprod[dim - 1 - s]
            mack = {
                "sigma2": sigma2,
                "w": _ahead(sigma2 / (f**2 * den)),
                "process": fprod * _ahead(sigma2 * trail / f),
            }
        arrays = dict(
            colsum=colsum, num=num, den=den, factors=np.array(f), fprod=fprod,
            latest=latest, ult=latest * fprod, g=g, **mack,
        )
        return cls(dim, **{k: _read_only(v) for k, v in arrays.items()})

    @property
    def reserves(self) -> np.ndarray:
        """Per-year chain-ladder reserves, ultimate minus latest."""
        return self.ult - self.latest

    @property
    def later(self) -> np.ndarray:
        """Per year i, the sum of the ultimates of the years after it."""
        return np.concatenate((np.cumsum(self.ult[:0:-1])[::-1], [0.0]))

    def _need_sigmas(self):
        if self.w is None:
            raise ValueError("the fit has no sigmas; build it with SigmaEstimates")

    @property
    def mse_by_year(self) -> np.ndarray:
        """latest * process + ult^2 * w: process variance plus estimation error."""
        self._need_sigmas()
        return self.latest * self.process + self.ult**2 * self.w

    @property
    def mse_total(self) -> float:
        """Per-year MSEs plus the cross covariances ult_i * later_i * 2 w_i."""
        self._need_sigmas()
        cross = self.ult * self.later * 2.0 * self.w
        return float(np.sum(self.mse_by_year) + np.sum(cross))


def estimate_development_factors(cum: CumulativeTriangle) -> DevelopmentFactors:
    """f_j = sum(C_{i,j+1}, i<=I-j) / sum(C_{i,j}, i<=I-j)."""
    dim = cum.dimension
    values = cum.values
    out = np.empty(dim - 1)
    for j in range(1, dim):
        # the reduction column_partial_sum runs, so every factor keeps its bits
        den = float(np.add.reduce(values[: dim - j, j - 1]))
        if den == 0.0:
            raise ZeroDivisionError(f"zero denominator for development factor {j}")
        out[j - 1] = float(np.add.reduce(values[: dim - j, j])) / den
    return DevelopmentFactors(dim, out)


def project_ultimates(cum: CumulativeTriangle, factors: DevelopmentFactors) -> np.ndarray:
    """Ultimate claims per accident year: latest cumulative times remaining factors."""
    latest, fprod = _latest_and_fprod(cum, factors)
    return latest * fprod


def reserves(cum: CumulativeTriangle, factors: DevelopmentFactors):
    """Per-year reserves (ultimate minus latest cumulative) and their total."""
    latest, fprod = _latest_and_fprod(cum, factors)
    by_year = latest * fprod - latest
    return by_year, float(np.sum(by_year))


def estimate_sigmas(cum: CumulativeTriangle, factors: DevelopmentFactors) -> SigmaEstimates:
    """Weighted squared-ratio residual variances, with the min rule at I-1.

    sigma^2_k for k <= I-2 averages C_{i,k} (C_{i,k+1}/C_{i,k} - f_k)^2
    over i <= I-k with divisor I-k-1. The last scale is
    min(sigma^4_{I-2}/sigma^2_{I-3}, min(sigma^2_{I-3}, sigma^2_{I-2})),
    reading 0/0 as 0 so all-proportional triangles yield zero throughout.
    """
    dim = cum.dimension
    if dim < 4:
        raise ValueError(f"sigma estimation needs I >= 4, got I={dim}")
    out = np.empty(dim - 1)
    for k in range(1, dim - 1):
        fk = factors.factor(k)
        acc = 0.0
        for i in range(1, dim - k + 1):
            cik = cum.cell(i, k)
            if cik == 0.0:
                raise ZeroDivisionError(
                    f"zero cumulative cell ({i}, {k}) in sigma estimation"
                )
            ratio = cum.cell(i, k + 1) / cik
            acc += cik * (ratio - fk) ** 2
        out[k - 1] = acc / (dim - k - 1)
    a, b = out[dim - 4], out[dim - 3]
    if a > 0.0:
        out[dim - 2] = min(b * b / a, min(a, b))
    else:
        out[dim - 2] = 0.0  # min(a, b) = 0 dominates whatever 0/0 would mean
    return SigmaEstimates(dim, out)


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
    if i == 1:
        return 0.0
    if not 2 <= i <= dim:
        raise IndexError(f"accident year {i} out of range 2..{dim}")
    return float(Fit.build(cum, factors, sigmas).mse_by_year[i - 1])


def mse_total(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    sigmas: SigmaEstimates,
) -> float:
    """Prediction MSE of the total reserve: per-year MSEs plus cross covariances."""
    return Fit.build(cum, factors, sigmas).mse_total


def mack_summary(cum: CumulativeTriangle) -> MackSummary:
    """Convenience bundle of all chain-ladder and Mack estimates."""
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    fit = Fit.build(cum, factors, sigmas)
    return MackSummary(
        factors=factors,
        sigmas=sigmas,
        ultimates=np.array(fit.ult),
        reserves_by_year=fit.reserves,
        reserve_total=float(np.sum(fit.reserves)),
        mse_by_year=fit.mse_by_year,
        mse_total=fit.mse_total,
    )

"""Bornhuetter-Ferguson reserves on the chain-ladder development pattern.

Priors are a frozen snapshot: once constructed they are plain numbers and
never move with the triangle, even when they were initialized from the
chain-ladder ultimates. Sensitivity analysis depends on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.chainladder import DevelopmentFactors, _fit, project_ultimates
from runoff.triangle import CumulativeTriangle, YearValues


@dataclass(frozen=True)
class PriorUltimates(YearValues):
    """Exogenous prior ultimates mu_i > 0, one per accident year."""

    dimension: int
    values: np.ndarray

    def prior(self, i: int) -> float:
        if not 1 <= i <= self.dimension:
            raise IndexError(f"accident year {i} out of range 1..{self.dimension}")
        return float(self.values[i - 1])


def default_priors(cum: CumulativeTriangle, factors: DevelopmentFactors) -> PriorUltimates:
    """Priors set to the chain-ladder ultimates, then frozen."""
    return PriorUltimates(cum.dimension, project_ultimates(cum, factors))


def bf_reserve_values(fprod: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-year BF reserves mu_i (1 - 1/F_i) over the leading batch axes of
    the factor products F_i = f_{I-i+1} ... f_{I-1}; a year with F_i = 1
    needs no prior."""
    finite = np.isfinite(mu)
    ahead = np.real(fprod) != 1.0
    missing = np.nonzero(ahead & ~(finite & (mu > 0)))[-1]
    if missing.size:
        year = missing.min() + 1
        raise ValueError(f"missing or non-positive prior for accident year {year}")
    mu = np.where(finite, mu, 0.0)
    return mu - mu / fprod


def _prior_values(cum: CumulativeTriangle, priors: PriorUltimates) -> np.ndarray:
    """The priors' values, one per accident year of cum, or ValueError."""
    if priors.dimension != cum.dimension:
        raise ValueError(
            f"priors cover {priors.dimension} accident years, triangle has {cum.dimension}"
        )
    return priors.values


def bf_reserves(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
):
    """Per-year BF reserves mu_i (1 - 1/(f_{I-i+1} ... f_{I-1})) and their total."""
    by_year = bf_reserve_values(_fit(cum, factors).fprod, _prior_values(cum, priors))
    return by_year, float(np.sum(by_year))

"""Bornhuetter-Ferguson reserves on the chain-ladder development pattern.

Priors are a frozen snapshot: once constructed they are plain numbers and
never move with the triangle, even when they were initialized from the
chain-ladder ultimates. Sensitivity analysis depends on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.chainladder import DevelopmentFactors, Fit, project_ultimates
from runoff.triangle import CumulativeTriangle


@dataclass(frozen=True)
class PriorUltimates:
    """Exogenous prior ultimates mu_i > 0, one per accident year."""

    dimension: int
    values: np.ndarray

    def prior(self, i: int) -> float:
        if not 1 <= i <= self.dimension:
            raise IndexError(f"accident year {i} out of range 1..{self.dimension}")
        return float(self.values[i - 1])


def default_priors(cum: CumulativeTriangle, factors: DevelopmentFactors) -> PriorUltimates:
    """Priors set to the chain-ladder ultimates, then frozen."""
    return PriorUltimates(cum.dimension, np.array(project_ultimates(cum, factors)))


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


def bf_reserves(
    cum: CumulativeTriangle,
    factors: DevelopmentFactors,
    priors: PriorUltimates,
):
    """Per-year BF reserves mu_i (1 - 1/(f_{I-i+1} ... f_{I-1})) and their total."""
    dim = cum.dimension
    if priors.dimension != dim:
        raise ValueError(
            f"priors cover {priors.dimension} accident years, triangle has {dim}"
        )
    by_year = bf_reserve_values(Fit.build(cum, factors).fprod, priors.values)
    return by_year, float(np.sum(by_year))

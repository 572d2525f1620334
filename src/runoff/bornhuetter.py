"""Bornhuetter-Ferguson reserves on the chain-ladder development pattern.

Priors are a frozen snapshot: once constructed they are plain numbers and
never move with the triangle, even when they were initialized from the
chain-ladder ultimates. Sensitivity analysis depends on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.chainladder import DevelopmentFactors, _latest_and_fprod, project_ultimates
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
    _, fprod = _latest_and_fprod(cum, factors)
    finite = np.isfinite(priors.values)
    missing = np.flatnonzero((fprod != 1.0) & ~(finite & (priors.values > 0)))
    if missing.size:
        year = missing[0] + 1
        raise ValueError(f"missing or non-positive prior for accident year {year}")
    mu = np.where(finite, priors.values, 0.0)
    by_year = mu - mu / fprod
    return by_year, float(np.sum(by_year))

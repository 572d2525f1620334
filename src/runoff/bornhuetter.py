"""Bornhuetter-Ferguson reserves on the chain-ladder development pattern.

Priors are a frozen snapshot: once constructed they are plain numbers and
never move with the triangle, even when they were initialized from the
chain-ladder ultimates. Sensitivity analysis depends on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from runoff.chainladder import DevelopmentFactors, _fit
from runoff.triangle import Container, CumulativeTriangle, _one_based, _owned, _read_only

__all__ = ["PriorUltimates", "bf_reserves", "default_priors"]


@dataclass(frozen=True)
class PriorUltimates(Container):
    """Exogenous prior ultimates mu_i > 0, one per accident year."""

    dimension: int
    values: np.ndarray

    def prior(self, i: int) -> float:
        return float(self.values[_one_based(i, self.dimension, "accident year") - 1])


def default_priors(cum: CumulativeTriangle, factors: DevelopmentFactors) -> PriorUltimates:
    """Priors set to the chain-ladder ultimates, then frozen; ValueError
    names the first accident year whose ultimate overflows. The priors
    hold one copy of the fit's read-only ultimates."""
    ult = _fit(cum, factors).ult
    over = (~np.isfinite(ult)).nonzero()[0]
    if over.size:
        raise ValueError(f"chain-ladder ultimate of accident year {over[0] + 1} overflows double precision")
    return _owned(PriorUltimates, dimension=cum.dimension, values=_read_only(ult.copy()))


def _usable_priors(fprod: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The priors mu, 0 where missing, over the leading batch axes of fprod;
    ValueError names the first year with F_i != 1 and no finite positive prior."""
    finite = np.isfinite(mu)
    missing = ((fprod.real != 1.0) & ~(finite & (mu > 0))).nonzero()[-1]
    if missing.size:
        raise ValueError(f"missing or non-positive prior for accident year {missing.min() + 1}")
    return np.where(finite, mu, 0.0)


def bf_reserve_values(fprod: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-year BF reserves mu_i (1 - 1/F_i) over the leading batch axes of
    F_i = f_{I-i+1} ... f_{I-1}, of the priors _usable_priors accepts."""
    mu = _usable_priors(fprod, mu)
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
    return by_year, float(np.add.reduce(by_year))

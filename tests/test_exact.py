"""The reserves, their impacts and the Mack statistics against an exact
second reference (tests/exact.py): forward-mode duals over decimal at 60
digits, one pass per observed cell, and the Mack values in one pass,
sharing nothing with runoff but the input doubles, the frozen priors and
the normal quantile z_q.

The complex-step oracle steps runoff's own fitted sums through runoff's
own chain rule to the cells, so an error in either reads the same on both
sides of its check; here it cannot. Every reserve, BF reserve, total and
impact triangle must agree with the reference to BOUND I eps S, S the
largest |exact value| of the array (of each year's triangle for the
per-year impacts), with the same NaN cells. Over 40 seeded
random_triangles at each I in {3, 4, 6, 8, 10, 12} and 15 at I = 15, the
worst read 2.3 I eps S on a total reserve (a sum of ultimates less
latests), 1.1 on a per-year reserve and 0.94 on an impact triangle.

The Mack statistics (sigma^2, the MSE of years 2..I, the total MSE and
the 99.5% lognormal quantile) must agree to MACK_BOUNDS I eps of each
exact value, each sigma^2 and each year's MSE on its own scale, as each
is a statistic of its own. Over 200 seeded random_triangles at each I in
{4, 5, 6, 8, 10, 12, 15} (default_rng([s, I]), s = 100..299) the worst
read 4.7e5 on a sigma^2 or a year's MSE (at I = 15; 1.1e5 at I = 10, 1.9e3
at I = 4), 67 on a total MSE (at I = 4) and 3.6 on a quantile. The first
is the cancellation of C_{i,k+1} / C_{i,k} - f_k in each sigma^2 residual
when the development ratios lie near f_k (ROADMAP item 1), which the
estimator does not avoid: the bound states where it stands, not a target.
"""

import functools

import numpy as np
import pytest

from conftest import bundled_path, random_triangle
from exact import Mack, mack, reference
from runoff import impact
from runoff.bornhuetter import bf_reserves, default_priors
from runoff.chainladder import (estimate_development_factors, estimate_sigmas, mse_accident_year, mse_total,
                                reserves)
from runoff.cli import ingest
from runoff.impact import impact_bf_ay, impact_bf_total, impact_reserve_ay, impact_reserve_total
from runoff.quantile import fit_lognormal, inv_std_normal_cdf, lognormal_quantile
from runoff.triangle import cumulate

BOUND = 4.0
EPS = np.finfo(float).eps
# The bundled triangle and one random_triangle per size, seeded by its I.
TRIANGLES = ("bundled", 3, 4, 5, 8, 10, 12, 15)
IMPACTS = ("impact_reserve_ay", "impact_reserve_total", "impact_bf_ay", "impact_bf_total")
# The Mack statistics need I >= 4; their bounds, and the quantile's level.
MACK_TRIANGLES = ("bundled", 4, 5, 8, 10, 12, 15)
MACK_BOUNDS = {"sigma2": 1e6, "mse_by_year": 1e6, "mse_total": 128.0, "quantile": 8.0}
LEVEL = 0.995


def increments(name):
    """The bundled triangle, or random_triangle of I = name seeded by it."""
    return ingest(bundled_path()) if name == "bundled" else random_triangle(np.random.default_rng(name), name)


@functools.lru_cache
def case(name) -> tuple:
    """(increments, priors, exact reference) of one of TRIANGLES, the
    priors the chain-ladder ultimates (default_priors), frozen."""
    inc = increments(name)
    cum = cumulate(inc)
    priors = default_priors(cum, estimate_development_factors(cum))
    return inc, priors, reference(inc.to_rows(), priors.values)


def error(got, exact, dim: int) -> float:
    """The largest |got - exact| in units of I eps S, S the largest |exact|;
    infinite where the NaN cells differ, or S is 0 and got is not exact."""
    got, exact = np.asarray(got), np.asarray(exact)
    if not np.array_equal(np.isnan(got), np.isnan(exact)):
        return np.inf
    worst = np.nanmax(np.abs(got - exact), initial=0.0)
    scale = dim * EPS * np.nanmax(np.abs(exact), initial=0.0)
    return worst / scale if scale else (0.0 if worst == 0.0 else np.inf)


def errors(inc, priors, ref) -> dict:
    """Name of each of ref's fields -> runoff's worst error against it
    (error), the per-year impacts each year's triangle on its own scale."""
    dim, cum = inc.dimension, cumulate(inc)
    factors = estimate_development_factors(cum)
    years = range(1, dim + 1)
    got = dict(zip(("reserves", "reserve_total"), reserves(cum, factors)))
    got |= dict(zip(("bf", "bf_total"), bf_reserves(cum, factors, priors)))
    got |= {
        "impact_reserve_ay": [impact_reserve_ay(cum, factors, i).values for i in years],
        "impact_reserve_total": impact_reserve_total(cum, factors).values,
        "impact_bf_ay": [impact_bf_ay(cum, factors, priors, i).values for i in years],
        "impact_bf_total": impact_bf_total(cum, factors, priors).values,
    }
    return {
        name: max(error(g, e, dim) for g, e in zip(value, getattr(ref, name))) if name.endswith("_ay")
        else error(value, getattr(ref, name), dim)
        for name, value in got.items()
    }


def mack_errors(inc) -> dict:
    """Name of each field of exact.mack -> runoff's worst error against it
    (error), each entry of sigma^2 and of the MSEs of years 2..I on its own
    scale (year 1's MSE is 0)."""
    dim, cum = inc.dimension, cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    total = mse_total(cum, factors, sigmas)
    quantile = lognormal_quantile(fit_lognormal(reserves(cum, factors)[1], total), LEVEL)
    ref = mack(inc.to_rows(), inv_std_normal_cdf(LEVEL))
    got = {
        "sigma2": zip(sigmas.values, ref.sigma2),
        "mse_by_year": [(mse_accident_year(cum, factors, sigmas, i), ref.mse_by_year[i - 1])
                        for i in range(2, dim + 1)],
        "mse_total": [(total, ref.mse_total)],
        "quantile": [(quantile, ref.quantile)],
    }
    return {name: max(error(g, e, dim) for g, e in pairs) for name, pairs in got.items()}


@pytest.mark.parametrize("name", MACK_TRIANGLES)
def test_the_mack_statistics_match_the_exact_reference(name):
    got = mack_errors(increments(name))
    assert set(got) == set(MACK_BOUNDS) == set(Mack._fields)
    assert all(got[field] <= bound for field, bound in MACK_BOUNDS.items()), got


@pytest.mark.parametrize("name", TRIANGLES)
def test_the_reserves_and_their_impacts_match_the_exact_reference(name):
    got = errors(*case(name))
    assert set(got) == set(case(name)[2]._fields)
    assert all(e <= BOUND for e in got.values()), got


def test_a_wrong_chain_rule_to_the_cells_fails_the_exact_reference(monkeypatch):
    """impact._effects with its column effect's A_{j-1} term dropped, a
    plausible slip in the one map from the fitted sums to the cells: every
    impact fails, and the reserves, which do not read it, still pass."""
    effects = impact._effects

    def wrong(grad):
        row, col = effects(grad)
        col[..., 1:] += grad[..., : row.shape[-1] - 1]
        return row, col

    monkeypatch.setattr(impact, "_effects", wrong)
    got = errors(*case("bundled"))
    assert all(got[name] > BOUND for name in IMPACTS), got
    assert all(e <= BOUND for name, e in got.items() if name not in IMPACTS), got

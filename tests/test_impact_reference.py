"""The per-cell algebra the impact triangles were built with before each
became a gradient over the fitted sums, kept as their reference.

It writes down which sums a cell enters a second time, cell by cell: the
d ln f kernel g[s-1, j-1] = 1{j <= s+1} / A_s - 1{j <= s} / B_s on the rows
k <= I-s, the kernel K(c) over it, the per-year (I, I, I) stack with each
year's diagonal row written in, and the MSE total's d(B_r f_r^2) cell
arrays. runoff.impact reaches the same numbers through one map from the
3I-2 fitted sums to the cells; each of its triangles must agree with the
reference to I eps S, S the triangle's largest |value|, with the same NaN
and exact-zero cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_triangle
from runoff.bornhuetter import _prior_values, default_priors
from runoff.chainladder import _ahead, _fit, estimate_development_factors, estimate_sigmas
from runoff.impact import (
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
)
from runoff.quantile import fit_lognormal, impact_quantile, inv_std_normal_cdf, lognormal_quantile
from runoff.triangle import cumulate, observed_mask
from test_oracle import positive_triangles

QUANTILE_LEVEL = 0.995


def reference_g(fit) -> np.ndarray:
    """d ln f_s / dX_{k,j} for every row k <= I-s (zero below):
    g[s-1, j-1] = 1{j <= s+1} / A_s - 1{j <= s} / B_s."""
    s = np.arange(1, fit.dimension)[:, None]
    j = np.arange(1, fit.dimension + 1)
    inv_num = np.where(j <= s + 1, 1.0 / fit.num[..., None], 0.0)
    return inv_num - np.where(j <= s, 1.0 / fit.den[..., None], 0.0)


def reference_kernel(fit, c: np.ndarray) -> np.ndarray:
    """K(c)[k, j] = sum over s <= I-k of g[s, j] times the sum of c_q over
    q >= I-s+1, for c of shape (..., I): one suffix sum over q and one
    prefix sum over s."""
    ahead = _ahead(c[..., 1:])[..., 1:]
    per_s = (reference_g(fit) * ahead[..., :, None])[..., ::-1, :]
    return _ahead(per_s.swapaxes(-1, -2)).swapaxes(-1, -2)[..., ::-1, :]


def reference_years(fit, per_year: np.ndarray, diagonal: np.ndarray | None) -> np.ndarray:
    """Every year's triangle, (I, I, I): the kernel of the rows of
    diag(per_year), with row i of year i set to diagonal[i-1] (flat in j)
    unless diagonal is None."""
    values = reference_kernel(fit, np.diag(per_year))
    if diagonal is not None:
        rows = np.arange(fit.dimension)
        values[rows, rows] = diagonal[:, None]
    return values


def reference_mse_total(fit) -> np.ndarray:
    """The kernel of the per-year and cross-covariance weights, plus
    d(v_i) cell by cell: -2 sigma^2_r (1{j <= r} + 2 B_r g[r, j]) /
    (f_r^2 B_r^2) on the rows k <= I-r, prefix-summed over r."""
    dim = fit.dimension
    later = fit.later
    v = 2.0 * fit.w
    alpha = np.concatenate(([0.0], np.cumsum(v * fit.ult)[:-1])) + v * later
    u_ahead = _ahead((fit.ult * later)[1:])[1:]
    scale = -2.0 * fit.sigma2 / (fit.factors**2 * fit.den**2) * u_ahead
    r = np.arange(1, dim)
    member = np.arange(1, dim + 1) <= r[:, None]
    per_r = scale[:, None] * (member + 2.0 * fit.den[:, None] * reference_g(fit))
    d_cross_v = _ahead(per_r[::-1].T).T[::-1]
    kernel = reference_kernel(fit, (fit.shrink + alpha) * fit.ult)
    return kernel + d_cross_v + (fit.mse_diagonal + alpha * fit.fprod)[:, None]


def reference_impacts(inc) -> dict:
    """kind -> (triangles, I, I) reference values, NaN outside the observed
    region: every year for the per-year kinds, one triangle for the rest."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    fit = _fit(cum, factors, sigmas)
    mu = _prior_values(cum, default_priors(cum, factors))
    reserve_total = reference_kernel(fit, fit.ult) + (fit.fprod - 1.0)[:, None]
    mse_total = reference_mse_total(fit)
    values = {
        "reserve-ay": reference_years(fit, fit.ult, fit.fprod - 1.0),
        "reserve-total": reserve_total[None],
        "bf-ay": reference_years(fit, mu / fit.fprod, None),
        "bf-total": reference_kernel(fit, mu / fit.fprod)[None],
        "mse-ay": reference_years(fit, fit.shrink * fit.ult, fit.mse_diagonal),
        "mse-total": mse_total[None],
    }
    total, mse = float(np.sum(fit.reserves)), fit.mse_total
    if total > 0.0 and mse > 0.0:  # else the quantile is undefined
        ln = fit_lognormal(total, mse)
        d_sigma2 = (mse_total - 2.0 * mse * reserve_total / total) / (mse + total**2)
        d_mu = reserve_total / total - d_sigma2 / 2.0
        d_sigma = d_sigma2 / (2.0 * np.sqrt(ln.sigma2))
        z = inv_std_normal_cdf(QUANTILE_LEVEL)
        values["quantile"] = ((d_mu + z * d_sigma) * lognormal_quantile(ln, QUANTILE_LEVEL))[None]
    observed = observed_mask(inc.dimension)
    return {kind: np.where(observed, v + 0.0, np.nan) for kind, v in values.items()}


def quantile_parts(inc) -> float:
    """The largest sum over a cell of the magnitudes of the terms the
    quantile's chain rule adds, F^-1 (|IF(R)| (1 + 2 mse h / D) / R +
    |IF(mse)| h / D) with D = mse + R^2 and h = 1/2 + z_q / (2 sqrt(sigma2)):
    the scale its rounding is relative to, above its own largest |value|
    where the terms cancel."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    fit = _fit(cum, factors, sigmas)
    total, mse = float(np.sum(fit.reserves)), fit.mse_total
    ln = fit_lognormal(total, mse)
    denom = mse + total**2
    h = 0.5 + inv_std_normal_cdf(QUANTILE_LEVEL) / (2.0 * np.sqrt(ln.sigma2))
    if_r = np.abs(impact_reserve_total(cum, factors).values)
    if_m = np.abs(impact_mse_total(cum, factors, sigmas).values)
    terms = if_r * (1.0 + 2.0 * mse * h / denom) / total + if_m * h / denom
    return float(lognormal_quantile(ln, QUANTILE_LEVEL) * np.nanmax(terms))


def library_impacts(inc) -> dict:
    """kind -> (triangles, I, I) from the public impact functions, in the
    layout of reference_impacts."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    priors = default_priors(cum, factors)
    years = range(1, inc.dimension + 1)
    per_year = {
        "reserve-ay": lambda i: impact_reserve_ay(cum, factors, i),
        "bf-ay": lambda i: impact_bf_ay(cum, factors, priors, i),
        "mse-ay": lambda i: impact_mse_ay(cum, factors, sigmas, i),
    }
    out = {kind: np.stack([impact(i).values for i in years]) for kind, impact in per_year.items()}
    out["reserve-total"] = impact_reserve_total(cum, factors).values[None]
    out["bf-total"] = impact_bf_total(cum, factors, priors).values[None]
    out["mse-total"] = impact_mse_total(cum, factors, sigmas).values[None]
    try:
        out["quantile"] = impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL).values[None]
    except ValueError:  # a total reserve or MSE that is not positive
        pass
    return out


def assert_matches_the_reference(inc, any_triangle=False):
    """Every kind and year: the same NaN and exact-zero cells, and
    |library - reference| <= I eps S on the others, S the triangle's
    largest |value|.

    For any_triangle, two allowances for triangles as degenerate as
    hypothesis draws (cells of 1 beside cells of 1e7): the quantile's S
    is at least quantile_parts, since where its terms cancel both sides
    round the same chain rule in another order and stand as far from a
    long-double evaluation; and only the reference's zeros must be the
    library's, since a cell whose exact value is 0 can read 0 on one side
    and rounding noise on the other."""
    dim = inc.dimension
    got, want = library_impacts(inc), reference_impacts(inc)
    assert set(got) == set(want)
    for kind, ref in want.items():
        new = got[kind]
        assert new.shape == ref.shape, kind
        for t, (a, b) in enumerate(zip(new, ref), start=1):
            where = f"{kind} triangle {t} of I={dim}"
            assert np.array_equal(np.isnan(a), np.isnan(b)), where
            scale = np.nanmax(np.abs(b))
            if any_triangle and kind == "quantile":
                scale = max(scale, quantile_parts(inc))
            assert np.nanmax(np.abs(a - b)) <= dim * np.finfo(float).eps * scale, where
            assert np.all(a[b == 0.0] == 0.0), where
            if not any_triangle:
                assert np.array_equal(a == 0.0, b == 0.0), where


@settings(max_examples=30, deadline=None)
@given(positive_triangles())
def test_impacts_match_the_reference_on_any_positive_triangle(inc):
    assert_matches_the_reference(inc, any_triangle=True)


@pytest.mark.parametrize("dim", [40, 100])
def test_impacts_match_the_reference_on_large_triangles(dim):
    assert_matches_the_reference(random_triangle(np.random.default_rng([15, dim]), dim))


def test_impacts_match_the_reference_on_bundled(belgian):
    assert_matches_the_reference(belgian)

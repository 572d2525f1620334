import math

import numpy as np
import pytest

from conftest import proportional_triangle
from runoff.chainladder import (
    Fit,
    estimate_development_factors,
    estimate_sigmas,
    mse_total,
    reserves,
)
from runoff.impact import impact_mse_total, impact_reserve_total
from runoff.quantile import (
    LognormalFit,
    _quantile,
    fit_lognormal,
    impact_quantile,
    inv_std_normal_cdf,
    lognormal_quantile,
)
from runoff.triangle import cumulate


def erf_series(x: float) -> float:
    """Maclaurin series for erf, enough terms for |x| <= 3."""
    term = x
    acc = x
    for n in range(1, 120):
        term *= -x * x / n
        acc += term / (2 * n + 1)
    return acc * 2.0 / math.sqrt(math.pi)


def bisect_inverse_cdf(q: float) -> float:
    """Invert the normal CDF by bisection against the series erf."""
    lo, hi = -8.0, 8.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + erf_series(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestLognormalFit:
    def test_moments_round_trip(self):
        fit = fit_lognormal(1.5e9, 2.0e15)
        mean = math.exp(fit.mu + fit.sigma2 / 2.0)
        var = (math.exp(fit.sigma2) - 1.0) * math.exp(2.0 * fit.mu + fit.sigma2)
        assert math.isclose(mean, 1.5e9, rel_tol=1e-12)
        assert math.isclose(var, 2.0e15, rel_tol=1e-12)

    def test_small_ratio_stays_accurate(self):
        # log1p keeps sigma2 accurate when mse << reserve^2
        fit = fit_lognormal(1.0e9, 1.0)
        assert math.isclose(fit.sigma2, 1.0e-18, rel_tol=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="reserve must be positive"):
            fit_lognormal(0.0, 1.0)
        with pytest.raises(ValueError, match="mse must be positive"):
            fit_lognormal(1.0, -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="reserve must be positive"):
            fit_lognormal(math.nan, 1.0)
        with pytest.raises(ValueError, match="mse must be positive"):
            fit_lognormal(1.0, math.nan)

    def test_arrays_are_fitted_entry_by_entry(self):
        reserve = np.array([1.5e9, 2.0e3, 7.0])
        mse = np.array([2.0e15, 1.0e-2, 40.0])
        fit = fit_lognormal(reserve, mse)
        for n, (r, m) in enumerate(zip(reserve, mse)):
            one = fit_lognormal(float(r), float(m))
            assert fit.mu[n] == one.mu and fit.sigma2[n] == one.sigma2

    @pytest.mark.parametrize("bad", [[0.0, 2.0, 3.0], [1.0, 2.0, -3.0], [1.0, math.nan, 3.0]])
    def test_arrays_with_any_nonpositive_entry_are_refused(self, bad):
        bad = np.array(bad)
        with pytest.raises(ValueError, match="reserve must be positive"):
            fit_lognormal(bad, np.ones(3))
        with pytest.raises(ValueError, match="mse must be positive"):
            fit_lognormal(np.ones(3), bad)


class TestInverseNormal:
    @pytest.mark.parametrize(
        "q", [0.001, 0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.995, 0.9995]
    )
    def test_matches_bisection_oracle(self, q):
        assert abs(inv_std_normal_cdf(q) - bisect_inverse_cdf(q)) <= 1e-9

    def test_known_value(self):
        assert abs(inv_std_normal_cdf(0.995) - 2.575829304) <= 1e-8

    def test_symmetry(self):
        for q in (0.01, 0.2, 0.45):
            assert abs(inv_std_normal_cdf(q) + inv_std_normal_cdf(1.0 - q)) <= 1e-12

    def test_median_is_zero(self):
        assert abs(inv_std_normal_cdf(0.5)) <= 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="must lie in"):
            inv_std_normal_cdf(0.0)
        with pytest.raises(ValueError, match="must lie in"):
            inv_std_normal_cdf(1.0)


class TestLognormalQuantile:
    def test_median(self):
        fit = LognormalFit(mu=20.0, sigma2=0.04)
        assert math.isclose(lognormal_quantile(fit, 0.5), math.exp(20.0), rel_tol=1e-12)

    def test_monotone_in_q(self):
        fit = LognormalFit(mu=20.0, sigma2=0.04)
        qs = [0.1, 0.5, 0.9, 0.995]
        values = [lognormal_quantile(fit, q) for q in qs]
        assert values == sorted(values)


class TestFitSensitivities:
    """The chain-rule coefficients used by impact_quantile, pinned against
    scalar finite differences of the moment-matching map itself."""

    R = 1.4e9
    M = 2.1e15

    def d_fit(self, attr, dr=0.0, dm=0.0):
        up = getattr(fit_lognormal(self.R + dr, self.M + dm), attr)
        down = getattr(fit_lognormal(self.R - dr, self.M - dm), attr)
        return up - down

    def test_dsigma2_dm(self):
        h = self.M * 1e-6
        fd = self.d_fit("sigma2", dm=h) / (2.0 * h)
        assert math.isclose(fd, 1.0 / (self.M + self.R**2), rel_tol=1e-6)

    def test_dsigma2_dr(self):
        h = self.R * 1e-6
        fd = self.d_fit("sigma2", dr=h) / (2.0 * h)
        expected = -2.0 * self.M / (self.R * (self.M + self.R**2))
        assert math.isclose(fd, expected, rel_tol=1e-6)

    def test_dmu_dr(self):
        h = self.R * 1e-6
        fd = self.d_fit("mu", dr=h) / (2.0 * h)
        expected = 1.0 / self.R + self.M / (self.R * (self.M + self.R**2))
        assert math.isclose(fd, expected, rel_tol=1e-6)

    def test_dmu_dm(self):
        # mu barely moves with m, so a wider step keeps the difference
        # above cancellation noise; truncation is still ~1e-13 relative.
        h = self.M * 1e-3
        fd = self.d_fit("mu", dm=h) / (2.0 * h)
        assert math.isclose(fd, -0.5 / (self.M + self.R**2), rel_tol=1e-6)


class TestImpactQuantile:
    def test_median_drops_sigma_term(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        _, total = reserves(cum, factors)
        mse = mse_total(cum, factors, sigmas)
        arr = impact_quantile(cum, factors, sigmas, 0.5)
        if_r = impact_reserve_total(cum, factors).values
        if_m = impact_mse_total(cum, factors, sigmas).values
        denom = mse + total**2
        d_sigma2 = (if_m - 2.0 * mse * if_r / total) / denom
        d_mu = if_r / total - d_sigma2 / 2.0
        median = total / math.sqrt(1.0 + mse / total**2)
        expected = d_mu * median
        mask = ~np.isnan(arr.values)
        assert np.allclose(arr.values[mask], expected[mask], rtol=1e-12)

    def test_sensitivity_scaled_by_quantile_is_affine_in_z(self, belgian):
        """Dividing the impact by the quantile value leaves d_mu plus a
        term linear in the normal score, so three levels must be
        collinear in z. This pins the shape of the chain rule."""
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        _, total = reserves(cum, factors)
        fit = fit_lognormal(total, mse_total(cum, factors, sigmas))
        levels = (0.5, 0.9, 0.995)
        ratios = {
            q: impact_quantile(cum, factors, sigmas, q).values
            / lognormal_quantile(fit, q)
            for q in levels
        }
        for cell in ((1, 1), (1, 10), (4, 4)):
            r = {q: ratios[q][cell[0] - 1, cell[1] - 1] for q in levels}
            slope_mid = (r[0.9] - r[0.5]) / inv_std_normal_cdf(0.9)
            slope_far = (r[0.995] - r[0.5]) / inv_std_normal_cdf(0.995)
            assert math.isclose(slope_mid, slope_far, rel_tol=1e-9)

    def test_tail_levels_keep_corner_signs(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        for q in (0.9, 0.995):
            arr = impact_quantile(cum, factors, sigmas, q)
            assert arr.cell(1, 10) > 0.0
            assert arr.cell(1, 1) < 0.0

    def test_rejects_zero_mse(self):
        tri = proportional_triangle()
        cum = cumulate(tri)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        with pytest.raises(ValueError, match="impact_quantile undefined"):
            impact_quantile(cum, factors, sigmas, 0.995)

    def test_rejects_a_nan_total_reserve(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        with pytest.raises(ValueError, match="total reserve must be positive, got nan"):
            _quantile(Fit.of(cum.values * np.nan, sigma2=sigmas.values), 0.995)

import math

import numpy as np
import pytest

from conftest import build_corpus, proportional_triangle, random_triangle
from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import (
    DevelopmentFactors,
    Fit,
    SigmaEstimates,
    _fit,
    estimate_development_factors,
    estimate_sigmas,
    mack_summary,
    mse_accident_year,
    mse_total,
    project_ultimates,
    reserves,
)
from runoff.impact import d_ln_f, impact_bf_total, impact_mse_total, impact_reserve_total
from runoff.quantile import impact_quantile
from runoff.triangle import IncrementalTriangle, column_partial_sum, cumulate


def naive_factors(cum):
    """Column-ratio factors computed directly from the value array."""
    dim = cum.dimension
    vals = cum.values
    return [
        float(np.sum(vals[: dim - j, j]) / np.sum(vals[: dim - j, j - 1]))
        for j in range(1, dim)
    ]


def standard_sigma2(cum, factors):
    """Weighted residual variances written out the long way."""
    dim = cum.dimension
    out = []
    for k in range(1, dim - 1):
        fk = factors.factor(k)
        acc = sum(
            cum.cell(i, k) * (cum.cell(i, k + 1) / cum.cell(i, k) - fk) ** 2
            for i in range(1, dim - k + 1)
        )
        out.append(acc / (dim - k - 1))
    return out


def standard_mse_year(cum, factors, sigmas, i):
    """Textbook per-year prediction error: ultimate squared times the
    two-reciprocal sum, an independent arrangement of the same estimator."""
    dim = cum.dimension
    if i == 1:
        return 0.0
    proj = {dim - i + 1: cum.cell(i, dim - i + 1)}
    for s in range(dim - i + 1, dim):
        proj[s + 1] = proj[s] * factors.factor(s)
    acc = 0.0
    for s in range(dim - i + 1, dim):
        acc += (sigmas.sigma2(s) / factors.factor(s) ** 2) * (
            1.0 / proj[s] + 1.0 / column_partial_sum(cum, s, dim - s)
        )
    return proj[dim] ** 2 * acc


def standard_mse_total(cum, factors, sigmas):
    dim = cum.dimension
    ult = project_ultimates(cum, factors)
    acc = 0.0
    for i in range(2, dim + 1):
        acc += standard_mse_year(cum, factors, sigmas, i)
        later = float(np.sum(ult[i:]))
        cross = sum(
            2.0
            * sigmas.sigma2(s)
            / factors.factor(s) ** 2
            / column_partial_sum(cum, s, dim - s)
            for s in range(dim - i + 1, dim)
        )
        acc += ult[i - 1] * later * cross
    return acc


class TestDevelopmentFactors:
    def test_matches_column_ratios(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        assert np.allclose(factors.values, naive_factors(cum), rtol=1e-14)

    def test_matches_column_ratios_on_corpus(self):
        for tri in build_corpus(count=5, seed=3):
            cum = cumulate(tri)
            factors = estimate_development_factors(cum)
            assert np.allclose(factors.values, naive_factors(cum), rtol=1e-14)

    def test_empty_product_is_one(self, belgian):
        factors = estimate_development_factors(cumulate(belgian))
        assert factors.product(5, 4) == 1.0
        assert factors.product(10, 9) == 1.0

    def test_factor_bounds(self, belgian):
        factors = estimate_development_factors(cumulate(belgian))
        with pytest.raises(IndexError, match="factor index 10"):
            factors.factor(10)

    def test_zero_denominator(self):
        tri = IncrementalTriangle.from_rows(
            [[0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0], [0.0]]
        )
        with pytest.raises(ZeroDivisionError, match="development factor 1"):
            estimate_development_factors(cumulate(tri))


class TestReserves:
    def test_first_year_fully_developed(self, belgian):
        cum = cumulate(belgian)
        by_year, _ = reserves(cum, estimate_development_factors(cum))
        assert by_year[0] == 0.0

    def test_reserve_is_ultimate_minus_latest(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        ult = project_ultimates(cum, factors)
        by_year, total = reserves(cum, factors)
        for i in range(1, 11):
            latest = cum.cell(i, 11 - i)
            assert math.isclose(by_year[i - 1], ult[i - 1] - latest, rel_tol=1e-14)
        assert math.isclose(total, float(np.sum(by_year)), rel_tol=1e-14)

    def test_known_totals(self, belgian):
        cum = cumulate(belgian)
        by_year, total = reserves(cum, estimate_development_factors(cum))
        assert abs(by_year[7] - 226_403_952) <= 1.0
        assert abs(total - 1_463_388_942) <= 1.0


@pytest.mark.parametrize("dim", [5, 10, 20, 40])
def test_refits_are_bit_identical_to_the_reference(dim):
    """Ultimates and reserves equal the Fit they share one code path with.
    The column_partial_sum factors and the DevelopmentFactors.product
    formulas sum and multiply in another order, so against those the array
    forms agree to I * eps relative (of the BF prior, the scale of the
    terms mu - mu / F subtracts)."""
    cum = cumulate(random_triangle(np.random.default_rng([40, dim]), dim))
    bound = dim * np.finfo(float).eps

    def close(got, want, scale):
        assert np.all(np.abs(np.asarray(got) - want) <= bound * np.abs(scale))

    want = np.array([
        column_partial_sum(cum, j + 1, dim - j) / column_partial_sum(cum, j, dim - j)
        for j in range(1, dim)
    ])
    factors = estimate_development_factors(cum)
    close(factors.values, want, want)
    fit = Fit.build(cum, factors)
    ult = np.array([
        cum.cell(i, dim - i + 1) * factors.product(dim - i + 1, dim - 1)
        for i in range(1, dim + 1)
    ])
    assert project_ultimates(cum, factors).tolist() == fit.ult.tolist()
    close(fit.ult, ult, ult)
    by_year, total = reserves(cum, factors)
    assert by_year.tolist() == fit.reserves.tolist()
    assert total == float(np.sum(fit.reserves))
    mu = np.full(dim, 1.1) * ult
    bf = [m - m / factors.product(dim - i + 1, dim - 1) for i, m in enumerate(mu, start=1)]
    by_year, total = bf_reserves(cum, factors, PriorUltimates(dim, mu))
    close(by_year, bf, mu)
    close(total, np.sum(bf), np.sum(mu))


class TestSigmas:
    def test_matches_direct_formula(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        assert np.allclose(sigmas.values[:-1], standard_sigma2(cum, factors), rtol=1e-12)

    def test_min_rule_last_value(self, belgian):
        cum = cumulate(belgian)
        sigmas = estimate_sigmas(cum, estimate_development_factors(cum))
        # not directly estimable, so the smallest of the extrapolated and
        # the two preceding scales is used
        a, b = sigmas.sigma2(7), sigmas.sigma2(8)
        assert sigmas.sigma2(9) == min(b**2 / a, a, b)
        assert sigmas.sigma2(9) == a  # the bundled data picks the two-back scale

    def test_proportional_triangle_all_zero(self):
        tri = proportional_triangle()
        cum = cumulate(tri)
        sigmas = estimate_sigmas(cum, estimate_development_factors(cum))
        assert np.allclose(sigmas.values, 0.0, atol=1e-18)

    def test_requires_four_years(self):
        tri = IncrementalTriangle.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0], [6.0]])
        cum = cumulate(tri)
        with pytest.raises(ValueError, match="needs I >= 4"):
            estimate_sigmas(cum, estimate_development_factors(cum))

    def test_zero_cumulative_cell(self):
        tri = IncrementalTriangle.from_rows(
            [[0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0], [1.0]]
        )
        cum = cumulate(tri)
        factors = estimate_development_factors(cum)
        with pytest.raises(ZeroDivisionError, match=r"\(1, 1\) in sigma estimation"):
            estimate_sigmas(cum, factors)


class TestMse:
    def test_equals_standard_form_per_year(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        for i in range(1, 11):
            mine = mse_accident_year(cum, factors, sigmas, i)
            ref = standard_mse_year(cum, factors, sigmas, i)
            assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12)

    def test_equals_standard_form_on_corpus(self):
        for tri in build_corpus(count=5, seed=11):
            cum = cumulate(tri)
            factors = estimate_development_factors(cum)
            sigmas = estimate_sigmas(cum, factors)
            for i in range(1, tri.dimension + 1):
                mine = mse_accident_year(cum, factors, sigmas, i)
                ref = standard_mse_year(cum, factors, sigmas, i)
                assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(
                mse_total(cum, factors, sigmas),
                standard_mse_total(cum, factors, sigmas),
                rel_tol=1e-12,
            )

    def test_total_equals_standard_form(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        assert math.isclose(
            mse_total(cum, factors, sigmas),
            standard_mse_total(cum, factors, sigmas),
            rel_tol=1e-12,
        )

    def test_known_rmse(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        assert abs(math.sqrt(mse_accident_year(cum, factors, sigmas, 8)) - 9_448_925) <= 1.0
        assert abs(math.sqrt(mse_total(cum, factors, sigmas)) - 45_480_914) <= 1.0

    def test_year_out_of_range(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        with pytest.raises(IndexError, match="accident year 11"):
            mse_accident_year(cum, factors, sigmas, 11)

    def test_year_zero_names_the_range_from_year_one(self, belgian):
        # year 1 is accepted (its MSE is 0), so the range starts at 1
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        assert mse_accident_year(cum, factors, sigmas, 1) == 0.0
        with pytest.raises(IndexError, match=r"accident year 0 out of range 1\.\.10$"):
            mse_accident_year(cum, factors, sigmas, 0)


class TestMackSummary:
    def test_bundle_is_consistent(self, belgian):
        cum = cumulate(belgian)
        summary = mack_summary(cum)
        factors = estimate_development_factors(cum)
        assert np.allclose(summary.factors.values, factors.values, rtol=0)
        assert summary.mse_by_year[0] == 0.0
        assert math.isclose(
            summary.reserve_total, float(np.sum(summary.reserves_by_year)), rel_tol=1e-14
        )
        sigmas = estimate_sigmas(cum, factors)
        assert math.isclose(
            summary.mse_total, mse_total(cum, factors, sigmas), rel_tol=0
        )


class TestFitMemo:
    """A triangle keeps the last Fit built for it, keyed by the identity of
    its read-only factors and sigmas."""

    def test_a_sensitivity_report_builds_two_fits(self, belgian, fit_builds):
        # the perfbench api-report op: one fit without sigmas, one with
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        reserves(cum, factors)
        mse_total(cum, factors, sigmas)
        priors = default_priors(cum, factors)
        impact_reserve_total(cum, factors)
        impact_bf_total(cum, factors, priors)
        impact_mse_total(cum, factors, sigmas)
        impact_quantile(cum, factors, sigmas, 0.995)
        assert len(fit_builds) == 2
        assert "g" in _fit(cum, factors, sigmas).__dict__  # one g, read by all four

    def test_new_factors_object_gets_a_new_fit(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        base = reserves(cum, factors)[1]
        other = DevelopmentFactors(factors.dimension, factors.values * 1.01)
        fresh = float(np.sum(Fit.build(cum, other).reserves))
        assert reserves(cum, other)[1] == fresh != base
        assert _fit(cum, other) is not _fit(cum, factors)
        assert reserves(cum, factors)[1] == base

    def test_fit_with_sigmas_serves_reserves(self, belgian, fit_builds):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        fit = _fit(cum, factors, sigmas)
        assert _fit(cum, factors) is fit
        count = len(fit_builds)
        by_year, total = reserves(cum, factors)
        project_ultimates(cum, factors)
        assert len(fit_builds) == count
        assert by_year.tolist() == fit.reserves.tolist()

    def test_d_ln_f_builds_one_fit(self, fit_builds):
        cum = cumulate(random_triangle(np.random.default_rng([8, 6]), 6))
        g = [d_ln_f(cum, s, 1, j) for s in range(1, 6) for j in range(1, 7)]
        assert len(fit_builds) == 1
        assert g == np.ravel(Fit.of(cum.values).g).tolist()

    def test_factor_values_are_read_only(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        for values in (factors.values, sigmas.values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 2.0

    def test_returned_arrays_are_the_callers(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        want = reserves(cum, factors)
        for got in (reserves(cum, factors)[0], project_ultimates(cum, factors)):
            assert got.flags.writeable
            got[:] = 0.0
        again = reserves(cum, factors)
        assert again[0].tolist() == want[0].tolist() and again[1] == want[1]

    def test_factors_and_sigmas_of_another_dimension_are_refused(self):
        # a one-entry sigma array or an empty or two-entry factor array would broadcast
        cum = cumulate(random_triangle(np.random.default_rng([8, 6]), 6))
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        for call, name, dim in (
            (lambda: mse_total(cum, factors, SigmaEstimates(2, [5.0])), "SigmaEstimates", 2),
            (lambda: reserves(cum, DevelopmentFactors(1, [])), "DevelopmentFactors", 1),
            (lambda: impact_mse_total(cum, DevelopmentFactors(2, [1.1]), sigmas), "DevelopmentFactors", 2),
            (lambda: estimate_sigmas(cum, DevelopmentFactors(3, [1.1, 1.2])), "DevelopmentFactors", 3),
        ):
            with pytest.raises(ValueError, match=f"{name} for I={dim}, triangle has I=6"):
                call()

    def test_build_is_pure(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cumulate(belgian))
        first = Fit.build(cum, factors)
        assert Fit.build(cum, factors) is not first
        assert "_fit" not in cum.__dict__
        with pytest.raises(ValueError, match="no sigmas"):
            first.mse_total
        for name in ("reserves", "later"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, name)[0] = 1.0

import math

import numpy as np
import pytest

from conftest import build_corpus, proportional_triangle, random_triangle
from runoff.bornhuetter import PriorUltimates, bf_reserves
from runoff.chainladder import (
    DevelopmentFactors,
    Fit,
    estimate_development_factors,
    estimate_sigmas,
    mack_summary,
    mse_accident_year,
    mse_total,
    project_ultimates,
    reserves,
)
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
    """The oracle's verdicts hang on the last bit of every refit, so the
    lean factor, reserve, ultimate and BF code must equal, not approximate,
    the column_partial_sum factors and the Fit and factor-product formulas."""
    cum = cumulate(random_triangle(np.random.default_rng([40, dim]), dim))
    want = [
        column_partial_sum(cum, j + 1, dim - j) / column_partial_sum(cum, j, dim - j)
        for j in range(1, dim)
    ]
    factors = estimate_development_factors(cum)
    assert factors.values.tolist() == want
    fit = Fit.build(cum, DevelopmentFactors(dim, np.array(want)))
    ult = [
        cum.cell(i, dim - i + 1) * factors.product(dim - i + 1, dim - 1)
        for i in range(1, dim + 1)
    ]
    assert project_ultimates(cum, factors).tolist() == fit.ult.tolist() == ult
    by_year, total = reserves(cum, factors)
    assert by_year.tolist() == fit.reserves.tolist()
    assert total == float(np.sum(fit.reserves))
    mu = np.full(dim, 1.1) * ult
    bf = [m - m / factors.product(dim - i + 1, dim - 1) for i, m in enumerate(mu, start=1)]
    by_year, total = bf_reserves(cum, factors, PriorUltimates(dim, mu))
    assert by_year.tolist() == bf
    assert total == float(np.sum(bf))


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

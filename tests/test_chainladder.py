import dataclasses
import math

import numpy as np
import pytest

import golden
from conftest import build_corpus, proportional_triangle, random_triangle
from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import (
    DevelopmentFactors,
    Fit,
    SigmaEstimates,
    _ahead,
    _fit,
    estimate_development_factors,
    estimate_sigmas,
    mack_summary,
    mse_accident_year,
    mse_total,
    project_ultimates,
    reserves,
)
from runoff import chainladder, impact, oracle
from runoff.impact import d_ln_f, impact_bf_total, impact_mse_total, impact_reserve_total
from runoff.quantile import impact_quantile
from runoff.triangle import CumulativeTriangle, IncrementalTriangle, column_partial_sum, cumulate
from test_impact_reference import reference_g


def naive_factors(cum):
    """Column-ratio factors computed directly from the value array."""
    dim = cum.dimension
    vals = cum.values
    return [
        float(np.sum(vals[: dim - j, j]) / np.sum(vals[: dim - j, j - 1]))
        for j in range(1, dim)
    ]


def standard_sigma2(cum, factors):
    """Weighted residual variances written out the long way, then Mack's
    last scale: 0 when sigma^2_{I-3} is 0, else sigma^4_{I-2}/sigma^2_{I-3}
    when sigma^2_{I-2} is the smaller of the two (then it is the least of
    the three), else sigma^2_{I-3}."""
    dim = cum.dimension
    out = []
    for k in range(1, dim - 1):
        fk = factors.factor(k)
        acc = sum(
            cum.cell(i, k) * (cum.cell(i, k + 1) / cum.cell(i, k) - fk) ** 2
            for i in range(1, dim - k + 1)
        )
        out.append(acc / (dim - k - 1))
    a, b = out[-2], out[-1]
    if a == 0.0:
        out.append(0.0)
    elif b < a:
        out.append(b * b / a)
    else:
        out.append(a)
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

    @pytest.mark.parametrize("a, b", [(0, 3), (-2, 2), (1, 100), (1, 10), (100, 50), (0, -5)])
    def test_product_out_of_range(self, belgian, a, b):
        # a slice would wrap or clip the first four to 1.0, 1.0 and every
        # factor's product, and the empty-product rule read the last two as 1.0
        factors = estimate_development_factors(cumulate(belgian))
        with pytest.raises(IndexError, match=f"factor product {a}..{b} out of range 1..9"):
            factors.product(a, b)

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
        assert abs(by_year[7] - golden.RESERVE_AY8) <= 1.0
        assert abs(total - golden.RESERVE_TOTAL) <= 1.0


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
    fit = Fit.of(cum.values, factors.values)
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


def ahead_reference(per_s):
    """_ahead written with flip, cumsum and concatenate."""
    ahead = np.cumsum(np.flip(per_s, -1), axis=-1)
    return np.concatenate((np.zeros_like(ahead, shape=ahead.shape[:-1] + (1,)), ahead), axis=-1)


@pytest.mark.parametrize("shape", [(7,), (6, 9), (3, 5, 4), (0, 5)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_ahead_matches_the_reference(shape, dtype):
    rng = np.random.default_rng([13, len(shape)])
    per_s = rng.uniform(-1e6, 1e6, shape).astype(dtype)
    if dtype is complex:
        per_s += 1j * rng.uniform(-1.0, 1.0, shape)
    # C-ordered, and transposed (a strided last axis) as the oracle's gradients are
    for x in (per_s, per_s.T):
        want = ahead_reference(x)
        got = _ahead(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.writeable and got.flags.owndata
        got[...] = 1.0
        assert not np.any(x == 1.0)


class TestSigmas:
    def test_matches_direct_formula(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        assert np.allclose(sigmas.values, standard_sigma2(cum, factors), rtol=1e-12)

    def test_min_rule_last_value(self, belgian):
        cum = cumulate(belgian)
        sigmas = estimate_sigmas(cum, estimate_development_factors(cum))
        # not directly estimable, so the smallest of the extrapolated and
        # the two preceding scales is used
        a, b = sigmas.sigma2(7), sigmas.sigma2(8)
        assert sigmas.sigma2(9) == min(b**2 / a, a, b)
        assert sigmas.sigma2(9) == a  # the bundled data picks the two-back scale

    # Increments whose last scale takes each branch of the min rule over
    # a = sigma^2_{I-3} and b = sigma^2_{I-2}; in "b" the rows of the last
    # two columns are proportional in powers of two, so b is exactly 0.
    MIN_RULE = {
        "b*b/a": [[100, 50, 20, 5], [100, 90, 25], [100, 20], [100]],
        "b*b/a, I=5": [[100, 50, 20, 5, 2], [100, 90, 25, 4], [100, 20, 6], [100, 40], [100]],
        "a": [[100, 60, 10, 5], [100, 62, 40], [100, 61], [100]],
        "b": [[64, 64, 64, 5], [32, 32, 32], [100, 20], [100]],
        "a = 0": [[100, 50, 10, 5], [200, 100, 50], [50, 25], [100]],
    }

    @pytest.mark.parametrize("branch", MIN_RULE)
    def test_min_rule_branches(self, branch):
        """Each branch of the min rule on a small triangle: the last scale
        is the named one of a and b bit for bit, and every scale is the
        per-cell loop's (standard_sigma2) to a few rounding errors."""
        cum = cumulate(IncrementalTriangle.from_rows(self.MIN_RULE[branch]))
        factors = estimate_development_factors(cum)
        values = estimate_sigmas(cum, factors).values
        a, b = values[-3], values[-2]
        ratio = b * b / a if a else 0.0
        assert values[-1] == {"a": a, "b": b, "a = 0": 0.0}.get(branch, ratio)
        assert (a == 0.0) == (branch == "a = 0") and (b == 0.0) == (branch == "b")
        assert branch in ("b", "a = 0") or len({ratio, a, b}) == 3  # the pick is told apart
        np.testing.assert_allclose(values, standard_sigma2(cum, factors), rtol=8 * np.finfo(float).eps, atol=0.0)

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

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match=r"^sigma index 4 out of range 1\.\.3$"):
            SigmaEstimates(4, np.ones(3)).sigma2(4)

    def test_a_negative_sigma2_is_refused(self, belgian):
        """A negative sigma^2 makes a negative MSE (every sigma^2 = -1 gave
        the bundled triangle an mse_total of -1.06e11): it is refused by
        its development year and value. 0, -0.0 and NaN pass."""
        with pytest.raises(ValueError, match=r"^sigma\^2 of development year 3 must be >= 0, got -0\.5$"):
            SigmaEstimates(4, [1.0, 0.0, -0.5])
        cum = cumulate(belgian)
        with pytest.raises(ValueError, match=r"^sigma\^2 of development year 1 must be >= 0, got -1\.0$"):
            mse_total(cum, estimate_development_factors(cum), SigmaEstimates(10, -np.ones(9)))
        assert math.isnan(SigmaEstimates(4, [0.0, -0.0, math.nan]).sigma2(3))

    def test_estimated_sigmas_keep_the_refusal(self):
        """estimate_sigmas builds its SigmaEstimates in place, with no
        __post_init__, and refuses a negative sigma^2 in the same words:
        a cumulative triangle of negative cells weighs its squared
        residuals negatively."""
        cum = CumulativeTriangle(4, [[-4.0, -6.0, -7.0, -9.0], [-5.0, -9.0, -8.0, math.nan],
                                     [-6.0, -7.0, math.nan, math.nan], [-3.0] + [math.nan] * 3])
        factors = estimate_development_factors(cum)
        with pytest.raises(ValueError) as want:
            SigmaEstimates(4, chainladder.sigma2_values(cum.values, factors.values))
        with pytest.raises(ValueError, match=r"^sigma\^2 of development year 1 must be >= 0, got -0\.54") as got:
            estimate_sigmas(cum, factors)
        assert str(got.value) == str(want.value)

    def test_zero_cumulative_cell(self):
        tri = IncrementalTriangle.from_rows(
            [[0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0], [1.0]]
        )
        cum = cumulate(tri)
        factors = estimate_development_factors(cum)
        with pytest.raises(ZeroDivisionError, match=r"\(1, 1\) in sigma estimation"):
            estimate_sigmas(cum, factors)

    def test_zero_cumulative_cells_are_named_column_by_column(self):
        """C(1,2) = 0 (an increment of -1) comes first row by row, C(2,1)
        = 0 column by column: the message names (2, 1)."""
        tri = IncrementalTriangle.from_rows([[1.0, -1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0], [1.0]])
        cum = cumulate(tri)
        assert cum.cell(1, 2) == cum.cell(2, 1) == 0.0
        with pytest.raises(ZeroDivisionError, match=r"^zero cumulative cell \(2, 1\) in sigma estimation$"):
            estimate_sigmas(cum, estimate_development_factors(cum))


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
        assert abs(math.sqrt(mse_accident_year(cum, factors, sigmas, 8)) - golden.RMSE_AY8) <= 1.0
        assert abs(math.sqrt(mse_total(cum, factors, sigmas)) - golden.RMSE_TOTAL) <= 1.0

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

    @pytest.mark.parametrize("values", [math.inf, math.nan, np.array([math.inf, 1.0]), np.array([math.nan, -math.inf])],
                             ids=["inf", "nan", "inf-and-one", "no-finite"])
    def test_the_product_scale_of_a_value_that_is_not_finite_is_at_least_one(self, values):
        """frexp(inf) is (inf, 0), which read as the scale 0.5."""
        assert chainladder._scale(values) == 1.0

    def test_the_product_scale_passes_over_what_is_not_finite(self):
        finite = np.array([1e300, 1.0, 2e-300])
        assert chainladder._scale(np.append(finite, math.inf)) == chainladder._scale(finite) == 2.0**996
        assert chainladder._scale(np.append(finite, math.nan) + 1j) == 2.0**996

    def test_year_one_of_an_overflowing_ultimate_reads_zero(self):
        """Year 4's ultimate is inf, so the scale of the Mack products once
        read 0.5 and ult_1 (1/s) ult_1 (1/s) overflowed before it met w_1 = 0:
        year 1, with no development ahead, read NaN where its MSE is 0."""
        inc = IncrementalTriangle.from_rows([[1e-300, 1e300, 1, 1], [1e-300, 1e-300, 1], [1e-300, 1e-300], [1e100]])
        cum = cumulate(inc)
        with np.errstate(over="ignore", invalid="ignore"):
            factors = estimate_development_factors(cum)
            sigmas = estimate_sigmas(cum, factors)
            fit = Fit.of(cum.values, factors.values, sigmas.values)
            by_year = fit.mse_by_year
            assert mse_accident_year(cum, factors, sigmas, 1) == 0.0
        assert fit.ult[-1] == math.inf and fit.scale == 2.0**996
        assert by_year[:2].tolist() == [0.0, 0.0] and np.isnan(by_year[2:]).all()


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


def sensitivity_report(inc):
    """The perfbench api-report op's calls, as (cum, factors, sigmas, its
    quantile impact triangle)."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    reserves(cum, factors)
    mse_total(cum, factors, sigmas)
    priors = default_priors(cum, factors)
    impact_reserve_total(cum, factors)
    impact_bf_total(cum, factors, priors)
    impact_mse_total(cum, factors, sigmas)
    return cum, factors, sigmas, impact_quantile(cum, factors, sigmas, 0.995)


class TestFitMemo:
    """A triangle keeps the last Fit built for it, keyed by the identity of
    its read-only factors and sigmas."""

    def test_a_sensitivity_report_builds_one_fit(self, belgian, fit_builds):
        # the perfbench api-report op: the factors' fit, its sigma fit derived
        cum, factors, sigmas, _ = sensitivity_report(belgian)
        assert len(fit_builds) == 1

    def test_a_sensitivity_report_builds_each_total_impact_once(self, belgian, monkeypatch):
        maps = []
        effects = impact._effects

        def counted(grad):
            maps.append(grad)
            return effects(grad)

        monkeypatch.setattr(impact, "_effects", counted)
        cum, factors, sigmas, quantile = sensitivity_report(belgian)
        # the reserve, BF, MSE and quantile totals; impact_quantile combines
        # the reserve and MSE gradients over the sums and maps once
        assert [grad.shape for grad in maps] == [(3 * cum.dimension - 2,)] * 4
        fresh = impact_quantile(cumulate(belgian), factors, sigmas, 0.995)
        assert quantile.values.tobytes() == fresh.values.tobytes()

    def test_a_sensitivity_report_computes_each_total_gradient_once(self, belgian, monkeypatch):
        grads = []
        grad = impact._grad

        def counted(*args):
            grads.append(args)
            return grad(*args)

        monkeypatch.setattr(impact, "_grad", counted)
        sensitivity_report(belgian)
        # the reserve, BF and MSE totals; impact_quantile reads the held
        # reserve and MSE gradients of the same fit
        assert len(grads) == 3

    def test_the_held_gradients_are_read_only_and_a_fresh_fits(self, belgian):
        cum, factors, sigmas, _ = sensitivity_report(belgian)
        fit = _fit(cum, factors, sigmas)
        fresh = Fit.of(cumulate(belgian).values, factors.values, sigmas.values)
        for gradient in (impact._reserve, impact._mse):
            held = gradient(fit)
            assert gradient(fit) is held and not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0
            assert held.tobytes() == gradient(fresh).tobytes()
            # per-year gradients are computed on every call, not held
            assert gradient(fit, 2) is not gradient(fit, 2)

    def test_other_sigmas_get_their_own_mse_total_impact(self, belgian):
        cum, factors, sigmas, _ = sensitivity_report(belgian)
        held = _fit(cum, factors, sigmas)
        other = SigmaEstimates(sigmas.dimension, sigmas.values * 1.5)
        got = impact_mse_total(cum, factors, other).values  # derived by with_sigmas
        fresh = impact_mse_total(cumulate(belgian), factors, other).values  # by Fit.of
        assert got.tobytes() == fresh.tobytes()
        assert not np.array_equal(got, impact_mse_total(cum, factors, sigmas).values, equal_nan=True)
        other_total = impact._reserve(_fit(cum, factors, other))
        assert other_total.tobytes() == impact._reserve(held).tobytes()

    def test_the_sigma_fit_is_derived_from_the_held_fit(self, belgian, fit_builds):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        held = _fit(cum, factors)
        held.reserves
        sigmas = estimate_sigmas(cum, factors)
        fit = _fit(cum, factors, sigmas)
        assert len(fit_builds) == 1  # the factors' fit alone
        for name in ("num", "den", "factors", "fprod", "latest", "ult", "reserves"):
            assert getattr(fit, name) is getattr(held, name), name
        assert fit.sigma2.tolist() == sigmas.values.tolist() and not fit.sigma2.flags.writeable
        assert fit.mse_total == Fit.of(cum.values, factors.values, sigmas.values).mse_total
        assert held.sigma2 is None

    def test_reserve_total_is_the_sum_of_the_reserves(self, belgian):
        """Bit for bit, read-only, one value per batch entry: on a fit, and
        on the oracle's complex stack of 3I-2 fits; reserves and
        mack_summary report it."""
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        fit = _fit(cum, factors)
        stack = oracle._stack(fit, oracle._step(fit))
        for f in (fit, stack):
            want = np.add.reduce(f.reserves, axis=-1)
            assert np.shape(f.reserve_total) == np.shape(want) == f.reserves.shape[:-1]
            assert np.asarray(f.reserve_total).tobytes() == np.asarray(want).tobytes()
            assert f.reserve_total is f.reserve_total  # computed once
            # a scalar cannot be written to; an array is read-only
            assert np.isscalar(f.reserve_total) if f is fit else not f.reserve_total.flags.writeable
        total = float(np.add.reduce(reserves(cum, factors)[0]))
        assert reserves(cum, factors)[1] == mack_summary(cum).reserve_total == total == fit.reserve_total

    def test_the_sigma_fit_shares_what_the_base_computed(self, belgian):
        # one copy of the base's __dict__: every value it computed, its held
        # total reserve gradient among them, is the same object on both
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        base = _fit(cum, factors)
        computed = {name: getattr(base, name) for name in ("reserves", "reserve_total", "later", "scale")}
        held = impact._reserve(base)
        fit = _fit(cum, factors, estimate_sigmas(cum, factors))
        assert fit is not base and base.sigma2 is None and "sigma2" not in computed
        for name, value in computed.items():
            assert getattr(fit, name) is value, name
        assert impact._reserve(fit) is held

    def test_a_served_fit_leaves_the_record_as_it_was(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        fit = _fit(cum, factors, sigmas)
        record = cum.__dict__["_fit"]
        for given in ((factors, sigmas), (None, sigmas), (factors, None), (None, None)):
            assert _fit(cum, *given) is fit
        assert cum.__dict__["_fit"] is record

    def test_a_cached_value_is_computed_once(self, belgian, monkeypatch):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        fit = Fit.of(cum.values, factors.values, estimate_sigmas(cum, factors).values)
        sums = []
        ahead = chainladder._ahead
        monkeypatch.setattr(chainladder, "_ahead", lambda per_s: sums.append(per_s) or ahead(per_s))
        for _ in range(2):
            for name in ("reserves", "later", "scale", "w", "process", "mse_by_year", "mse_total"):
                value = getattr(fit, name)
                assert getattr(fit, name) is value and vars(fit)[name] is value, name
        assert len(sums) == 3  # later, w and process, once each
        assert Fit.reserves.__doc__ == "Per-year chain-ladder reserves, ultimate minus latest."

    def test_fields_and_cached_values_stay_frozen(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        base = _fit(cum, factors)
        fit = _fit(cum, factors, estimate_sigmas(cum, factors))
        for held, name in ((base, "num"), (base, "sigma2"), (fit, "sigma2"), (fit, "ult"), (fit, "reserves"),
                           (fit, "mse_total")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(held, name, None)

    def test_new_factors_object_gets_a_new_fit(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        base = reserves(cum, factors)[1]
        other = DevelopmentFactors(factors.dimension, factors.values * 1.01)
        fresh = float(np.sum(Fit.of(cum.values, other.values).reserves))
        assert reserves(cum, other)[1] == fresh != base
        assert _fit(cum, other) is not _fit(cum, factors)
        assert reserves(cum, factors)[1] == base

    def test_new_factors_with_sigmas_build_one_fit(self, belgian, fit_builds):
        # a factors miss builds the fit without sigmas, then attaches them
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        other = DevelopmentFactors(factors.dimension, factors.values * 1.01)
        fit_builds.clear()
        fit = _fit(cum, other, sigmas)
        assert len(fit_builds) == 1
        fresh = Fit.of(cum.values, other.values, sigmas.values)
        for name in ("num", "den", "factors", "fprod", "latest", "ult", "sigma2", "reserves", "later",
                     "scale", "w", "process", "mse_by_year", "mse_total"):
            assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(getattr(fresh, name)).tobytes(), name
        fit_builds.clear()
        assert _fit(cum, other) is fit
        more = SigmaEstimates(sigmas.dimension, sigmas.values * 1.5)
        attached = _fit(cum, other, more)
        assert not fit_builds
        assert attached.num is fit.num and attached.sigma2.tolist() == more.values.tolist()

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
        assert g == np.ravel(reference_g(Fit.of(cum.values))).tolist()

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
            (lambda: mse_accident_year(cum, factors, SigmaEstimates(2, [5.0]), 1), "SigmaEstimates", 2),
        ):
            with pytest.raises(ValueError, match=f"{name} for I={dim}, triangle has I=6"):
                call()

    def test_build_is_pure(self, belgian):
        cum = cumulate(belgian)
        factors = estimate_development_factors(cumulate(belgian))
        first = Fit.of(cum.values, factors.values)
        assert Fit.of(cum.values, factors.values) is not first
        assert "_fit" not in cum.__dict__
        with pytest.raises(ValueError, match="no sigmas"):
            first.mse_total
        for name in ("reserves", "later"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, name)[0] = 1.0

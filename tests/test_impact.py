import math
import warnings

import numpy as np
import pytest

import properties
from conftest import proportional_triangle, random_triangle
from runoff.bornhuetter import default_priors
from runoff.chainladder import (
    Fit,
    _fit,
    estimate_development_factors,
    estimate_sigmas,
    mse_accident_year,
    mse_total,
    project_ultimates,
    reserves,
)
from runoff.cli import render_json
from runoff.impact import (
    ImpactTriangle,
    _bf,
    _check_mse,
    _impact,
    _mse,
    _reserve,
    _to_cells,
    d_ln_f,
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
    impact_rmse,
    marginal_contributions,
)
from runoff.oracle import _STATISTICS, complex_step
from runoff.quantile import impact_quantile
from runoff.triangle import IncrementalTriangle, _observed, cumulate, observed_mask
from test_cli import OVERFLOWING_MSE, OVERFLOWING_RESERVE_TOTAL, OVERFLOWING_SUMS, OVERFLOWING_ULTIMATE
from test_impact_reference import reference_g
from test_oracle import near_proportional


@pytest.fixture(scope="module")
def state(belgian):
    cum = cumulate(belgian)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    return cum, factors, sigmas


class TestImpactTriangle:
    def test_cell_bounds(self, state):
        cum, factors, _ = state
        arr = impact_reserve_ay(cum, factors, 8)
        with pytest.raises(IndexError, match=r"\(9, 3\) is not observed"):
            arr.cell(9, 3)

    def test_values_read_only(self, state):
        cum, factors, _ = state
        arr = impact_reserve_ay(cum, factors, 8)
        with pytest.raises(ValueError):
            arr.values[0, 0] = 0.0

    def test_tags(self, state):
        cum, factors, sigmas = state
        assert impact_reserve_ay(cum, factors, 8).statistic == "reserve-ay"
        assert impact_reserve_ay(cum, factors, 8).target == 8
        assert impact_reserve_total(cum, factors).target is None
        assert impact_mse_total(cum, factors, sigmas).statistic == "mse-total"

    @pytest.mark.parametrize("name", ["reserve-ay", "bf-ay", "mse-ay", "marginal"])
    def test_a_numpy_int_year_is_kept_as_an_int(self, belgian, state, name):
        cum, factors, sigmas = state
        priors = default_priors(cum, factors)
        build = {
            "reserve-ay": lambda i: impact_reserve_ay(cum, factors, i),
            "bf-ay": lambda i: impact_bf_ay(cum, factors, priors, i),
            "mse-ay": lambda i: impact_mse_ay(cum, factors, sigmas, i),
            "marginal": lambda i: marginal_contributions(impact_reserve_ay(cum, factors, i), belgian),
        }[name]
        got = build(np.int64(3))
        assert type(got.target) is int
        assert render_json(got, 1.0) == render_json(build(3), 1.0)


class TestReserveImpacts:
    def test_zero_above_target_year(self, state):
        cum, factors, _ = state
        arr = impact_reserve_ay(cum, factors, 8)
        for k in (9, 10):
            for j in range(1, 12 - k):
                assert arr.cell(k, j) == 0.0

    def test_year_one_all_zero(self, state):
        cum, factors, _ = state
        arr = impact_reserve_ay(cum, factors, 1)
        assert all(arr.cell(k, j) == 0.0 for k, j in arr.observed_cells())

    def test_total_is_sum_of_years(self, state):
        cum, factors, _ = state
        total = impact_reserve_total(cum, factors).values
        acc = np.zeros((10, 10))
        for i in range(1, 11):
            acc += np.nan_to_num(impact_reserve_ay(cum, factors, i).values)
        assert np.allclose(np.nan_to_num(total), acc, rtol=1e-14)

    def test_year_out_of_range(self, state):
        cum, factors, _ = state
        with pytest.raises(IndexError, match="accident year 0"):
            impact_reserve_ay(cum, factors, 0)


class TestDLnF:
    def test_zero_outside_both_sums(self, state):
        cum, _, _ = state
        # k > I - s means the cell's row enters neither column sum
        assert d_ln_f(cum, 3, 8, 1) == 0.0

    def test_numerator_only_region(self, state):
        cum, _, _ = state
        # j = s+1 sits in the numerator sum only
        from runoff.triangle import column_partial_sum

        expected = 1.0 / column_partial_sum(cum, 4, 7)
        assert d_ln_f(cum, 3, 2, 4) == expected

    def test_both_sums_region(self, state):
        cum, _, _ = state
        from runoff.triangle import column_partial_sum

        expected = 1.0 / column_partial_sum(cum, 4, 7) - 1.0 / column_partial_sum(
            cum, 3, 7
        )
        assert d_ln_f(cum, 3, 2, 2) == expected

    def test_index_bounds(self, state):
        cum, _, _ = state
        with pytest.raises(IndexError, match="factor index 10"):
            d_ln_f(cum, 10, 1, 1)
        # j = 0 would wrap around to the last development year
        with pytest.raises(IndexError, match="development year 0"):
            d_ln_f(cum, 3, 1, 0)

    @pytest.mark.parametrize("k, j", [(0, 1), (-3, 1), (11, 1), (2, 10)])
    def test_unobserved_cell_is_refused(self, state, k, j):
        # unchecked, rows 0 and -3 would read as row 1, row 11 and (2, 10) as 0.0
        cum, _, _ = state
        with pytest.raises(IndexError, match=rf"cell \({k}, {j}\) is not observed for I=10"):
            d_ln_f(cum, 1, k, j)

    @pytest.mark.parametrize("dim", [5, 12])
    def test_matches_fit_g_on_every_cell(self, dim):
        """d_ln_f against the reference kernel g, the per-cell form the
        impacts were built on."""
        cum = cumulate(random_triangle(np.random.default_rng([7, dim]), dim))
        g = reference_g(Fit.of(cum.values))
        for s in range(1, dim):
            for k, j in cum.observed_cells():
                want = g[s - 1, j - 1] if k <= dim - s else 0.0
                got = d_ln_f(cum, s, k, j)
                assert abs(got - want) <= dim * np.finfo(float).eps * abs(want), (s, k, j)


class TestMseImpacts:
    def test_opposite_sign_below_diagonal(self, state):
        cum, factors, sigmas = state
        for i in (5, 8):
            mse_arr = impact_mse_ay(cum, factors, sigmas, i)
            res_arr = impact_reserve_ay(cum, factors, i)
            for k in range(1, i):
                for j in range(1, 12 - k):
                    r = res_arr.cell(k, j)
                    if r != 0.0:
                        assert mse_arr.cell(k, j) * r < 0.0

    def test_diagonal_row_flat(self, state):
        cum, factors, sigmas = state
        arr = impact_mse_ay(cum, factors, sigmas, 8)
        row = [arr.cell(8, j) for j in range(1, 4)]
        assert row[0] == row[1] == row[2] > 0.0

    def test_proportional_triangle_zero(self):
        tri = proportional_triangle()
        cum = cumulate(tri)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        for i in range(2, 6):
            arr = impact_mse_ay(cum, factors, sigmas, i)
            assert all(v == 0.0 for v in arr.values[~np.isnan(arr.values)])
        total = impact_mse_total(cum, factors, sigmas)
        assert all(v == 0.0 for v in total.values[~np.isnan(total.values)])


class TestRmseTransform:
    def test_halved_and_scaled(self, state):
        cum, factors, sigmas = state
        mse_arr = impact_mse_ay(cum, factors, sigmas, 8)
        m = mse_accident_year(cum, factors, sigmas, 8)
        rmse_arr = impact_rmse(m, mse_arr)
        assert rmse_arr.statistic == "rmse-ay"
        k, j = 3, 5
        assert math.isclose(
            rmse_arr.cell(k, j), mse_arr.cell(k, j) / (2.0 * math.sqrt(m)), rel_tol=1e-14
        )

    def test_simple_numbers(self):
        arr = ImpactTriangle("mse-ay", 2, 2, np.array([[8.0, 0.0], [8.0, np.nan]]))
        out = impact_rmse(4.0, arr)
        assert out.cell(1, 1) == 2.0
        assert out.cell(1, 2) == 0.0

    @pytest.mark.parametrize("build", [
        lambda cum, f, s, mu: impact_reserve_total(cum, f),
        lambda cum, f, s, mu: impact_reserve_ay(cum, f, 8),
        lambda cum, f, s, mu: impact_bf_total(cum, f, mu),
        lambda cum, f, s, mu: impact_bf_ay(cum, f, mu, 8),
        lambda cum, f, s, mu: impact_quantile(cum, f, s, 0.995),
    ], ids=["reserve-total", "reserve-ay", "bf-total", "bf-ay", "quantile"])
    def test_rejects_impacts_that_are_not_an_mse(self, state, build):
        cum, factors, sigmas = state
        impacts = build(cum, factors, sigmas, default_priors(cum, factors))
        with pytest.raises(ValueError, match=f"impact_rmse maps MSE impacts, got '{impacts.statistic}'"):
            impact_rmse(4.0, impacts)

    def test_maps_an_mse_contribution(self):
        arr = ImpactTriangle("mse-total-contribution", None, 2, np.array([[8.0, 0.0], [8.0, np.nan]]))
        assert impact_rmse(4.0, arr).statistic == "rmse-total-contribution"

    def test_rejects_nonpositive_mse(self):
        arr = ImpactTriangle("mse-ay", 2, 2, np.array([[8.0, 0.0], [8.0, np.nan]]))
        with pytest.raises(ValueError, match="mse_value <= 0"):
            impact_rmse(0.0, arr)

    def test_rejects_nan_mse(self):
        arr = ImpactTriangle("mse-ay", 2, 2, np.array([[8.0, 0.0], [8.0, np.nan]]))
        with pytest.raises(ValueError, match="mse_value <= 0"):
            impact_rmse(math.nan, arr)
        with pytest.raises(ValueError, match="impact_rmse undefined: mse = nan"):
            _check_mse("impact_rmse", math.nan, zero_sigmas=False)

    def test_zero_sigmas_name_the_cause(self, belgian):
        # the total and year I read every sigma^2; year 1 reads none, so its
        # zero MSE keeps the plain message
        cum = cumulate(proportional_triangle())
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        cause = "impact_rmse undefined: all development ratios are proportional, every sigma"
        for m, impacts in (
            (mse_total(cum, factors, sigmas), impact_mse_total(cum, factors, sigmas)),
            (mse_accident_year(cum, factors, sigmas, 5), impact_mse_ay(cum, factors, sigmas, 5)),
        ):
            with pytest.raises(ValueError, match=cause):
                impact_rmse(m, impacts)
        cum = cumulate(belgian)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        with pytest.raises(ValueError, match="mse_value <= 0"):
            impact_rmse(0.0, impact_mse_ay(cum, factors, sigmas, 1))


def _text_triangle(text: str) -> IncrementalTriangle:
    """The triangle of a CLI input text: an I= line, then one row per line."""
    return IncrementalTriangle.from_rows([[float(x) for x in ln.split(",")] for ln in text.splitlines()[1:]])


# test_cli.py's TestOverflow triangles: the column sums, the Mack sums, an
# ultimate, the total reserve and the squares of the ultimates past the
# largest double
OVERFLOWING = {
    "sums": _text_triangle(OVERFLOWING_SUMS),
    "mse": _text_triangle(OVERFLOWING_MSE),
    "ultimate": _text_triangle(OVERFLOWING_ULTIMATE),
    "reserve-total": _text_triangle(OVERFLOWING_RESERVE_TOTAL),
    "squares": IncrementalTriangle.from_rows([[x * 2.0**500 for x in row]
                                              for row in near_proportional(6, 1e-12).to_rows()]),
}


@pytest.mark.parametrize(
    "inc",
    [*(random_triangle(np.random.default_rng([20261018, dim]), dim) for dim in (4, 10, 40)), *OVERFLOWING.values()],
    ids=[*(f"I={dim}" for dim in (4, 10, 40)), *OVERFLOWING],
)
def test_an_impact_triangle_is_the_scatter_of_its_cells(inc):
    """_impact, the row effects less the column effects on the observed
    region, is the _to_cells gather scattered into observed_mask, NaN
    elsewhere, bit for bit, for every statistic and year; the unobserved
    cells raise no numpy warning the scatter does not. The random
    triangles are bench/layers.py's random_rows."""
    with np.errstate(all="ignore"):
        cum = cumulate(inc)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        fit = _fit(cum, factors, sigmas)
    mu = default_priors(cum, factors).values if np.all(np.isfinite(fit.ult)) else None
    dim, checked = inc.dimension, 0
    for name, entry in _STATISTICS.items():
        if name.startswith("rmse") or (entry.priors and mu is None):
            continue
        for year in range(1, dim + 1) if name.endswith("-ay") else [None]:
            try:
                with np.errstate(all="ignore"):
                    grad = entry.grad(fit, year, mu, 0.995)
            except ValueError:  # a quantile of a total or MSE that is not positive
                continue
            with warnings.catch_warnings(record=True) as scattered, np.errstate(all="warn"):
                warnings.simplefilter("always")
                want = np.full((dim, dim), np.nan)
                want[observed_mask(dim)] = _to_cells(grad)
            with warnings.catch_warnings(record=True) as written, np.errstate(all="warn"):
                warnings.simplefilter("always")
                got = _impact(name, year, grad)
            assert got.values.tobytes() == want.tobytes(), (name, year)
            assert [str(w.message) for w in written] == [str(w.message) for w in scattered], (name, year)
            checked += 1
    assert checked >= 2 * (dim + 1)  # every reserve and MSE gradient at least


@pytest.mark.parametrize("dim", [4, 12, 40])
def test_batched_years_are_the_per_year_impacts(dim):
    """_reserve, _bf and _mse of an array of years, every year or a subset,
    one (years, 3I-2) batch of gradients mapped to the cells by _to_cells,
    equal each year's gradient and public impact triangle bit for bit."""
    cum = cumulate(random_triangle(np.random.default_rng([11, dim]), dim))
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    priors = default_priors(cum, factors)
    fit = _fit(cum, factors, sigmas)
    for build, one in (
        (_reserve, lambda i: impact_reserve_ay(cum, factors, i)),
        (lambda fit, year: _bf(fit, year, priors.values), lambda i: impact_bf_ay(cum, factors, priors, i)),
        (_mse, lambda i: impact_mse_ay(cum, factors, sigmas, i)),
    ):
        for years in (np.arange(1, dim + 1), np.array([2, dim])):
            batch = build(fit, years)
            assert batch.shape == (years.size, 3 * dim - 2)
            cells = _to_cells(batch)
            for row, i in enumerate(years.tolist()):
                assert np.array_equal(batch[row], build(fit, i))
                assert np.array_equal(cells[row], _observed(one(i).values))


@pytest.mark.parametrize("dim", [4, 12, 40])
def test_each_reserve_gradient_steps_over_a_stacked_fit(dim):
    """_reserve and _bf, per year and total, take the stacked fit of a
    complex step: the step of each gradient is (3I-2, 3I-2), the Hessian
    over the fitted sums, symmetric to I eps of its largest entry, and
    every real part of the stepped gradient is the unstepped one to I eps
    of its largest entry."""
    cum = cumulate(random_triangle(np.random.default_rng([12, dim]), dim))
    factors = estimate_development_factors(cum)
    fit = _fit(cum, factors)
    mu = default_priors(cum, factors).values
    eps = np.finfo(float).eps
    for name, g in (("reserve", _reserve), ("bf", lambda f, year: _bf(f, year, mu))):
        for year in (None, 1, dim // 2, dim):
            stepped = []

            def gradient(stack):
                stepped.append(g(stack, year))
                return stepped[-1]

            hessian = complex_step(fit, gradient)
            assert hessian.shape == (3 * dim - 2, 3 * dim - 2), (name, year)
            assert np.all(np.abs(hessian - hessian.T) <= dim * eps * np.max(np.abs(hessian))), (name, year)
            want = g(fit, year)
            assert np.all(np.abs(stepped[0].real - want) <= dim * eps * np.max(np.abs(want))), (name, year)


class TestMarginalContributions:
    def test_euler_allocation(self, belgian, state):
        cum, factors, _ = state
        from runoff.chainladder import reserves

        by_year, total = reserves(cum, factors)
        alloc = marginal_contributions(
            impact_reserve_total(cum, factors), belgian, total
        )
        assert alloc.statistic == "reserve-total-contribution"
        assert math.isclose(float(np.nansum(alloc.values)), total, rel_tol=1e-12)

    def test_wrong_expected_total_raises(self, belgian, state):
        cum, factors, _ = state
        impacts = impact_reserve_total(cum, factors)
        with pytest.raises(ValueError, match="Euler identity broken"):
            marginal_contributions(impacts, belgian, -12345.0)

    def test_expected_total_tolerance_is_1e_9(self, belgian, state):
        cum, factors, _ = state
        _, total = reserves(cum, factors)
        impacts = impact_reserve_total(cum, factors)
        scale = float(np.nansum(np.abs(impacts.values * belgian.values)))
        marginal_contributions(impacts, belgian, total + 0.5e-9 * scale)
        with pytest.raises(ValueError, match="Euler identity broken"):
            marginal_contributions(impacts, belgian, total + 2e-9 * scale)

    def test_refuses_euler_check_for_mse(self, belgian, state):
        cum, factors, sigmas = state
        impacts = impact_mse_total(cum, factors, sigmas)
        with pytest.raises(ValueError, match="not homogeneous of order 1"):
            marginal_contributions(impacts, belgian, 1.0)

    def test_products_without_check(self, belgian, state):
        cum, factors, sigmas = state
        impacts = impact_mse_total(cum, factors, sigmas)
        alloc = marginal_contributions(impacts, belgian)
        assert alloc.cell(1, 1) == impacts.cell(1, 1) * belgian.cell(1, 1)

    def test_dimension_mismatch(self, state):
        cum, factors, _ = state
        impacts = impact_reserve_total(cum, factors)
        small = ImpactTriangle("reserve-total", None, 2, np.ones((2, 2)))
        from runoff.triangle import IncrementalTriangle

        tri = IncrementalTriangle.from_rows([[1.0, 1.0], [1.0]])
        with pytest.raises(ValueError, match="dimensions differ"):
            marginal_contributions(impacts, tri)
        assert small.dimension == 2


def reserve_allocations(inc):
    """(impact triangle, reserve) of inc's total reserve, then of each year's."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    by_year, total = reserves(cum, factors)
    yield impact_reserve_total(cum, factors), total
    for i in range(1, inc.dimension + 1):
        yield impact_reserve_ay(cum, factors, i), by_year[i - 1]


@pytest.mark.parametrize("dim", [None, 12, 40, 100], ids=lambda d: "bundled" if d is None else f"I={d}")
def test_every_reserve_allocation_passes_the_euler_check(dim, belgian):
    """A reserve that nearly cancels, R_i = ult_i - latest_i with F_i near 1,
    carries rounding of a few eps latest_i, far above 1e-9 of R_i: the
    check allows for it. The random triangles are bench/layers.py's
    random_rows."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([20261018, dim]), dim)
    for impacts, reserve in reserve_allocations(inc):
        alloc = marginal_contributions(impacts, inc, reserve)
        assert alloc.target == impacts.target


def test_an_allocation_off_by_1e_7_of_the_reserve_is_refused(belgian):
    checked = 0
    for impacts, reserve in reserve_allocations(belgian):
        if reserve != 0.0:
            for moved in (reserve * (1 + 1e-7), reserve * (1 - 1e-7)):
                with pytest.raises(ValueError, match="Euler identity broken"):
                    marginal_contributions(impacts, belgian, moved)
            checked += 1
    assert checked == belgian.dimension  # the total and every year but the first


class TestBfImpacts:
    def test_bottom_left_cell_of_total_is_zero(self, state):
        cum, factors, _ = state
        priors = default_priors(cum, factors)
        arr = impact_bf_total(cum, factors, priors)
        assert arr.cell(10, 1) == 0.0


def loop_impacts(cum, factors, sigmas, priors):
    """Per-cell loop reference for the total impact triangles, written
    straight from the formulas over the scalar d_ln_f: O(I^4) and more."""
    dim = cum.dimension
    fprod = [factors.product(dim - i + 1, dim - 1) for i in range(1, dim + 1)]
    ult = project_ultimates(cum, factors)
    latest = [cum.cell(i, dim - i + 1) for i in range(1, dim + 1)]
    sig = sigmas.values
    den = [float(np.sum(cum.values[: dim - s, s - 1])) for s in range(1, dim)]
    w = [
        sum(sig[s - 1] / factors.factor(s) ** 2 / den[s - 1] for s in range(dim - i + 1, dim))
        for i in range(1, dim + 1)
    ]

    def dlnf_sum(i, k, j):  # sum over s = I-i+1..I-1 of d ln f_s / dX_kj
        return sum(d_ln_f(cum, s, k, j) for s in range(dim - i + 1, dim))

    def d_ult(q, k, j):  # dChat_q / dX_kj
        return ult[q - 1] * dlnf_sum(q, k, j) + (fprod[q - 1] if k == q else 0.0)

    out = {name: np.full((dim, dim), np.nan) for name in ("reserve", "bf", "mse")}
    for k in range(1, dim + 1):
        for j in range(1, dim - k + 2):
            res = bf = mse = 0.0
            for i in range(2, dim + 1):
                res += d_ult(i, k, j) - (1.0 if k == i else 0.0)
                bf += priors.values[i - 1] / fprod[i - 1] * dlnf_sum(i, k, j)
                if k == i:
                    proc = sum(
                        factors.product(dim - i + 1, s - 1) * sig[s - 1]
                        * factors.product(s + 1, dim - 1) ** 2
                        for s in range(dim - i + 1, dim)
                    )
                    mse += proc + 2.0 * latest[i - 1] * fprod[i - 1] ** 2 * w[i - 1]
                elif k < i:
                    shrink = -2.0 * latest[i - 1] * fprod[i - 1] * math.sqrt(w[i - 1])
                    mse += shrink * ult[i - 1] * dlnf_sum(i, k, j)
                dv = sum(
                    -2.0 * sig[r - 1]
                    * ((k <= dim - r and j <= r) + 2.0 * d_ln_f(cum, r, k, j) * den[r - 1])
                    / (factors.factor(r) ** 2 * den[r - 1] ** 2)
                    for r in range(dim - i + 1, dim)
                )
                later = float(np.sum(ult[i:]))
                du = ult[i - 1] * sum(d_ult(q, k, j) for q in range(i + 1, dim + 1))
                du += later * d_ult(i, k, j)
                mse += ult[i - 1] * later * dv + 2.0 * w[i - 1] * du
            out["reserve"][k - 1, j - 1] = res
            out["bf"][k - 1, j - 1] = bf
            out["mse"][k - 1, j - 1] = mse
    return out


# Reassociated float64 sums: a few hundred ulps of the largest |value|.
LOOP_TOL = 1e-13


@pytest.mark.parametrize("dim", [None, 4, 7, 12])
def test_totals_match_the_loop_reference(belgian, dim):
    inc = belgian if dim is None else random_triangle(np.random.default_rng(dim), dim)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    priors = default_priors(cum, factors)
    ref = loop_impacts(cum, factors, sigmas, priors)
    got = {
        "reserve": impact_reserve_total(cum, factors).values,
        "bf": impact_bf_total(cum, factors, priors).values,
        "mse": impact_mse_total(cum, factors, sigmas).values,
    }
    for name, want in ref.items():
        assert np.array_equal(np.isnan(got[name]), np.isnan(want))
        scale = np.nanmax(np.abs(want))
        assert np.nanmax(np.abs(got[name] - want)) <= LOOP_TOL * scale, name


@pytest.fixture(scope="module", params=[30, 60], ids=lambda d: f"I={d}")
def large(request):
    dim = request.param
    inc = random_triangle(np.random.default_rng(dim), dim)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    priors = default_priors(cum, factors)
    return inc, cum, factors, sigmas, priors


class TestLargeTriangles:
    def test_reserve_total_is_sum_of_years(self, large):
        _, cum, factors, _, _ = large
        total = impact_reserve_total(cum, factors).values
        years = sum(impact_reserve_ay(cum, factors, i).values for i in range(1, len(total) + 1))
        scale = np.nanmax(np.abs(total))
        np.testing.assert_allclose(total, years, rtol=1e-12, atol=1e-12 * scale)

    def test_bf_total_is_sum_of_years(self, large):
        _, cum, factors, _, priors = large
        total = impact_bf_total(cum, factors, priors).values
        years = sum(impact_bf_ay(cum, factors, priors, i).values for i in range(1, len(total) + 1))
        scale = np.nanmax(np.abs(total))
        np.testing.assert_allclose(total, years, rtol=1e-12, atol=1e-12 * scale)

    def test_euler_allocation_of_the_total(self, large):
        inc, cum, factors, _, _ = large
        _, total = reserves(cum, factors)
        alloc = marginal_contributions(impact_reserve_total(cum, factors), inc, total)
        assert math.isclose(float(np.nansum(alloc.values)), total, rel_tol=1e-9)

    def test_exact_zeros(self, large):
        _, cum, factors, sigmas, priors = large
        dim = cum.dimension
        for i in range(1, dim + 1):
            for arr, first_zero_row in (
                (impact_reserve_ay(cum, factors, i), i + 1),
                (impact_mse_ay(cum, factors, sigmas, i), i + 1),
                (impact_bf_ay(cum, factors, priors, i), i),
            ):
                below = arr.values[first_zero_row - 1 :]
                assert np.all(below[~np.isnan(below)] == 0.0), (arr.statistic, i)
        assert impact_bf_total(cum, factors, priors).cell(dim, 1) == 0.0


@pytest.mark.parametrize("check", properties.ALL_CHECKS, ids=lambda c: c.__name__)
def test_properties_on_bundled(belgian, check):
    check(belgian)


@pytest.mark.parametrize("check", properties.ALL_CHECKS, ids=lambda c: c.__name__)
def test_properties_on_random_triangles(small_corpus, check):
    for tri in small_corpus:
        check(tri)

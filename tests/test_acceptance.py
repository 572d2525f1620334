"""Acceptance suite: one test per shipped guarantee, run with -v for a
one-line verdict each. Golden numbers live in golden.py; anything not
covered by a published value is checked against the complex-step
oracle or a structural property."""

import math

import golden
from properties import ALL_CHECKS
from runoff.bornhuetter import default_priors
from runoff.chainladder import (
    estimate_development_factors,
    estimate_sigmas,
    mse_accident_year,
    mse_total,
    reserves,
)
from runoff.impact import (
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_reserve_ay,
    impact_reserve_total,
    impact_rmse,
)
from runoff.oracle import (
    relative_error,
    verify_mse_components,
    verify_reserve_impacts,
)
from runoff.quantile import impact_quantile
from runoff.triangle import cumulate

TABLE_TOL = 5e-5


def fitted(inc):
    cum = cumulate(inc)
    return cum, estimate_development_factors(cum)


def table_mismatches(impacts, table):
    """Cells deviating from the 4-dp reference by more than TABLE_TOL,
    worst first."""
    bad = []
    for k, row in enumerate(table, start=1):
        for j, want in enumerate(row, start=1):
            got = impacts.cell(k, j)
            if abs(got - want) > TABLE_TOL:
                bad.append((abs(got - want), f"({k},{j}) computed {got:.4f} expected {want:.4f}"))
    bad.sort(reverse=True)
    return [msg for _, msg in bad]


def test_criterion_01_point_estimates(belgian):
    cum, factors = fitted(belgian)
    sigmas = estimate_sigmas(cum, factors)
    by_year, total = reserves(cum, factors)
    assert abs(by_year[7] - golden.RESERVE_AY8) <= 1.0
    assert abs(total - golden.RESERVE_TOTAL) <= 1.0
    assert abs(math.sqrt(mse_accident_year(cum, factors, sigmas, 8)) - golden.RMSE_AY8) <= 1.0
    assert abs(math.sqrt(mse_total(cum, factors, sigmas)) - golden.RMSE_TOTAL) <= 1.0


def test_criterion_02_reserve_impact_table(belgian):
    cum, factors = fitted(belgian)
    impacts = impact_reserve_ay(cum, factors, 8)
    bad = table_mismatches(impacts, golden.IMPACT_RESERVE_AY8)
    assert not bad, f"{len(bad)} cells off: " + "; ".join(bad[:6])


def test_criterion_03_rmse_impact_table(belgian):
    cum, factors = fitted(belgian)
    sigmas = estimate_sigmas(cum, factors)
    m = mse_accident_year(cum, factors, sigmas, 8)
    impacts = impact_rmse(m, impact_mse_ay(cum, factors, sigmas, 8))
    bad = table_mismatches(impacts, golden.IMPACT_RMSE_AY8)
    assert not bad, f"{len(bad)} cells off: " + "; ".join(bad[:6])


def test_criterion_04_quantile_impact_table(belgian):
    cum, factors = fitted(belgian)
    sigmas = estimate_sigmas(cum, factors)
    impacts = impact_quantile(cum, factors, sigmas, 0.995)
    bad = table_mismatches(impacts, golden.IMPACT_QUANTILE_995)
    assert not bad, (
        f"{len(bad)} of 55 cells deviate from the oracle-derived reference "
        "table: " + "; ".join(bad[:6])
    )


def test_criterion_05_reserve_total_scalars(belgian):
    cum, factors = fitted(belgian)
    impacts = impact_reserve_total(cum, factors)
    assert abs(impacts.cell(1, 1) - golden.IF_RESERVE_TOTAL_1_1) <= TABLE_TOL
    assert abs(impacts.cell(1, 10) - golden.IF_RESERVE_TOTAL_1_10) <= TABLE_TOL


def test_criterion_06_reserve_oracle_equivalence(belgian, random_corpus):
    for inc in [belgian, *random_corpus]:
        for stat in ("reserve-total", "bf-total"):
            report = verify_reserve_impacts(inc, stat)
            assert report.passed, (
                f"{stat} I={inc.dimension}: max rel {report.max_rel_error:.3e} "
                f"at {report.worst_cell}"
            )
        for stat in ("reserve-ay", "bf-ay"):
            for year in range(1, inc.dimension + 1):
                report = verify_reserve_impacts(inc, stat, year)
                assert report.passed, (
                    f"{stat} year {year} I={inc.dimension}: "
                    f"max rel {report.max_rel_error:.3e} at {report.worst_cell}"
                )


def test_criterion_07_mse_component_protocol(belgian, random_corpus):
    for inc in [belgian, *random_corpus]:
        report = verify_mse_components(inc)
        assert report.passed, (
            f"I={inc.dimension}: max rel {report.max_rel_error:.3e} "
            f"at {report.worst_cell}"
        )
        assert "direct_fd_max_rel" in report.notes


def test_criterion_08_property_suite(belgian, random_corpus):
    for check in ALL_CHECKS:
        check(belgian)
        for inc in random_corpus:
            check(inc)


def test_criterion_09_last_diagonal_independence(belgian):
    dim = belgian.dimension
    cum, factors = fitted(belgian)
    base_total = impact_reserve_total(cum, factors)
    base_years = [impact_reserve_ay(cum, factors, i) for i in range(1, dim + 1)]
    for k in range(1, dim + 1):
        j = dim - k + 1
        bumped = belgian.with_cell(k, j, belgian.cell(k, j) * 1.10)
        bcum = cumulate(bumped)
        bfactors = estimate_development_factors(bcum)
        got = impact_reserve_total(bcum, bfactors).cell(k, j)
        assert relative_error(got, base_total.cell(k, j), 1e-12) <= 1e-12
        for i in range(1, dim + 1):
            got_i = impact_reserve_ay(bcum, bfactors, i).cell(k, j)
            assert relative_error(got_i, base_years[i - 1].cell(k, j), 1e-12) <= 1e-12


def test_criterion_10_bf_comparisons(belgian):
    cum, factors = fitted(belgian)
    dim = cum.dimension
    priors = default_priors(cum, factors)
    for i in range(1, dim + 1):
        bf = impact_bf_ay(cum, factors, priors, i)
        cl = impact_reserve_ay(cum, factors, i)
        for k, j in bf.observed_cells():
            if k >= i:
                assert bf.cell(k, j) == 0.0
            elif cl.cell(k, j) != 0.0:
                assert abs(bf.cell(k, j)) < abs(cl.cell(k, j))
    total = impact_bf_total(cum, factors, priors)
    assert total.cell(dim, 1) == 0.0

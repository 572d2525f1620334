"""The two published Mack examples of tests/published.py as fixed points:
runoff's reserves, sigmas or factors and Mack standard errors, rounded as
the literature prints them, equal the figures there, through the API and
the CLI; every verifier passes on both; and the Mack statistics agree
with the exact reference (tests/exact.py) within test_exact's
MACK_BOUNDS."""

import json
import math

import pytest

from published import EXAMPLES
from runoff import IncrementalTriangle, validate
from runoff.cli import STATISTICS, main
from runoff.chainladder import estimate_development_factors, estimate_sigmas, mse_accident_year, mse_total, reserves
from runoff.oracle import _per_year, verify_mse_components, verify_quantile_impacts, verify_reserve_impacts
from runoff.triangle import cumulate
from test_exact import MACK_BOUNDS, mack_errors


def increments(name) -> IncrementalTriangle:
    """The example's triangle, which validate accepts."""
    inc = IncrementalTriangle.from_rows(EXAMPLES[name].rows())
    assert validate(inc) == []
    return inc


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_mack_figures_are_the_published_ones(name):
    example, cum = EXAMPLES[name], cumulate(increments(name))
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    dim = cum.dimension
    assert round(reserves(cum, factors)[1]) == example.reserve_total
    assert round(math.sqrt(mse_total(cum, factors, sigmas))) == example.se_total
    se = [round(math.sqrt(mse_accident_year(cum, factors, sigmas, i))) for i in range(2, dim + 1)]
    assert tuple(se) == example.se_by_year
    if example.sigma is not None:
        assert tuple(round(math.sqrt(s2), 1) for s2 in sigmas.values) == example.sigma
    if example.factors is not None:
        assert tuple(round(f, 3) for f in factors.values) == example.factors


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_verifier_passes(name):
    inc = increments(name)
    years = range(1, inc.dimension + 1)
    reports = [verify_reserve_impacts(inc, stat) for stat in ("reserve-total", "bf-total")]
    reports += [verify_reserve_impacts(inc, stat, year) for stat in ("reserve-ay", "bf-ay") for year in years]
    reports += [verify_mse_components(inc), *(verify_mse_components(inc, year=year) for year in years)]
    reports.append(verify_quantile_impacts(inc))
    failed = [(r.statistic, r.max_rel_error) for r in reports if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_mack_statistics_match_the_exact_reference(name):
    got = mack_errors(increments(name))
    assert all(got[field] <= bound for field, bound in MACK_BOUNDS.items()), got


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_cli_gives_the_published_figures_and_every_verification_passes(name, capsys, tmp_path):
    """runoff reserves gives the total reserve and total Mack standard
    error to the unit, and every year's standard error; runoff verify
    passes for every --stat, the per-year ones at every year from 2."""
    example, path = EXAMPLES[name], tmp_path / f"{name}.csv"
    path.write_text(example.text)
    assert main(["reserves", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert round(doc["summary"]["reserve_total"]) == example.reserve_total
    assert round(doc["summary"]["rmse_total"]) == example.se_total
    assert tuple(round(year["rmse"]) for year in doc["years"][1:]) == example.se_by_year
    dim = doc["I"]
    for stat in STATISTICS:
        for year in [["--year", str(i)] for i in range(2, dim + 1)] if _per_year(stat) else [[]]:
            code, out = main(["verify", str(path), "--stat", stat, *year]), capsys.readouterr().out
            assert code == 0 and out.endswith("result: PASS\n"), (stat, year, out)

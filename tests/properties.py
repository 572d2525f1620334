"""Structural properties of the impact triangles, shared between the unit
tests and the acceptance suite. Each check raises AssertionError with the
offending triangle location on failure.

Region A below means {k <= i-1, j <= I-i+1}: the cells whose perturbation
can only lower the projected reserve of accident year i.
"""

import math

import numpy as np

from runoff.bornhuetter import default_priors
from runoff.chainladder import (
    estimate_development_factors,
    estimate_sigmas,
    project_ultimates,
    reserves,
)
from runoff.impact import (
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
    marginal_contributions,
)
from runoff.quantile import impact_quantile
from runoff.oracle import relative_error, verify_reserve_impacts
from runoff.triangle import IncrementalTriangle, column_partial_sum, cumulate


def _state(inc):
    cum = cumulate(inc)
    return cum, estimate_development_factors(cum)


def check_p1_sign_region(inc):
    """Impacts in region A are non-positive."""
    cum, factors = _state(inc)
    dim = inc.dimension
    for i in range(2, dim + 1):
        arr = impact_reserve_ay(cum, factors, i)
        for k in range(1, i):
            for j in range(1, min(dim - i + 1, dim - k + 1) + 1):
                v = arr.cell(k, j)
                assert v <= 1e-12, f"positive impact {v} at i={i} cell ({k},{j})"


def check_p2_row_monotone(inc):
    """For fixed j the impact is non-decreasing in k up to k = i."""
    cum, factors = _state(inc)
    dim = inc.dimension
    for i in range(2, dim + 1):
        arr = impact_reserve_ay(cum, factors, i)
        scale = float(np.nanmax(np.abs(arr.values))) or 1.0
        for j in range(1, dim + 1):
            ks = range(1, min(i, dim - j + 1) + 1)
            vals = [arr.cell(k, j) for k in ks]
            for lo, hi in zip(vals, vals[1:]):
                assert hi - lo >= -1e-12 * scale, (
                    f"row monotonicity broken at i={i} j={j}: {lo} -> {hi}"
                )


def check_p3_column_steps(inc):
    """Consecutive-column differences equal the closed-form column-sum
    reciprocal gap, and are non-negative from j = I-i+1 on."""
    cum, factors = _state(inc)
    dim = inc.dimension
    ult = project_ultimates(cum, factors)
    for i in range(2, dim + 1):
        arr = impact_reserve_ay(cum, factors, i)
        scale = float(np.nanmax(np.abs(arr.values))) or 1.0
        for k in range(1, i):
            for j in range(1, dim - k + 1):
                delta = arr.cell(k, j + 1) - arr.cell(k, j)
                expected = 0.0
                if k <= dim - j <= i - 1:
                    expected += ult[i - 1] / column_partial_sum(cum, j, dim - j)
                if k <= dim - j + 1 <= i - 1:
                    expected -= ult[i - 1] / column_partial_sum(cum, j, dim - j + 1)
                assert math.isclose(delta, expected, rel_tol=1e-9, abs_tol=1e-9 * scale), (
                    f"column step mismatch at i={i} ({k},{j}): {delta} vs {expected}"
                )
                if j >= dim - i + 1:
                    assert delta >= -1e-12 * scale, (
                        f"negative column step at i={i} ({k},{j}): {delta}"
                    )


def check_p4_last_diagonal(inc, deltas=(0.10, 1.5), tol=1e-12):
    """Impacts on the last diagonal do not move when that cell's own value
    is perturbed upward."""
    cum, factors = _state(inc)
    dim = inc.dimension
    base = {i: impact_reserve_ay(cum, factors, i) for i in range(1, dim + 1)}
    base_total = impact_reserve_total(cum, factors)
    for k in range(1, dim + 1):
        j = dim - k + 1
        x = inc.cell(k, j)
        for d in deltas:
            pert = inc.with_cell(k, j, x * (1.0 + d))
            pcum = cumulate(pert)
            pfactors = estimate_development_factors(pcum)
            for i in range(1, dim + 1):
                a = base[i].cell(k, j)
                b = impact_reserve_ay(pcum, pfactors, i).cell(k, j)
                assert relative_error(a, b, 1e-12) <= tol, (
                    f"diagonal cell ({k},{j}) moved for i={i}: {a} -> {b}"
                )
            a = base_total.cell(k, j)
            b = impact_reserve_total(pcum, pfactors).cell(k, j)
            assert relative_error(a, b, 1e-12) <= tol, (
                f"diagonal cell ({k},{j}) moved for the total: {a} -> {b}"
            )


def check_p5_euler(inc, tol=1e-10):
    """sum(IF * X) reproduces the per-year and total reserves."""
    cum, factors = _state(inc)
    dim = inc.dimension
    by_year, total = reserves(cum, factors)
    for i in range(1, dim + 1):
        impacts = impact_reserve_ay(cum, factors, i)
        alloc = marginal_contributions(impacts, inc, by_year[i - 1])
        got = float(np.nansum(alloc.values))
        assert abs(got - by_year[i - 1]) <= tol * max(1.0, abs(by_year[i - 1])), (
            f"Euler allocation off for year {i}: {got} vs {by_year[i - 1]}"
        )
    alloc = marginal_contributions(
        impact_reserve_total(cum, factors), inc, total
    )
    got = float(np.nansum(alloc.values))
    assert abs(got - total) <= tol * max(1.0, abs(total))


def check_p6_diagonal_flat(inc):
    """Row k = i of IF(R_i) is flat and equals the factor product minus 1."""
    cum, factors = _state(inc)
    dim = inc.dimension
    for i in range(2, dim + 1):
        arr = impact_reserve_ay(cum, factors, i)
        expected = factors.product(dim - i + 1, dim - 1) - 1.0
        row = [arr.cell(i, j) for j in range(1, dim - i + 2)]
        assert all(v == row[0] for v in row), f"row k=i not flat for i={i}: {row}"
        assert math.isclose(row[0], expected, rel_tol=1e-12), (
            f"diagonal value off for i={i}: {row[0]} vs {expected}"
        )


def check_p7_mse_sign_flip(inc):
    """At k = i-1 the MSE impact is positive through j = I-i+1 and negative
    at j = I-i+2, wherever the variance scales keep it nonzero."""
    cum, factors = _state(inc)
    sigmas = estimate_sigmas(cum, factors)
    dim = inc.dimension
    for i in range(2, dim + 1):
        arr = impact_mse_ay(cum, factors, sigmas, i)
        k = i - 1
        flip_j = dim - i + 2
        for j in range(1, dim - i + 2):
            v = arr.cell(k, j)
            if v != 0.0:
                assert v > 0.0, f"expected positive MSE impact at i={i} ({k},{j}): {v}"
        v = arr.cell(k, flip_j)
        if v != 0.0:
            assert v < 0.0, f"expected negative MSE impact at i={i} ({k},{flip_j}): {v}"


def check_p8_bf_magnitude(inc):
    """Frozen chain-ladder priors damp every off-diagonal impact."""
    cum, factors = _state(inc)
    priors = default_priors(cum, factors)
    dim = inc.dimension
    for i in range(2, dim + 1):
        if factors.product(dim - i + 1, dim - 1) <= 1.0:
            continue
        cl = impact_reserve_ay(cum, factors, i)
        bf = impact_bf_ay(cum, factors, priors, i)
        for k in range(1, i):
            for j in range(1, dim - k + 2):
                if cl.cell(k, j) != 0.0:
                    assert abs(bf.cell(k, j)) < abs(cl.cell(k, j)), (
                        f"BF impact not damped at i={i} ({k},{j})"
                    )


def check_p9_oracle(inc, tol=1e-6):
    """Analytic reserve impacts equal the oracle's complex-step derivatives."""
    dim = inc.dimension
    for stat, years in (
        ("reserve-ay", range(1, dim + 1)),
        ("reserve-total", (None,)),
        ("bf-ay", range(1, dim + 1)),
        ("bf-total", (None,)),
    ):
        for year in years:
            report = verify_reserve_impacts(inc, stat, year, tolerance=tol)
            assert report.passed, (
                f"{stat} year={year}: max rel {report.max_rel_error:.3e} "
                f"at {report.worst_cell}"
            )


def check_p10_scaling(inc, t=3.7, tol=1e-12):
    """Reserve impacts are invariant under a uniform positive rescaling."""
    cum, factors = _state(inc)
    dim = inc.dimension
    scaled = IncrementalTriangle(dim, inc.values * t)
    scum = cumulate(scaled)
    sfactors = estimate_development_factors(scum)
    for i in range(1, dim + 1):
        a = impact_reserve_ay(cum, factors, i).values
        b = impact_reserve_ay(scum, sfactors, i).values
        worst = np.nanmax(np.abs(a - b) / np.maximum(np.abs(a), 1.0))
        assert worst <= tol, f"scaling moved IF(R_{i}) by {worst}"
    a = impact_reserve_total(cum, factors).values
    b = impact_reserve_total(scum, sfactors).values
    worst = np.nanmax(np.abs(a - b) / np.maximum(np.abs(a), 1.0))
    assert worst <= tol, f"scaling moved the total impact by {worst}"


def _every_impact(inc):
    """Every impact triangle of every kind: each year's reserve, BF and MSE
    impacts, their totals, and the 99.5% quantile impact."""
    cum, factors = _state(inc)
    sigmas = estimate_sigmas(cum, factors)
    priors = default_priors(cum, factors)
    for i in range(1, inc.dimension + 1):
        yield impact_reserve_ay(cum, factors, i)
        yield impact_bf_ay(cum, factors, priors, i)
        yield impact_mse_ay(cum, factors, sigmas, i)
    yield impact_reserve_total(cum, factors)
    yield impact_bf_total(cum, factors, priors)
    yield impact_mse_total(cum, factors, sigmas)
    yield impact_quantile(cum, factors, sigmas, 0.995)


def check_p12_row_minus_column(inc):
    """impact(k, j+1) - impact(k, j) is the same for every row k that holds
    both cells, within I eps S (S the triangle's largest |value|): each
    cell's impact is a row effect less a column effect, since a cell moves
    a statistic only through the column sums it enters, which its column
    picks, and the latest diagonal and column sums its row reaches."""
    dim = inc.dimension
    for arr in _every_impact(inc):
        steps = np.diff(arr.values, axis=1)  # NaN where (k, j+1) is not observed
        spread = np.nanmax(steps, axis=0) - np.nanmin(steps, axis=0)
        bound = dim * np.finfo(float).eps * np.nanmax(np.abs(arr.values))
        worst = int(np.argmax(spread))
        assert spread[worst] <= bound, (
            f"{arr.statistic} (year {arr.target}): the step from column {worst + 1} "
            f"differs across rows by {spread[worst]}, above {bound}"
        )


ALL_CHECKS = (
    check_p1_sign_region,
    check_p2_row_monotone,
    check_p3_column_steps,
    check_p4_last_diagonal,
    check_p5_euler,
    check_p6_diagonal_flat,
    check_p7_mse_sign_flip,
    check_p8_bf_magnitude,
    check_p9_oracle,
    check_p10_scaling,
    check_p12_row_minus_column,
)

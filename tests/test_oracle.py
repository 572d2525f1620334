import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from conftest import build_corpus, proportional_triangle, random_triangle
from runoff.bornhuetter import PriorUltimates, bf_reserve_values, bf_reserves, default_priors
from runoff.chainladder import (
    DevelopmentFactors,
    Fit,
    SigmaEstimates,
    _ahead,
    estimate_development_factors,
    estimate_sigmas,
    mack_summary,
    mse_accident_year,
    mse_total,
    reserves,
)
from runoff import cli, impact, oracle, quantile
from runoff.impact import (
    _impact,
    _to_cells,
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
)
from runoff.quantile import fit_lognormal, impact_quantile, lognormal_quantile
from runoff.oracle import (
    _STATISTICS,
    COLUMNS,
    STEP,
    TOLERANCE,
    FdScheme,
    VerificationReport,
    _baseline,
    _floor,
    _frozen_mse,
    _stepped_mse,
    complex_step,
    fd_derivative,
    _verify,
    relative_error,
    verify_mse_components,
    verify_quantile_impacts,
    verify_reserve_impacts,
)
from runoff.triangle import (
    IncrementalTriangle,
    _cells,
    cumulate,
    cumulate_values,
    observed_mask,
    validate,
)
from test_acceptance import TABLE_TOL
from test_tooling import LAYERS, load


class TestRelativeError:
    def test_zero_vs_zero(self):
        assert relative_error(0.0, 0.0, 1e-12) == 0.0

    def test_tiny_values_use_floor(self):
        assert relative_error(0.0, 1e-14, 1e-12) == pytest.approx(0.01)

    def test_symmetric(self):
        assert relative_error(2.0, 1.0, 1e-12) == relative_error(1.0, 2.0, 1e-12) == 0.5


class TestFdDerivative:
    def test_identity_statistic(self, belgian):
        got = fd_derivative(lambda t: t.cell(3, 2), belgian, 3, 2)
        assert abs(got - 1.0) <= 1e-10

    def test_constant_statistic(self, belgian):
        got = fd_derivative(lambda t: 42.0, belgian, 3, 2)
        assert abs(got) <= 1e-10

    def test_total_reserve_cornerpoint(self, belgian):
        def total(t):
            c = cumulate(t)
            from runoff.chainladder import reserves

            return reserves(c, estimate_development_factors(c))[1]

        assert abs(fd_derivative(total, belgian, 1, 1) - (-1.3875)) <= 5e-4

    def test_forward_fallback_near_zero(self):
        tri = IncrementalTriangle.from_rows(
            [[0.005, 1.0, 1.0], [1.0, 1.0], [1.0]]
        )
        # the default floor step would push 0.005 negative, so a forward
        # difference of a linear statistic must still be exact
        got = fd_derivative(lambda t: 3.0 * t.cell(1, 1), tri, 1, 1)
        assert math.isclose(got, 3.0, rel_tol=1e-9)

    def test_step_halving_converges_quadratically(self, belgian):
        def total(t):
            c = cumulate(t)
            from runoff.chainladder import reserves

            return reserves(c, estimate_development_factors(c))[1]

        cum = cumulate(belgian)
        exact = impact_reserve_total(cum, estimate_development_factors(cum)).cell(2, 3)
        errors = []
        for rel in (4e-3, 2e-3, 1e-3):
            got = fd_derivative(total, belgian, 2, 3, FdScheme(relative_step=rel))
            errors.append(abs(got - exact))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("field, scheme", [
        ("absolute_floor", dict(relative_step=0.0, absolute_floor=0.0)),  # h = 0 divides by zero
        ("relative_step", dict(relative_step=math.nan)),  # h = NaN
        ("absolute_floor", dict(absolute_floor=math.inf)),  # h = inf
        ("absolute_floor", dict(relative_step=0.0, absolute_floor=-1e-2)),  # h < 0 steps backwards
        ("absolute_floor", dict(absolute_floor=math.nan)),
        ("relative_step", dict(relative_step=-1e-6)),
        ("relative_step", dict(relative_step=math.inf)),
        ("relative_step", dict(relative_step="1e-6")),
    ])
    def test_scheme_refuses_a_step_that_breaks_the_difference(self, field, scheme):
        with pytest.raises(ValueError, match=field):
            FdScheme(**scheme)

    def test_zero_relative_step_steps_by_the_floor(self, belgian):
        got = fd_derivative(lambda t: 3.0 * t.cell(3, 2), belgian, 3, 2, FdScheme(0.0, 1.0))
        assert math.isclose(got, 3.0, rel_tol=1e-9)

    def test_does_not_mutate_input(self, belgian):
        before = np.array(belgian.values)
        fd_derivative(lambda t: t.cell(1, 1) ** 2, belgian, 1, 1)
        assert np.array_equal(
            np.nan_to_num(before), np.nan_to_num(belgian.values)
        )


class TestVerificationReport:
    # for I=2 the sums are A_1, B_1, L_1, L_2, and g maps to the cells (1, 1),
    # (1, 2), (2, 1) as g_A1 + g_B1 + g_L1, g_A1 + g_L1 and g_L2

    def test_empty_report(self):
        report = VerificationReport("x", 1e-5, np.zeros((0, 4)), np.zeros((0, 4)))
        assert report.k.size == 0 and report.cells == []
        assert report.max_rel_error == 0.0
        assert report.worst_cell is None
        assert report.passed

    def test_to_dict_shape(self):
        report = VerificationReport("x", 1e-5, np.ones((1, 4)), np.ones((1, 4)))
        doc = report.to_dict()
        assert doc["statistic"] == "x"
        assert doc["passed"] is True
        assert doc["cells"][0]["rel_error"] == 0.0

    def test_columns_and_cells_agree(self):
        # two triangles of I=2, with the cells [1, 2, 4] and [1, 1, 1]
        # analytic against [1, 3, 2] and [2, 1, 1] numeric
        report = VerificationReport(
            "x", 1e-5, [[0.0, -1.0, 2.0, 4.0], [0.0, 0.0, 1.0, 1.0]], [[0.0, -2.0, 3.0, 2.0], [0.0, 1.0, 1.0, 1.0]]
        )
        assert report.k.tolist() == [1, 1, 2, 1, 1, 2]
        assert report.j.tolist() == [1, 2, 1, 1, 2, 1]
        assert report.analytic.tolist() == [1.0, 2.0, 4.0, 1.0, 1.0, 1.0]
        assert report.numeric.tolist() == [1.0, 3.0, 2.0, 2.0, 1.0, 1.0]
        assert report.cells[1] == {
            "k": 1, "j": 2, "analytic": 2.0, "numeric": 3.0, "rel_error": 1 / 3
        }
        assert report.cells is report.cells
        # the first of two maximal cells, as Python ints
        assert report.max_rel_error == 0.5
        assert report.worst_cell == (2, 1)
        assert all(type(v) is int for v in report.worst_cell)
        assert not report.passed

    def test_fields_and_cells_stay_frozen(self):
        report = VerificationReport("x", 1e-5, np.ones((1, 4)), np.ones((1, 4)))
        for name in ("statistic", "tolerance", "max_rel_error", "worst_cell", "size", "analytic", "cells"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, None)
        assert report.cells is report.cells and vars(report)["cells"] is report.cells

    def test_a_stack_of_another_layout_is_refused(self):
        # a last axis of 3I-2 sums: 3, 6 or none at all is refused
        for shape in ((2, 3), (2, 6), (5,), ()):
            with pytest.raises(ValueError, match="not gradients of one shape over the 3I-2 fitted sums"):
                VerificationReport("x", 1e-5, np.ones(shape), np.ones(shape))

    def test_analytic_and_numeric_of_different_shapes_are_refused(self):
        """Each cell's k, j, analytic and numeric come from one entry of
        both gradients, so a numeric that would broadcast is refused."""
        for shape in ((2, 4), (4, 1), (7,)):
            with pytest.raises(ValueError, match=re.escape(f"analytic (4,) and numeric {shape} are not")):
                VerificationReport("x", 1e-5, np.ones(4), np.ones(shape))

    @pytest.mark.parametrize("tolerance", [math.nan, -1, -1e-300, "x", None])
    def test_a_tolerance_that_is_not_a_number_at_least_0_is_refused(self, tolerance):
        """NaN or a negative number would fail every report, and text would
        raise only when passed is read: each is refused at construction."""
        with pytest.raises(ValueError, match=re.escape(f"tolerance must be a number >= 0, got {tolerance!r}")):
            VerificationReport("x", tolerance, np.ones(4), np.ones(4))
        assert VerificationReport("x", 0, np.ones(4), np.ones(4)).passed

    def test_a_nan_cell_fails_wherever_it_sits(self):
        # a NaN on L_k of I=3 reaches row k's cells alone: (k, 1) is the first
        for k, at in ((1, 0), (2, 3), (3, 5)):
            analytic = np.ones((1, 7))
            analytic[0, 4 + k - 1] = np.nan
            report = VerificationReport("x", 1e-5, analytic, np.ones((1, 7)))
            assert math.isnan(report.rel_error[at]) and not np.any(np.isnan(report.rel_error[:at]))
            assert math.isnan(report.max_rel_error)
            assert report.worst_cell == (k, 1)
            assert not report.passed


def column_verdict(report) -> tuple:
    """max_rel_error and worst_cell read off the report's columns in one
    pass: the largest rel_error (NaN if any is), and the first cell of it."""
    if not report.rel_error.size:
        return 0.0, None
    m = int(np.argmax(report.rel_error))
    return float(np.max(report.rel_error)), (int(report.k[m]), int(report.j[m]))


def verdict(report) -> str:
    """The verdict as text, so NaN equals NaN."""
    return repr((report.max_rel_error, report.worst_cell))


class TestStreamedVerdict:
    """_verdict scores whole triangles, at most _VERDICT_CELLS cells at a
    time; with the budget cut to one or two triangles, a stack's verdict is
    the one it reads in one pass and the one its columns give."""

    # I=2 gradients (A_1, B_1, L_1, L_2), one (analytic, numeric) pair per
    # triangle: rel_error 0.5 at (2, 1) alone, 0.5 at (1, 1) and (1, 2),
    # about 1e-3 everywhere, and NaN at (1, 1) and (1, 2)
    LATE = ([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0])
    EARLY = ([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 1.0])
    SMALL = ([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.001, 1.001])
    NAN = ([0.0, 0.0, np.nan, 1.0], [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("stack, per_chunk, want", [
        (("SMALL", "LATE", "EARLY"), 1, (0.5, (2, 1))),  # a tie across chunks keeps the first
        (("SMALL", "EARLY", "LATE"), 1, (0.5, (1, 1))),
        (("LATE", "SMALL", "NAN", "EARLY"), 1, (math.nan, (1, 1))),  # NaN in a later chunk
        (("NAN", "LATE", "NAN"), 1, (math.nan, (1, 1))),
        (("SMALL",) * 4 + ("EARLY",), 2, (0.5, (1, 1))),  # 5 triangles in chunks of 2
        (("SMALL", "SMALL", "LATE", "SMALL", "EARLY"), 2, (0.5, (2, 1))),
        ((), 1, (0.0, None)),
    ])
    def test_chunks_read_as_one_pass(self, monkeypatch, stack, per_chunk, want):
        analytic = np.array([getattr(self, name)[0] for name in stack]).reshape(-1, 4)
        numeric = np.array([getattr(self, name)[1] for name in stack]).reshape(-1, 4)
        whole = VerificationReport("x", 1e-5, analytic, numeric)
        assert oracle._VERDICT_CELLS >= analytic.size  # one pass
        monkeypatch.setattr(oracle, "_VERDICT_CELLS", 3 * per_chunk)
        chunked = VerificationReport("x", 1e-5, analytic, numeric)
        assert verdict(chunked) == verdict(whole) == repr(column_verdict(chunked)) == repr(want)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_stacks_read_as_one_pass(self, monkeypatch, seed):
        """Stacks of 1..9 triangles of I = 2..6, their numeric rounded to
        two digits so cells tie, some with a NaN, in chunks of 1..3."""
        rng = np.random.default_rng([36, seed])
        dim, count = rng.integers(2, 7), rng.integers(1, 10)
        analytic = rng.uniform(-1.0, 1.0, (count, 3 * dim - 2))
        numeric = np.round(analytic * rng.uniform(0.9, 1.1, analytic.shape), 2)
        if seed % 3 == 0:
            analytic[rng.integers(count), rng.integers(3 * dim - 2)] = np.nan
        whole = VerificationReport("x", 1e-5, analytic, numeric)
        monkeypatch.setattr(oracle, "_VERDICT_CELLS", int(rng.integers(1, 4)) * dim * (dim + 1) // 2)
        chunked = VerificationReport("x", 1e-5, analytic, numeric)
        assert verdict(chunked) == verdict(whole) == repr(column_verdict(chunked))

    def test_a_triangle_larger_than_the_budget_is_one_chunk(self, monkeypatch):
        monkeypatch.setattr(oracle, "_VERDICT_CELLS", 1)
        report = VerificationReport("x", 1e-5, [self.SMALL[0], self.LATE[0]], [self.SMALL[1], self.LATE[1]])
        assert verdict(report) == repr(column_verdict(report)) == repr((0.5, (2, 1)))


@pytest.mark.parametrize("dim", [None, 40])
def test_every_verifier_s_verdict_is_its_columns(monkeypatch, belgian, dim):
    """Each verifier's max_rel_error and worst_cell, scored before any
    column is built, are what its columns read once built; with the MSE
    reports' triangles scored 1 and 3 at a time too."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([36, dim]), dim)
    n = inc.dimension * (inc.dimension + 1) // 2
    for name, verify in every_verifier(inc).items():
        for per_chunk in (None, 1, 3) if name.startswith("mse") else (None,):
            if per_chunk:
                monkeypatch.setattr(oracle, "_VERDICT_CELLS", per_chunk * n)
            report = verify(IncrementalTriangle(inc.dimension, inc.values))
            assert not set(COLUMNS) & set(vars(report)), name
            assert report.size == report.k.size, name
            assert verdict(report) == repr(column_verdict(report)), (name, per_chunk)
            monkeypatch.undo()


def test_a_summary_of_the_mse_verifier_holds_no_cell_columns():
    """Read for its verdict alone, verify_mse_components at I=100 (100
    triangles of 5050 cells, 4 MB per column) peaks under 16 MB of traced
    memory: it read 26 MB while every report built its five columns."""
    inc = random_triangle(np.random.default_rng([36, 100]), 100)
    tracemalloc.start()
    try:
        report = verify_mse_components(inc)
        summary = report.passed, report.max_rel_error, report.worst_cell, report.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary[0] and summary[3] == 100 * 5050
    assert peak < 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("tolerance", [math.nan, -1, "x"])
def test_every_verifier_refuses_a_tolerance_no_report_can_hold(tolerance, belgian):
    """The reserve, MSE and quantile verifiers refuse what their reports
    refuse, before they report."""
    for verify in (
        lambda: verify_reserve_impacts(belgian, "reserve-ay", 3, tolerance=tolerance),
        lambda: verify_mse_components(belgian, tolerance),
        lambda: verify_quantile_impacts(belgian, 0.995, tolerance),
    ):
        with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
            verify()


class TestVerifyReserveImpacts:
    def test_bundled_total(self, belgian):
        report = verify_reserve_impacts(belgian, "reserve-total")
        assert report.passed, report.worst_cell

    def test_bundled_year8_with_exact_zeros(self, belgian):
        report = verify_reserve_impacts(belgian, "reserve-ay", year=8)
        assert report.passed
        zero_cells = {(9, 1), (9, 2), (10, 1)}
        for cell in report.cells:
            if (cell["k"], cell["j"]) in zero_cells:
                assert cell["analytic"] == 0.0
                assert cell["numeric"] == 0.0

    def test_bf_variants(self, belgian):
        for stat, year in (("bf-total", None), ("bf-ay", 6)):
            report = verify_reserve_impacts(belgian, stat, year)
            assert report.passed, (stat, report.max_rel_error)

    def test_year_required_for_per_year(self, belgian):
        with pytest.raises(ValueError, match="needs an accident year"):
            verify_reserve_impacts(belgian, "reserve-ay")

    @pytest.mark.parametrize("stat", ["reserve-ay", "bf-ay"])
    @pytest.mark.parametrize("year", [0, -1, 11, 12])
    def test_a_year_out_of_range_is_named(self, belgian, stat, year):
        """A year below 1 or past I is refused by the analytic gradient,
        before the complex step would index past the stack's reserves."""
        with pytest.raises(IndexError, match=f"accident year {year} out of range 1..10"):
            verify_reserve_impacts(belgian, stat, year)

    def test_unknown_statistic_names_the_four(self, belgian, fit_builds):
        want = "'mse-total'; expected one of reserve-total, reserve-ay, bf-total, bf-ay"
        with pytest.raises(ValueError, match=want):
            verify_reserve_impacts(belgian, "mse-total")
        assert not fit_builds  # refused before any work

    def test_arguments_that_do_not_apply_are_refused(self, belgian, fit_builds):
        cum = cumulate(belgian)
        priors = default_priors(cum, estimate_development_factors(cum))
        fit_builds.clear()
        for stat, year, given, want in (
            ("reserve-total", 3, None, "reserve-total takes no accident year, got 3"),
            ("bf-total", 3, priors, "bf-total takes no accident year, got 3"),
            ("reserve-total", None, priors, "reserve-total takes no priors"),
            ("reserve-ay", 3, priors, "reserve-ay takes no priors"),
        ):
            with pytest.raises(ValueError, match=want):
                verify_reserve_impacts(belgian, stat, year, given)
        assert not fit_builds  # refused before any work

    @pytest.mark.parametrize("stat, priors", [("bf-total", False), ("reserve-total", True)])
    def test_the_priors_rule_is_read_from_the_table(self, belgian, monkeypatch, stat, priors):
        """Whether priors apply is the entry's priors field of _STATISTICS,
        not a guess from the statistic's name."""
        cum = cumulate(belgian)
        given = default_priors(cum, estimate_development_factors(cum))
        monkeypatch.setitem(_STATISTICS, stat, _STATISTICS[stat]._replace(priors=priors))
        if priors:
            assert verify_reserve_impacts(belgian, stat, priors=given).passed
        else:
            with pytest.raises(ValueError, match=f"^{stat} takes no priors$"):
                verify_reserve_impacts(belgian, stat, priors=given)

    def test_proportional_triangle(self):
        report = verify_reserve_impacts(proportional_triangle(), "reserve-total")
        assert report.passed

    def test_purity(self, belgian):
        before = np.nan_to_num(np.array(belgian.values))
        verify_reserve_impacts(belgian, "reserve-ay", year=3)
        assert np.array_equal(before, np.nan_to_num(belgian.values))


# I=3 rows that validate accepts and whose impacts are finite (up to 1e302),
# but whose complex step, h about 1e278, overflows the stack's factor products
OVERFLOWING_STEP = [[1e6, 1.0, 1.0], [0.0, 1e308], [5e-324]]


@pytest.mark.parametrize("stat", ["reserve-total", "bf-total"])
def test_a_complex_step_that_overflows_is_refused(stat):
    """Not a NaN verdict: ValueError names the statistic and the step."""
    inc = IncrementalTriangle.from_rows(OVERFLOWING_STEP)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs it
        impacts = {"reserve-total": lambda: impact_reserve_total(cum, factors),
                   "bf-total": lambda: impact_bf_total(cum, factors, default_priors(cum, factors))}[stat]()
        assert not validate(inc) and np.isfinite(impacts.values[observed_mask(3)]).all()
        with pytest.raises(ValueError, match=f"^{stat}: the complex step is not finite"):
            verify_reserve_impacts(inc, stat)


# I=4 rows that validate accepts and whose MSE impacts are finite, but whose
# MSE verifier's complex step overflows
OVERFLOWING_MSE_STEP = [
    [5.879004911697649e251, 2.158080385555088e-152, 1.461337629720628e168, 3.0814950304988734e191],
    [2.194201534023881e194, 1.1036197015079454e87, 3.0103979611513923e22],
    [1.8104839159951462e-87, 1.1418058484820854e24],
    [6.560333988001438e-58],
]


@pytest.mark.parametrize("year, stat", [(None, "mse-total"), (4, "mse-ay")])
def test_an_mse_step_that_overflows_is_refused(year, stat):
    """verify_mse_components refuses the step by the statistic it checks,
    mse-total for every year and the total, mse-ay for one year."""
    inc = IncrementalTriangle.from_rows(OVERFLOWING_MSE_STEP)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs it
        sigmas = estimate_sigmas(cum, factors)
        impacts = impact_mse_total(cum, factors, sigmas) if year is None else impact_mse_ay(cum, factors, sigmas, year)
        assert not validate(inc) and np.isfinite(impacts.values[observed_mask(4)]).all()
        with pytest.raises(ValueError, match=f"^{stat}: the complex step is not finite"):
            verify_mse_components(inc, year=year)


class TestVerifyMseComponents:
    def test_bundled(self, belgian):
        report = verify_mse_components(belgian)
        assert report.passed, (report.max_rel_error, report.worst_cell)

    def test_building_block_notes(self):
        tri = build_corpus(count=1, seed=99)[0]
        report = verify_mse_components(tri)
        assert report.passed
        assert report.notes["d_ln_f_max_rel"] <= 1e-5
        assert report.notes["d_ultimate_max_rel"] <= 1e-5
        assert report.notes["d_colsum_fsq_max_rel"] <= 1e-5

    def test_direct_fd_documented_not_asserted(self, belgian):
        # the raw derivative of the plug-in estimator is a different object;
        # the report records how far it sits from the impact formula
        report = verify_mse_components(belgian)
        assert "direct_fd_max_rel" in report.notes
        assert report.notes["direct_fd_max_rel"] > report.tolerance

    def test_all_sigma_zero_assemblies_vanish(self):
        report = verify_mse_components(proportional_triangle())
        assert report.passed
        assert all(c["analytic"] == 0.0 and c["numeric"] == 0.0 for c in report.cells)

    def test_year_checks_that_triangle_alone(self, belgian):
        full = verify_mse_components(belgian)
        one = verify_mse_components(belgian, year=5)
        n = 55
        assert len(full.cells) == 10 * n
        assert one.cells == full.cells[3 * n : 4 * n]
        assert one.passed

    def test_year_out_of_range(self, belgian):
        with pytest.raises(IndexError, match="out of range"):
            verify_mse_components(belgian, year=11)


def outcome(result) -> tuple:
    """The bytes of each array result holds and the repr of every other field."""
    if isinstance(result, float):
        return (repr(result),)
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(result).values()
                 if not isinstance(v, (int, np.integer)))  # the target is the year as given


@pytest.mark.parametrize("call", [
    lambda inc, cum, f, s, mu, year: impact_reserve_ay(cum, f, year),
    lambda inc, cum, f, s, mu, year: impact_bf_ay(cum, f, mu, year),
    lambda inc, cum, f, s, mu, year: impact_mse_ay(cum, f, s, year),
    lambda inc, cum, f, s, mu, year: mse_accident_year(cum, f, s, year),
    lambda inc, cum, f, s, mu, year: verify_reserve_impacts(inc, "reserve-ay", year),
    lambda inc, cum, f, s, mu, year: verify_reserve_impacts(inc, "bf-ay", year),
    lambda inc, cum, f, s, mu, year: verify_mse_components(inc, year=year),
], ids=["impact_reserve_ay", "impact_bf_ay", "impact_mse_ay", "mse_accident_year",
        "verify_reserve_impacts reserve-ay", "verify_reserve_impacts bf-ay", "verify_mse_components"])
def test_a_year_that_is_not_an_integer_is_refused(belgian, call):
    """An accident year is taken through operator.index, as a list index
    is: a float raises TypeError even when it is whole, where 2.5 gave an
    all-zero impact triangle; a numpy int or a bool is the int."""
    inc = IncrementalTriangle(belgian.dimension, belgian.values)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigmas = estimate_sigmas(cum, factors)
    at = functools.partial(call, inc, cum, factors, sigmas, default_priors(cum, factors))
    for year in (2.5, 3.0):
        with pytest.raises(TypeError):
            at(year)
    assert outcome(at(np.int64(3))) == outcome(at(3))
    assert outcome(at(True)) == outcome(at(1))


def triangles(cells, dim):
    """(..., n) values in the oracle's cell layout as (..., I, I) triangles,
    zero outside the observed region."""
    out = np.zeros(cells.shape[:-1] + (dim, dim))
    out[..., observed_mask(dim)] = cells
    return out


def stepped_mse(fit):
    """The complex step of _stepped_mse from fit, split by part: the three
    building blocks of BLOCKS, "mse" (every year's frozen MSE, then the
    total's) and "plugin" (the same as plug-in MSEs)."""
    dim = fit.dimension
    numeric = complex_step(fit, lambda stack: _stepped_mse(fit, stack))
    parts = np.split(numeric, [dim - 1, 2 * dim - 1, 3 * dim - 2, 4 * dim - 1])
    return dict(zip(oracle.BLOCKS + ("mse", "plugin"), parts))


def loop_assembly(inc, blocks, per_year=False):
    """The MSE impacts by the per-cell (i, k, j, r, n) loop of the chain
    and product rules, kept as the reference of the frozen MSE's complex
    step, on the blocks d ln f and dChat mapped to the cells and the exact
    dC[n, r][k, j] = 1{n = k, j <= r}."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    dim = inc.dimension
    fit = Fit.of(cum.values, factors.values, estimate_sigmas(cum, factors).values)
    ult = fit.ult
    dlnf, dult = (triangles(_to_cells(blocks[name]), dim) for name in ("d_ln_f", "d_ultimate"))
    dc = np.zeros((dim, dim, dim, dim))
    for n in range(dim):
        dc[n, :, n, :] = np.tril(np.ones((dim, dim)))
    yearly = {}
    total = np.zeros((dim, dim))
    for i in range(2, dim + 1):
        latest = fit.latest[i - 1]
        fprod = fit.fprod[i - 1]
        w = fit.w[i - 1]
        proc = fit.process[i - 1]
        m_i = np.zeros((dim, dim))
        shrink = -2.0 * latest * fprod * math.sqrt(w) if w > 0.0 else 0.0
        for k in range(1, i + 1):
            for j in range(1, dim - k + 2):
                if k == i:
                    dlatest = dc[i - 1, dim - i, k - 1, j - 1]
                    m_i[k - 1, j - 1] = (proc + 2.0 * latest * fprod**2 * w) * dlatest
                else:
                    if_res = ult[i - 1] * float(
                        np.sum(dlnf[dim - i : dim - 1, k - 1, j - 1])
                    )
                    m_i[k - 1, j - 1] = shrink * if_res
        yearly[i] = m_i
        u_i = ult[i - 1] * float(np.sum(ult[i:]))
        v_i = 2.0 * w
        cross = np.zeros((dim, dim))
        for k in range(1, dim + 1):
            for j in range(1, dim - k + 2):
                dv = 0.0
                for r in range(dim - i + 1, dim):
                    s_r = fit.den[r - 1]
                    f_r2 = fit.factors[r - 1] ** 2
                    inner = 0.0
                    for n in range(1, dim - r + 1):
                        c_nr = cum.cell(n, r)
                        dln_c = dc[n - 1, r - 1, k - 1, j - 1] / c_nr
                        inner += f_r2 * c_nr * (dln_c + 2.0 * dlnf[r - 1, k - 1, j - 1])
                    dv += -2.0 * fit.sigma2[r - 1] * inner / (s_r * f_r2) ** 2
                later_d = float(np.sum(dult[i:dim, k - 1, j - 1]))
                du = ult[i - 1] * later_d + float(np.sum(ult[i:])) * dult[
                    i - 1, k - 1, j - 1
                ]
                cross[k - 1, j - 1] = u_i * dv + v_i * du
        total += m_i + cross
    return yearly if per_year else total


@pytest.mark.parametrize("dim", [4, 7, 12])
def test_assembly_matches_the_loop_reference(dim):
    inc = random_triangle(np.random.default_rng([4, dim]), dim)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    fit = Fit.of(cum.values, factors.values, estimate_sigmas(cum, factors).values)
    blocks = stepped_mse(fit)
    mse = triangles(_to_cells(blocks["mse"]), dim)
    yearly, total = mse[:-1], mse[-1]
    rows = np.arange(dim)
    observed = rows[:, None] + rows <= dim - 1

    def close(got, want):
        scale = np.max(np.abs(want[observed]))
        assert scale > 0.0
        assert np.max(np.abs(got - want)[observed]) <= 1e-13 * scale

    assert not np.any(yearly[0])
    for i, want in loop_assembly(inc, blocks, per_year=True).items():
        close(yearly[i - 1], want)
    close(total, loop_assembly(inc, blocks))


class TestVerifyQuantileImpacts:
    def test_bundled(self, belgian):
        report = verify_quantile_impacts(belgian, 0.995)
        assert report.passed, (report.max_rel_error, report.worst_cell)
        # the golden quantile table is this report's numeric column
        off = [
            (c["k"], c["j"], c["numeric"])
            for c in report.cells
            if abs(c["numeric"] - golden.IMPACT_QUANTILE_995[c["k"] - 1][c["j"] - 1])
            > TABLE_TOL
        ]
        assert not off, off

    def test_q_sweep_on_random_triangle(self):
        tri = build_corpus(count=4, seed=5)[3]
        for q in (0.75, 0.9, 0.99):
            report = verify_quantile_impacts(tri, q)
            assert report.passed, (q, report.max_rel_error)

    def test_median_sigma_contribution_absent(self, belgian):
        report = verify_quantile_impacts(belgian, 0.5)
        assert report.passed


def near_proportional(dim, noise):
    """Rows proportional to one decaying pattern up to a relative noise:
    sigma^2 and the MSE are tiny against the reserve, but positive."""
    rng = np.random.default_rng([dim, round(-math.log10(noise))])
    pattern, scales = 1e3 * 0.6 ** np.arange(dim), rng.uniform(0.5, 2.0, size=dim)
    rows = [s * pattern[: dim - i] * (1.0 + noise * rng.uniform(-1, 1, dim - i)) for i, s in enumerate(scales)]
    return IncrementalTriangle.from_rows([r.tolist() for r in rows])


LOW_VARIANCE = {
    **{f"I={dim} noise={noise}": (dim, noise) for dim in (6, 10, 20) for noise in (1e-12, 1e-6)},
    **{f"I={dim} all 0.01": (dim, None) for dim in (6, 11)},
}


@pytest.mark.parametrize("case", LOW_VARIANCE.values(), ids=LOW_VARIANCE.keys())
def test_no_false_alarms_on_low_variance_triangles(case):
    """mse / R^2 far below 1: numpy's complex log1p, log(1 + r), drops the
    real part of r below eps, so the step took the map at the wrong sigma^2
    (max_rel_error 1.0, or 5e-3 at noise 1e-6). sigma2 of the all-0.01
    triangles is 0 but in one slot, about 2e-33."""
    dim, noise = case
    inc = (
        IncrementalTriangle.from_rows([[0.01] * (dim - i) for i in range(dim)])
        if noise is None
        else near_proportional(dim, noise)
    )
    for q in (0.5, 0.995):
        report = verify_quantile_impacts(inc, q)
        assert report.passed, (q, report.max_rel_error, report.worst_cell)


@pytest.mark.parametrize("dim", [15, 20, 30, 40])
def test_no_false_alarms_at_large_dimension(dim):
    """The benchmark's four kinds pass the unchanged 1e-5 tolerance at sizes
    where central differences raised false alarms."""
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    for report in (
        verify_reserve_impacts(inc, "reserve-total"),
        verify_reserve_impacts(inc, "bf-total"),
        verify_mse_components(inc),
        verify_quantile_impacts(inc, 0.995),
    ):
        assert report.tolerance == 1e-5
        assert report.passed, (report.statistic, report.max_rel_error, report.worst_cell)


@pytest.mark.parametrize("dim", [10, 20])
def test_one_baseline_fit_per_verifier(dim, fit_builds):
    """The verifiers of one triangle step the baseline it keeps: the first
    builds the factors' fit (the fit with sigmas where the MSE needs them
    is derived from it) and one stack of stepped fits, the BF and MSE
    verifiers their stack alone, and the quantile verifier, which steps
    the map by the totals the MSE verifier's stack holds, none."""
    inc = random_triangle(np.random.default_rng([9, dim]), dim)
    for n, verify in enumerate((
        lambda: verify_reserve_impacts(inc, "reserve-total"),
        lambda: verify_reserve_impacts(inc, "bf-total"),
        lambda: verify_mse_components(inc),
        lambda: verify_quantile_impacts(inc, 0.995),
    )):
        fit_builds.clear()
        assert verify().passed
        assert len(fit_builds) == (2 if n == 0 else 0 if n == 3 else 1)


def every_verifier(inc):
    """Name -> call of one verifier on a triangle of inc's dimension:
    the per-year reserve, BF and MSE checks, both quantile levels, and
    explicit priors and tolerances besides the benchmark's four kinds."""
    dim, year = inc.dimension, inc.dimension // 2 + 1
    cum = cumulate(inc)
    priors = PriorUltimates(dim, default_priors(cum, estimate_development_factors(cum)).values * 1.1)
    return {
        "reserve-total": lambda t: verify_reserve_impacts(t, "reserve-total"),
        "reserve-ay": lambda t: verify_reserve_impacts(t, "reserve-ay", year),
        "bf-total": lambda t: verify_reserve_impacts(t, "bf-total"),
        "bf-total priors": lambda t: verify_reserve_impacts(t, "bf-total", priors=priors, tolerance=1e-9),
        "bf-ay priors": lambda t: verify_reserve_impacts(t, "bf-ay", year, priors),
        "mse-components": lambda t: verify_mse_components(t),
        "mse-components year": lambda t: verify_mse_components(t, 1e-9, year),
        "quantile 0.5": lambda t: verify_quantile_impacts(t, 0.5),
        "quantile 0.995": lambda t: verify_quantile_impacts(t, 0.995, 1e-9),
    }


def assert_same_report(got, want):
    """Bit for bit: every column, the notes and the verdict."""
    for name in ("k", "j", "analytic", "numeric", "rel_error"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert repr(got.notes) == repr(want.notes)
    assert (got.statistic, got.tolerance, got.passed) == (want.statistic, want.tolerance, want.passed)


@pytest.mark.parametrize("dim", [None, 6, 20])
def test_verifiers_in_any_order_report_what_a_fresh_triangle_does(dim, belgian):
    """A triangle keeps the baseline its first verifier fits, its
    cumulated triangle alone, whose fit record holds the factors and
    sigmas, and every later verifier on it, in either order, reports what
    it reports on a fresh copy of the triangle."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([12, dim]), dim)
    calls = every_verifier(inc)
    for order in (list(calls), list(reversed(calls))):
        kept = IncrementalTriangle.from_rows(inc.to_rows())
        for name in order:
            fresh = IncrementalTriangle.from_rows(inc.to_rows())
            assert_same_report(calls[name](kept), calls[name](fresh))
        assert set(vars(kept)) == {"dimension", "values", "_cum"}
        factors, _, sigmas, _ = kept.__dict__["_cum"].__dict__["_fit"]
        assert isinstance(factors, DevelopmentFactors) and isinstance(sigmas, SigmaEstimates)


def test_a_failed_sigma_fit_is_not_kept():
    """C_{1,1} = 0 leaves the factors defined but not the sigmas: the MSE
    verifier raises each time, and the reserve verifiers still pass."""
    rows = random_triangle(np.random.default_rng([13, 8]), 8).to_rows()
    rows[0][0] = 0.0
    inc = IncrementalTriangle.from_rows(rows)
    refused = r"zero cumulative cell \(1, 1\) in sigma estimation"
    with pytest.raises(ZeroDivisionError, match=refused):
        verify_mse_components(inc)
    assert verify_reserve_impacts(inc, "reserve-total").passed
    assert verify_reserve_impacts(inc, "bf-total").passed
    with pytest.raises(ZeroDivisionError, match=refused):
        verify_mse_components(inc)


def held_arrays(obj, seen=None):
    """Every array reachable from obj through dicts, tuples, lists and the
    __dict__ of objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from held_arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from held_arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj), seen)


def test_a_verified_triangle_keeps_no_stack():
    """What a triangle keeps for its verifiers is O(I^2): the cumulated
    triangle and the fits, no complex-step stack or report."""
    dim = 200
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    benchmark_kinds(inc)
    sizes = [a.size for a in held_arrays(inc.__dict__)]
    assert dim * dim in sizes and max(sizes) <= dim * dim


def building_blocks(fit):
    """The closed forms of the three building blocks over the sums, by
    name, as verify_mse_components computed them block by block."""
    dim = fit.dimension
    s = np.arange(dim - 1)
    d_lnf = np.zeros((dim - 1, 3 * dim - 2))
    d_lnf[s, s], d_lnf[s, dim - 1 + s] = 1.0 / fit.num, -1.0 / fit.den
    fsq = (fit.factors**2)[:, None]
    d_colsum_fsq = fsq * 2.0 * fit.den[:, None] * d_lnf
    d_colsum_fsq[s, dim - 1 + s] += fsq[:, 0]
    d_ult = impact._grad(fit, np.diag(fit.ult), np.diag(fit.fprod))
    return {"d_ln_f": d_lnf, "d_ultimate": d_ult, "d_colsum_fsq": d_colsum_fsq}


@pytest.mark.parametrize("dim", [None, 7, 40])
def test_each_block_note_is_its_blocks_max_rel(dim, belgian):
    """The three building blocks are scored in one pass; each note is the
    largest rel_error of its own block, bit for bit."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([14, dim]), dim)
    fit = quantile_fit(inc)[0]
    numeric = stepped_mse(fit)
    notes = verify_mse_components(inc).notes
    assert list(notes) == ["d_ln_f_max_rel", "d_ultimate_max_rel", "d_colsum_fsq_max_rel", "direct_fd_max_rel"]
    for name, a in building_blocks(fit).items():
        want = float(np.max(relative_error(a, numeric[name], _floor(a, fit.dimension)), initial=0.0))
        assert repr(notes[f"{name}_max_rel"]) == repr(want), name


@pytest.mark.parametrize("year", [None, 3])
def test_one_step_and_one_scoring_pass(year, belgian, monkeypatch):
    """verify_mse_components makes one complex step, maps twice (the
    direct note and the report) and scores three times: the building
    blocks in one pass, the direct note and the report."""
    calls = {}

    def counted(name):
        original = getattr(oracle, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, call)

    for name in ("complex_step", "_to_cells", "relative_error"):
        counted(name)
    verify_mse_components(IncrementalTriangle(belgian.dimension, belgian.values), year=year)
    assert calls == {"complex_step": 1, "_to_cells": 2, "relative_error": 3}


@pytest.mark.parametrize("dim", [4, 20, 100])
def test_one_stack_of_the_fitted_sums(dim, fit_builds):
    """complex_step steps each of A_1..A_{I-1}, B_1..B_{I-1}, L_1..L_I once,
    in one stack of 3I-2 entries, whatever I."""
    cum = cumulate(random_triangle(np.random.default_rng([10, dim]), dim))
    fit = Fit.of(cum.values)
    fit_builds.clear()
    d = complex_step(fit, lambda stack: np.sum(stack.reserves, axis=-1))
    assert d.shape == (3 * dim - 2,)
    assert len(fit_builds) == 1
    num, den, latest = fit_builds[0][:3]
    assert num.shape == den.shape == (3 * dim - 2, dim - 1)
    assert latest.shape == (3 * dim - 2, dim)
    # entry m steps sum m alone, by STEP times the power of two of the
    # largest latest cumulative, and its real parts are the baseline's
    sums = np.concatenate((num, den, latest), axis=-1)
    step = math.ldexp(STEP, math.frexp(np.max(fit.latest))[1])
    assert np.array_equal(np.imag(sums), step * np.eye(3 * dim - 2))
    baseline = np.concatenate((fit.num, fit.den, fit.latest))
    assert np.array_equal(np.real(sums), np.broadcast_to(baseline, sums.shape))


def benchmark_kinds(inc):
    """The four reports the benchmark's oracle-verify ops make."""
    return (
        verify_reserve_impacts(inc, "reserve-total"),
        verify_reserve_impacts(inc, "bf-total"),
        verify_mse_components(inc),
        verify_quantile_impacts(inc, 0.995),
    )


# The benchmark's four oracle-verify ops by name, and orders to make them
# in on one triangle: each leaves the fit holding another set of stepped
# totals when the quantile verifier runs (none, the MSE's alone, the
# reserve's alone, both).
BENCHMARK_KINDS = {
    "reserve-total": lambda inc: verify_reserve_impacts(inc, "reserve-total"),
    "bf-total": lambda inc: verify_reserve_impacts(inc, "bf-total"),
    "mse-components": lambda inc: verify_mse_components(inc),
    "quantile": lambda inc: verify_quantile_impacts(inc, 0.995),
}
KIND_ORDERS = {
    "quantile first": ("quantile", "mse-components", "bf-total", "reserve-total"),
    "mse first": ("mse-components", "quantile", "reserve-total", "bf-total"),
    "reserve last": ("bf-total", "mse-components", "quantile", "reserve-total"),
    "reserve then quantile": ("reserve-total", "quantile", "mse-components", "bf-total"),
    "benchmark": tuple(BENCHMARK_KINDS),
}


@pytest.mark.parametrize("order", KIND_ORDERS.values(), ids=KIND_ORDERS.keys())
@pytest.mark.parametrize("dim", [None, 10, 40])
def test_the_benchmark_kinds_in_any_order_report_what_a_fresh_triangle_does(dim, order, belgian):
    """Whether or not the MSE verifier has left the stepped totals on a
    triangle's fit, each of the benchmark's four reports on it is the
    report a fresh triangle gives, bit for bit, notes included. The random
    triangles are bench/layers.py's random_rows."""
    rows = belgian.to_rows() if dim is None else load(LAYERS, "bench_layers").random_rows(dim)
    kept = IncrementalTriangle.from_rows(rows)
    for name in order:
        verify = BENCHMARK_KINDS[name]
        assert_same_report(verify(kept), verify(IncrementalTriangle.from_rows(rows)))


def stacks(fit_builds) -> int:
    """How many of the Fit builds are complex-step stacks: those on a
    leading axis of 3I-2 entries."""
    return sum(np.ndim(latest) == 2 for _, _, latest, *_ in fit_builds)


@pytest.mark.parametrize("dim", [10, 20])
def test_the_quantile_verifier_steps_the_totals_the_fit_holds(dim, fit_builds):
    """On a fresh triangle the quantile verifier steps the total reserve and
    the total MSE in one stack, the MSE verifier's: it leaves, bit for bit,
    the record the MSE verifier leaves on a fresh copy. After the MSE
    verifier, alone or after the reserve-total verifier, it builds nothing:
    the MSE verifier's stack holds the raw imaginary parts of both stepped
    totals on the baseline fit, one read-only (2, 3I-2) record, and the
    quantile verifier steps the map by them to the report a fresh triangle
    gives."""
    rows = random_triangle(np.random.default_rng([15, dim]), dim).to_rows()
    fit_builds.clear()
    inc = IncrementalTriangle.from_rows(rows)
    fresh = verify_quantile_impacts(inc, 0.995)
    assert stacks(fit_builds) == 1 and len(fit_builds) == 2  # the baseline fit and the stack
    copy = IncrementalTriangle.from_rows(rows)
    verify_mse_components(copy)
    got, want = (_baseline(t, sigmas=True)[2].__dict__[oracle._STEPPED] for t in (inc, copy))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    for before in (("reserve-total", "mse-components"), ("mse-components",)):
        inc = IncrementalTriangle.from_rows(rows)
        for name in before:
            BENCHMARK_KINDS[name](inc)
        fit_builds.clear()
        assert_same_report(verify_quantile_impacts(inc, 0.995), fresh)
        assert fit_builds == [], before
        held = _baseline(inc, sigmas=True)[2].__dict__[oracle._STEPPED]
        assert held.shape == (2, 3 * dim - 2) and held.dtype == float and not held.flags.writeable


def test_no_false_alarms_on_any_year_at_i_100():
    """Every per-year reserve and BF check passes at I=100, where cells of
    about 1e-12 against a largest impact of 0.7 differ by rounding alone;
    an absolute 1e-12 floor failed 79 of them."""
    inc = random_triangle(np.random.default_rng([6, 100]), 100)
    failed = [
        (statistic, year, report.max_rel_error)
        for year in range(1, 101)
        for statistic in ("reserve-ay", "bf-ay")
        if not (report := verify_reserve_impacts(inc, statistic, year)).passed
    ]
    assert not failed, failed


@pytest.mark.parametrize("m", [-40, 20])
def test_p11_rel_error_is_scale_free(m):
    """P11: X -> 2^m X scales every sum, impact and derivative by a power
    of two, exactly, so no cell's rel_error may move."""
    inc = random_triangle(np.random.default_rng([6, 40]), 40)
    scaled = IncrementalTriangle(inc.dimension, inc.values * 2.0**m)
    for want, got in zip(benchmark_kinds(inc), benchmark_kinds(scaled)):
        assert np.array_equal(got.rel_error, want.rel_error), want.statistic


@pytest.mark.parametrize("dim", [10, 40])
def test_verdicts_do_not_depend_on_the_scale_of_the_data(dim):
    """P11 over m = -120..300: the step scales with the data, so the
    reserve, BF and MSE reports keep every rel_error bit for bit. The
    quantile map takes a log and an exp, whose rounding moves with the
    scale; its rel_error may move by rounding alone, and its verdict not.
    A fixed step of 1e-30 failed all four kinds from m = -100 on."""
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    *exact, quantile_report = benchmark_kinds(inc)
    for m in range(-120, 301, 10):
        *got, got_quantile = benchmark_kinds(IncrementalTriangle(dim, inc.values * 2.0**m))
        for want, report in zip(exact, got):
            assert np.array_equal(report.rel_error, want.rel_error), (m, want.statistic)
        assert got_quantile.passed == quantile_report.passed, m
        assert np.max(np.abs(got_quantile.rel_error - quantile_report.rel_error)) <= 1e-10, m


@pytest.mark.parametrize("m", [-100, 100, 300, 500])
def test_the_mack_statistics_scale_exactly_with_the_data(m):
    """X -> 2^m X scales every MSE by 4^m and each MSE impact by 2^m, bit
    for bit, with no overflow. At m = 500 the largest ultimate, 1.5e154,
    squares past the largest double, and the total MSE, 3.5e283, does
    not: the Mack sums take the ultimates at a power of two (Fit.scale),
    1 at the other m."""
    base = near_proportional(6, 1e-12)

    def mack(inc):
        cum = cumulate(inc)
        factors = estimate_development_factors(cum)
        sigmas = estimate_sigmas(cum, factors)
        summary = mack_summary(cum)
        impacts = [impact_mse_ay(cum, factors, sigmas, i).values for i in range(1, 7)]
        scaled = _baseline(inc, sigmas=True)[2].scale != 1.0
        return summary.mse_by_year, summary.mse_total, impacts, impact_mse_total(cum, factors, sigmas).values, scaled

    with np.errstate(over="raise", invalid="raise"):
        by_year, total, per_year, of_total, _ = mack(base)
        got = mack(IncrementalTriangle(6, base.values * 2.0**m))
    assert np.array_equal(got[0], by_year * 4.0**m) and got[1] == total * 4.0**m
    for want, impacts in zip(per_year + [of_total], got[2] + [got[3]]):
        assert np.array_equal(impacts, want * 2.0**m, equal_nan=True)
    assert got[4] == (m == 500)


def table_case(dim, belgian):
    """The bundled triangle for dim None, else a random one of dim, with
    its baseline fit (with sigmas) and default priors' values."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([21, dim]), dim)
    cum, factors, fit = _baseline(inc, sigmas=True)
    return inc, cum, factors, fit, default_priors(cum, factors)


def table_targets(name, dim):
    """The years a statistic of the table is read at: each for -ay, None
    (the total) for the others."""
    return range(1, dim + 1) if name.endswith("-ay") else [None]


@pytest.mark.parametrize("dim", [None, 6, 20])
def test_the_table_agrees_with_the_public_api(dim, belgian):
    """Every name of the table at every year: _impact of its grad is the
    public impact triangle, and its value the public statistic, bit for
    bit; an RMSE name reads its MSE's. The names are the CLI's --stat
    choices, in their order."""
    inc, cum, factors, fit, priors = table_case(dim, belgian)
    sigmas = SigmaEstimates(inc.dimension, fit.sigma2)
    by_year, total = reserves(cum, factors)
    bf_by_year, bf_total = bf_reserves(cum, factors, priors)
    quantile_value = lognormal_quantile(fit_lognormal(total, mse_total(cum, factors, sigmas)), 0.995)
    public = {
        "reserve-ay": lambda i: (impact_reserve_ay(cum, factors, i), by_year[i - 1]),
        "reserve-total": lambda _: (impact_reserve_total(cum, factors), total),
        "bf-ay": lambda i: (impact_bf_ay(cum, factors, priors, i), bf_by_year[i - 1]),
        "bf-total": lambda _: (impact_bf_total(cum, factors, priors), bf_total),
        "mse-ay": lambda i: (impact_mse_ay(cum, factors, sigmas, i), mse_accident_year(cum, factors, sigmas, i)),
        "mse-total": lambda _: (impact_mse_total(cum, factors, sigmas), mse_total(cum, factors, sigmas)),
        "quantile": lambda _: (impact_quantile(cum, factors, sigmas, 0.995), quantile_value),
    }
    for name, entry in _STATISTICS.items():
        kind = name.removeprefix("r") if name.startswith("rmse") else name
        for year in table_targets(name, inc.dimension):
            want_impacts, want_value = public[kind](year)
            impacts = _impact(kind, year, entry.grad(fit, year, priors.values, 0.995))
            assert impacts.values.tobytes() == want_impacts.values.tobytes(), (name, year)
            assert float(entry.value(fit, year, priors.values, 0.995)) == want_value, (name, year)
    stats = ("reserve-ay", "reserve-total", "bf-ay", "bf-total", "mse-ay", "mse-total", "rmse-ay", "rmse-total", "quantile")
    assert tuple(_STATISTICS) == cli.STATISTICS == stats


@pytest.mark.parametrize("dim", [None, 20])
def test_a_report_maps_as_the_impacts_do(dim, belgian):
    """The analytic column of _verify's report on every --stat name it
    serves (reserve, BF, quantile), at years 1, I/2 and I for the per-year
    ones, is the observed cells of the public impact triangle, and each
    triangle of verify_mse_components, which checks the MSE and RMSE
    names, is impact_mse_ay's of its year (2..I, or the year given) and
    its last impact_mse_total's, bit for bit."""
    inc, cum, factors, fit, priors = table_case(dim, belgian)
    dim = inc.dimension
    sigmas = SigmaEstimates(dim, fit.sigma2)
    public = {
        "reserve-ay": lambda i: impact_reserve_ay(cum, factors, i),
        "reserve-total": lambda _: impact_reserve_total(cum, factors),
        "bf-ay": lambda i: impact_bf_ay(cum, factors, priors, i),
        "bf-total": lambda _: impact_bf_total(cum, factors, priors),
        "mse-ay": lambda i: impact_mse_ay(cum, factors, sigmas, i),
        "mse-total": lambda _: impact_mse_total(cum, factors, sigmas),
        "quantile": lambda _: impact_quantile(cum, factors, sigmas, 0.995),
    }
    years = (1, dim // 2, dim)
    for name in (name for name, entry in _STATISTICS.items() if entry.numeric):
        for year in years if name.endswith("-ay") else (None,):
            report = _verify(inc, name, year, priors.values, 0.995, TOLERANCE)
            want = public[name](year).values[observed_mask(dim)]
            assert report.analytic.tobytes() == want.tobytes(), (name, year)
    reports = {None: range(2, dim + 1)} | {year: [year] for year in years}
    for year, checked in reports.items():
        got = by_triangle(verify_mse_components(inc, year=year).analytic, dim)
        want = [public["mse-ay"](i) for i in checked] + ([public["mse-total"](None)] if year is None else [])
        assert got.tobytes() == np.stack([w.values[observed_mask(dim)] for w in want]).tobytes(), year


def test_a_report_keeps_its_mapped_cells_as_its_columns(belgian):
    """A report's analytic and numeric columns are the two halves of its
    one map of the two gradients, kept as they are: no cell-sized copy."""
    for name, verify in every_verifier(belgian).items():
        report = verify(belgian)
        assert report.analytic.base is report.numeric.base, name
        assert report.analytic.base.size == 2 * report.k.size, name


@pytest.mark.parametrize("dim", [None, 6, 20])
def test_each_table_value_is_complex_safe_over_the_stack(dim, belgian):
    """Every entry's value of the complex_step stack is one value per fitted
    sum, whose real part is the baseline's value up to the rounding of the
    stack's complex sums: I eps of the larger of the value and the sum of
    the ultimates (a reserve, ult - latest, cancels at that scale)."""
    inc, _, _, fit, priors = table_case(dim, belgian)
    dim = inc.dimension
    for name, entry in _STATISTICS.items():
        for year in table_targets(name, dim):
            stacked = []
            complex_step(fit, lambda stack: stacked.append(entry.value(stack, year, priors.values, 0.5)) or stacked[0])
            value = entry.value(fit, year, priors.values, 0.5)
            assert stacked[0].shape == (3 * dim - 2,)
            bound = dim * np.finfo(float).eps * max(abs(value), np.sum(np.abs(fit.ult)))
            assert np.max(np.abs(np.real(stacked[0]) - value)) <= bound, (name, year)


def by_triangle(column, dim):
    """A report column as (triangles, n), one row per checked triangle."""
    return column.reshape(-1, dim * (dim + 1) // 2)


def replanted(report, analytic, dim):
    """The rel_error of report's cells rechecked with analytic in place of
    its analytic column, under the report's measure, triangle by triangle."""
    a = by_triangle(analytic, dim)
    return relative_error(a, by_triangle(report.numeric, dim), _floor(a, dim)).ravel()


@pytest.mark.parametrize("dim", [40, 100])
def test_planted_errors_fail_under_the_floor(dim):
    """The floor blunts nothing above rounding: an exact-zero analytic cell
    moved by 1e-6 S_t, and any cell above 1e-6 S_t moved by a relative
    1e-4, each read rel_error above the tolerance."""
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    reports = benchmark_kinds(inc) + (verify_reserve_impacts(inc, "reserve-ay", dim // 2),)
    for report in reports:
        assert report.passed, report.statistic
        assert np.array_equal(replanted(report, report.analytic, dim), report.rel_error)
        a = by_triangle(report.analytic, dim)
        scale = np.broadcast_to(np.max(np.abs(a), axis=-1, keepdims=True), a.shape).ravel()
        zero = report.analytic == 0.0
        large = np.abs(report.analytic) > 1e-6 * scale
        moved = np.where(zero, 1e-6 * scale, report.analytic * np.where(large, 1.0 + 1e-4, 1.0))
        rel = replanted(report, moved, dim)
        assert np.all(rel[zero | large] > report.tolerance), report.statistic
    assert np.any(reports[-1].analytic == 0.0)


@pytest.mark.parametrize("s", [1, 20, 39])
def test_a_dropped_term_of_g_fails(s, monkeypatch):
    """impact._grad without its -a_s/B_s term for one s, the d ln f_s term
    -1{j <= s}/B_s of every cell: every impact built on it is wrong, and
    each of the four reports says so."""
    dim = 40
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    grad = impact._grad

    def dropped(fit, c, diagonal, year=None):
        values = grad(fit, c, diagonal, year)
        values[..., dim - 2 + s] = 0.0
        return values

    monkeypatch.setattr(impact, "_grad", dropped)
    assert not any(report.passed for report in benchmark_kinds(inc))


def planted_mse_total(drop):
    """impact._mse with one of the five terms of its total dropped:
    "v-later", the v_q later_q part of alpha; "cumulative", alpha's sum over
    the earlier years; "diagonal", alpha F on the diagonal; "scale-a" and
    "scale-b", the scale term on A_r and on B_r. drop None keeps all. A
    year's gradient is the library's."""

    def mse_total(fit, year=None):
        if year is not None:
            return impact._mse(fit, year)
        v = 2.0 * fit.w
        alpha = np.zeros(fit.dimension)
        if drop != "cumulative":
            alpha += np.concatenate(([0.0], np.cumsum(v * fit.ult)[:-1]))
        if drop != "v-later":
            alpha += v * fit.later
        scale = -2.0 * fit.sigma2 / (fit.factors**2 * fit.den**2) * _ahead((fit.ult * fit.later)[1:])[1:]
        on_diagonal = 0.0 if drop == "diagonal" else alpha * fit.fprod
        grad = impact._grad(fit, (fit.shrink + alpha) * fit.ult, fit.mse_diagonal + on_diagonal)
        on_a = 0.0 * scale if drop == "scale-a" else 2.0 * scale * fit.den / fit.num
        on_b = 0.0 * scale if drop == "scale-b" else -scale
        return grad + np.concatenate((on_a, on_b, np.zeros(fit.dimension)))

    return mse_total


@pytest.mark.parametrize("drop", ["v-later", "cumulative", "diagonal", "scale-a", "scale-b"])
@pytest.mark.parametrize("dim", [10, 40])
def test_a_dropped_term_of_the_mse_total_fails(dim, drop, monkeypatch):
    """The MSE total's product rule without one of its terms, where the
    oracle and the quantile bind it: the MSE and quantile reports both
    fail. The copy with every term is the library's, bit for bit."""
    inc = random_triangle(np.random.default_rng([6, dim]), dim)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    fit = Fit.of(cum.values, factors.values, estimate_sigmas(cum, factors).values)
    assert np.array_equal(planted_mse_total(None)(fit), impact._mse(fit))
    monkeypatch.setattr(oracle, "_mse", planted_mse_total(drop))
    monkeypatch.setattr(quantile, "_mse", planted_mse_total(drop))
    assert not verify_mse_components(inc).passed
    assert not verify_quantile_impacts(inc, 0.995).passed


def quantile_fit(inc):
    """The baseline fit with sigmas, its total reserve and total MSE."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    fit = Fit.of(cum.values, factors.values, estimate_sigmas(cum, factors).values)
    return fit, np.sum(fit.reserves), fit.mse_total


def planted_quantile(drop):
    """quantile._quantile with one term of its chain rule dropped:
    "reserve-in-sigma2", the -2 mse d_r / total of d(sigma2); "half-sigma2",
    the d(sigma2) / 2 of d(mu); "z-sigma", the z d(sigma) term. drop None
    keeps all."""

    def impact_quantile(state, q):
        total, mse = float(np.sum(state.reserves)), state.mse_total
        fit = quantile.fit_lognormal(total, mse)
        z = quantile.inv_std_normal_cdf(q)
        d_r, d_m = impact._reserve(state), impact._mse(state)
        on_r = 0.0 if drop == "reserve-in-sigma2" else 2.0 * mse * d_r / total
        d_sigma2 = (d_m - on_r) / (mse + total**2)
        d_mu = d_r / total - (0.0 if drop == "half-sigma2" else d_sigma2 / 2.0)
        d_sigma = 0.0 if drop == "z-sigma" else d_sigma2 / (2.0 * np.sqrt(fit.sigma2))
        return (d_mu + z * d_sigma) * quantile.lognormal_quantile(fit, q)

    return impact_quantile


@pytest.mark.parametrize("drop", ["reserve-in-sigma2", "half-sigma2", "z-sigma"])
@pytest.mark.parametrize("dim", [None, 10, 40])
def test_a_dropped_term_of_the_quantile_chain_fails(dim, drop, belgian, monkeypatch):
    """The quantile's chain rule through the lognormal fit without one of
    its terms, where the oracle binds it: the quantile report fails, on
    the bundled triangle (dim None) and on random ones. The copy with every
    term is the library's, bit for bit."""
    inc = belgian if dim is None else random_triangle(np.random.default_rng([6, dim]), dim)
    fit, _, _ = quantile_fit(inc)
    want = quantile._quantile(fit, 0.995)
    assert np.array_equal(planted_quantile(None)(fit, 0.995), want)
    monkeypatch.setattr(oracle, "_quantile", planted_quantile(drop))
    assert not verify_quantile_impacts(inc, 0.995).passed


def two_partial_chain(inc, q):
    """The quantile's numeric column by the hand chain rule, kept as the
    reference of the one complex step of the quantile map: the map's
    partials in R and in the MSE m, each a scalar complex step at the
    baseline, times the stepped gradients dR and dm of the total reserve
    and of the total's frozen MSE, mapped to the cells.

    Returned with the scale the chain rounds at: the largest sum of the
    magnitudes of its terms through the lognormal fit, F (|dR| / R +
    (1/2 + |z| / (2 sigma)) (|dm| + 2 m |dR| / R) / (m + R^2)), F the
    quantile and sigma^2 the fit's."""
    fit, total, mse = quantile_fit(inc)
    lognormal = quantile.fit_lognormal(total, mse)

    def partial(f, x):
        return np.imag(f(x + STEP * 1j)) / STEP

    df_dr = partial(lambda r: quantile.lognormal_quantile(quantile.fit_lognormal(r, mse), q), total)
    df_dm = partial(lambda m: quantile.lognormal_quantile(quantile.fit_lognormal(total, m), q), mse)
    d_r = _to_cells(complex_step(fit, lambda stack: np.sum(stack.reserves, axis=-1)))
    d_m = _to_cells(stepped_mse(fit)["mse"][-1])
    on_sigma2 = (np.abs(d_m) + 2.0 * mse * np.abs(d_r) / total) / (mse + total**2)
    on_sigma = abs(quantile.inv_std_normal_cdf(q)) / (2.0 * np.sqrt(lognormal.sigma2))
    terms = np.abs(d_r) / total + (0.5 + on_sigma) * on_sigma2
    scale = quantile.lognormal_quantile(lognormal, q) * np.max(terms)
    return df_dr * d_r + df_dm * d_m, scale


def assert_quantile_step_is_the_two_partial_chain(inc):
    """The verifier's numeric column == the two-partial chain to 2 I eps T
    at three levels, T the chain's scale (two_partial_chain). T is at
    least the largest |analytic|, and where the chain's terms cancel it
    is more: in 3,000 draws of positive_triangles the two columns differed
    by up to 0.62 I eps T, and by up to 71 I eps times the largest
    |analytic|."""
    for q in (0.5, 0.9, 0.995):
        report = verify_quantile_impacts(inc, q)
        want, scale = two_partial_chain(inc, q)
        assert scale >= np.max(np.abs(report.analytic)) * (1.0 - 1e-12)
        assert np.max(np.abs(report.numeric - want)) <= 2 * inc.dimension * np.finfo(float).eps * scale, q


def test_quantile_step_is_the_two_partial_chain_on_the_bundled_triangle(belgian):
    assert_quantile_step_is_the_two_partial_chain(belgian)


@pytest.mark.parametrize("dim", [10, 40, 100])
def test_quantile_step_is_the_two_partial_chain_on_the_bench_triangles(dim):
    layers = load(LAYERS, "bench_layers")
    assert_quantile_step_is_the_two_partial_chain(IncrementalTriangle.from_rows(layers.random_rows(dim)))


def test_reserve_impacts_pass_at_i_100():
    inc = random_triangle(np.random.default_rng([6, 100]), 100)
    report = verify_reserve_impacts(inc, "reserve-total")
    assert report.k.size == 5050
    assert report.passed, (report.max_rel_error, report.worst_cell)


def incidence(dim):
    """(3I-2, n) 0/1 array over the n observed cells (_cells): entry [m, c]
    is 1 where cell c's X_{k,j} enters fitted sum m, in the order
    A_1..A_{I-1}, B_1..B_{I-1}, L_1..L_I. X_{k,j} adds to C_{k,r} for
    r >= j alone, so it enters A_s when j <= s+1 and B_s when j <= s, both
    only for rows k <= I-s, and the latest cell L_k of its own row."""
    k, j = _cells(dim)
    s = np.arange(1, dim)[:, None]
    inside = k <= dim - s
    latest = np.arange(1, dim + 1)[:, None] == k
    return np.concatenate((inside & (j <= s + 1), inside & (j <= s), latest)).astype(float)


@pytest.mark.parametrize("dim", [4, 7, 20])
def test_to_cells_maps_each_sum_to_its_cells(dim):
    """_to_cells of the unit gradient on sum m is row m of the incidence,
    and a stack of gradients maps row by row. The analytic impacts and
    the numeric side of every report share this map, so the oracle cannot
    see an error in it: this test is its guard."""
    basis = np.eye(3 * dim - 2)
    assert np.array_equal(_to_cells(basis), incidence(dim))
    grad = np.random.default_rng([11, dim]).normal(size=(2, 3, 3 * dim - 2))
    assert_close_to(_to_cells(grad), grad @ incidence(dim), dim, "stack")


def full_stack_complex_step(inc, statistic):
    """The complex step before row updates, kept as the reference: each
    entry of a stack is the whole perturbed (I, I) incremental triangle,
    and statistic maps the (n, I, I) stack to an (n, ...) array. The
    derivatives are returned in complex_step's cell layout (..., cells)."""
    dim = inc.dimension
    k, j = np.nonzero(observed_mask(dim))
    size = max(1, 2**14 // dim**2)
    parts = []
    for start in range(0, k.size, size):
        kk, jj = k[start : start + size], j[start : start + size]
        stack = np.empty((kk.size, dim, dim), dtype=complex)
        stack[:] = inc.values
        stack[np.arange(kk.size), kk, jj] += STEP * 1j
        parts.append(np.imag(statistic(stack)) / STEP)
    return np.moveaxis(np.concatenate(parts), 0, -1)


def assert_close_to(got, want, dim, name):
    """|got - want| <= 2 I eps max|want| on every cell: the stepped sums and
    the whole-triangle refit take the same derivative with the operations
    in another order, and the chain-rule sum over the fitted sums has up
    to 2I-1 terms per cell."""
    bound = 2 * dim * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound, name


def assert_row_update_is_the_full_refit(inc):
    """Stepped-sum derivatives mapped to the cells == full-stack derivatives
    to 2 I eps of each quantity's largest value, for the reserve total, the
    BF total, the plug-in MSE, the three MSE blocks and the frozen MSE of
    every year and the total, its coefficients frozen at the baseline."""
    dim = inc.dimension
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    sigma2 = estimate_sigmas(cum, factors).values
    mu = default_priors(cum, factors).values

    def full(x):
        return Fit.of(cumulate_values(x), sigma2=sigma2)

    quantities = [
        ("reserve total", lambda fit: np.sum(fit.reserves, axis=-1), None),
        ("bf total", lambda fit: np.sum(bf_reserve_values(fit.fprod, mu), axis=-1), None),
        ("plug-in mse", lambda fit: fit.mse_total, sigma2),
    ]
    for name, statistic, s2 in quantities:
        want = full_stack_complex_step(inc, lambda x: statistic(full(x)))
        got = _to_cells(complex_step(Fit.of(cum.values, sigma2=s2), statistic))
        assert_close_to(got, want, dim, name)

    base = Fit.of(cum.values, sigma2=sigma2)

    def blocks(x):
        fit = full(x)
        ln_f = np.log(fit.factors)
        return np.concatenate(
            (ln_f, fit.den * fit.factors**2, fit.ult, _frozen_mse(base, fit, ln_f)), axis=-1
        )

    want = full_stack_complex_step(inc, blocks)
    got = stepped_mse(base)
    for name, rows in (
        ("d_ln_f", slice(0, dim - 1)),
        ("d_colsum_fsq", slice(dim - 1, 2 * dim - 2)),
        ("d_ultimate", slice(2 * dim - 2, 3 * dim - 2)),
        ("mse", slice(3 * dim - 2, None)),
    ):
        assert_close_to(_to_cells(got[name]), want[rows], dim, name)


@pytest.mark.parametrize("dim", [4, 7, 12, 20])
def test_row_update_is_the_full_refit(dim):
    assert_row_update_is_the_full_refit(random_triangle(np.random.default_rng([8, dim]), dim))


@st.composite
def positive_triangles(draw):
    dim = draw(st.integers(4, 12))
    cells = st.floats(1e-2, 1e7, allow_nan=False, allow_infinity=False)
    rows = [draw(st.lists(cells, min_size=dim - i, max_size=dim - i)) for i in range(dim)]
    inc = IncrementalTriangle.from_rows(rows)
    assert not validate(inc)
    return inc


@settings(max_examples=40, deadline=None)
@given(positive_triangles())
def test_row_update_is_the_full_refit_on_any_positive_triangle(inc):
    assert_row_update_is_the_full_refit(inc)


@settings(max_examples=40, deadline=None)
@given(positive_triangles())
def test_quantile_step_is_the_two_partial_chain_on_any_positive_triangle(inc):
    # rows proportional up to rounding leave the MSE at the rounding of
    # the ratios, mse / R^2 about eps^2, where the quantile is undefined
    _, total, mse = quantile_fit(inc)
    assume(mse / total**2 > np.finfo(float).eps)
    assert_quantile_step_is_the_two_partial_chain(inc)

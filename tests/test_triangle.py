import dataclasses
import re

import numpy as np
import pytest

import runoff
from runoff.triangle import (
    CumulativeTriangle,
    IncrementalTriangle,
    column_partial_sum,
    cumulate,
    decumulate,
    is_observed,
    observed_mask,
    validate,
)
from runoff.impact import ImpactTriangle


def small():
    return IncrementalTriangle.from_rows(
        [
            [100.0, 50.0, 25.0],
            [110.0, 55.0],
            [120.0],
        ]
    )


class TestObservedRegion:
    def test_inside(self):
        assert is_observed(3, 1, 3)
        assert is_observed(3, 3, 1)
        assert is_observed(3, 2, 2)

    def test_outside(self):
        assert not is_observed(3, 2, 3)
        assert not is_observed(3, 0, 1)
        assert not is_observed(3, 1, 4)


class TestFromRows:
    def test_values_and_nan_mask(self):
        tri = small()
        assert tri.dimension == 3
        assert tri.cell(1, 3) == 25.0
        assert tri.cell(3, 1) == 120.0
        assert np.isnan(tri.values[2, 1])
        assert np.isnan(tri.values[1, 2])

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 2 must have 2 cells"):
            IncrementalTriangle.from_rows([[1.0, 2.0, 3.0], [4.0], [5.0]])

    def test_to_rows_round_trip(self):
        tri = small()
        assert tri.to_rows() == [[100.0, 50.0, 25.0], [110.0, 55.0], [120.0]]


class TestCellAccess:
    def test_unobserved_cell_raises(self):
        with pytest.raises(IndexError, match=r"\(2, 3\) is not observed"):
            small().cell(2, 3)

    def test_values_are_read_only(self):
        tri = small()
        with pytest.raises(ValueError):
            tri.values[0, 0] = 1.0

    def test_with_cell_copies(self):
        tri = small()
        bumped = tri.with_cell(1, 1, 999.0)
        assert bumped.cell(1, 1) == 999.0
        assert tri.cell(1, 1) == 100.0

    def test_with_cell_rejects_unobserved(self):
        with pytest.raises(IndexError, match="not observed"):
            small().with_cell(3, 2, 1.0)

    def test_observed_cells_order(self):
        cells = list(small().observed_cells())
        assert cells == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


class TestSharedBase:
    """cell, observed_cells and the shape check are one implementation,
    shared by the incremental, cumulative and impact triangles."""

    TRIANGLES = {
        "incremental": (lambda: small(), [100.0, 50.0, 25.0, 110.0, 55.0, 120.0]),
        "cumulative": (lambda: cumulate(small()), [100.0, 150.0, 175.0, 110.0, 165.0, 120.0]),
        "impact": (
            lambda: ImpactTriangle("reserve-total", None, 3, small().values),
            [100.0, 50.0, 25.0, 110.0, 55.0, 120.0],
        ),
    }

    @pytest.mark.parametrize("kind", TRIANGLES)
    def test_cell_and_observed_cells(self, kind):
        build, expected = self.TRIANGLES[kind]
        tri = build()
        cells = list(tri.observed_cells())
        assert cells == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
        assert [tri.cell(i, j) for i, j in cells] == expected
        with pytest.raises(IndexError, match=r"\(2, 3\) is not observed for I=3"):
            tri.cell(2, 3)
        with pytest.raises(ValueError):
            tri.values[0, 0] = 1.0

    def test_impact_triangle_checks_its_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\), got \(2, 2\)"):
            ImpactTriangle("mse-ay", 2, 3, np.zeros((2, 2)))

    def test_observed_mask(self):
        mask = observed_mask(3)
        assert mask.tolist() == [[True, True, True], [True, True, False], [True, False, False]]


class TestCumulate:
    def test_row_partial_sums(self):
        cum = cumulate(small())
        assert cum.cell(1, 1) == 100.0
        assert cum.cell(1, 2) == 150.0
        assert cum.cell(1, 3) == 175.0
        assert cum.cell(2, 2) == 165.0

    def test_round_trip(self):
        tri = small()
        back = decumulate(cumulate(tri))
        assert np.allclose(
            np.nan_to_num(back.values), np.nan_to_num(tri.values)
        )

    def test_decumulate_rejects_decreasing(self):
        cum = CumulativeTriangle(
            2, np.array([[10.0, 5.0], [3.0, np.nan]])
        )
        with pytest.raises(ValueError, match=r"decrease at \(1, 2\)"):
            decumulate(cum)


class TestValidate:
    def test_clean_triangle(self):
        assert validate(small()) == []

    def test_bundled_is_clean(self, belgian):
        assert validate(belgian) == []

    def test_missing_observed_cell(self):
        arr = np.full((3, 3), np.nan)
        arr[0, :] = [1.0, 2.0, 3.0]
        arr[1, 0] = 4.0
        arr[2, 0] = 5.0
        tri = IncrementalTriangle(3, arr)
        assert validate(tri) == ["missing observed cell (2, 2)"]

    def test_negative_cell(self):
        tri = small().with_cell(2, 2, -1.0)
        assert validate(tri) == ["negative cell (2, 2): -1.0"]

    def test_non_finite_cells(self):
        tri = small().with_cell(1, 1, np.inf).with_cell(2, 2, -np.inf)
        assert validate(tri) == [
            "non-finite cell (1, 1): inf",
            "non-finite cell (2, 2): -inf",
        ]

    def test_future_cell(self):
        arr = np.array(small().values)
        arr[2, 1] = 7.0
        tri = IncrementalTriangle(3, arr)
        assert validate(tri) == ["unexpected future cell (3, 2): 7.0"]

    def test_zero_column_sum(self):
        tri = IncrementalTriangle.from_rows(
            [[0.0, 1.0, 1.0], [1.0, 1.0], [1.0]]
        )
        assert "zero column partial sum: column 1, rows 1..1" in validate(tri)


class TestColumnPartialSum:
    def test_empty_sum_is_zero(self):
        assert column_partial_sum(cumulate(small()), 1, 0) == 0.0

    def test_known_sums(self):
        cum = cumulate(small())
        assert column_partial_sum(cum, 1, 3) == 330.0
        assert column_partial_sum(cum, 2, 2) == 315.0

    def test_bounds(self):
        cum = cumulate(small())
        with pytest.raises(IndexError, match="development year 4"):
            column_partial_sum(cum, 4, 1)
        with pytest.raises(IndexError, match="row bound 3"):
            column_partial_sum(cum, 2, 3)


def containers(caller):
    """One instance of every dataclass runoff exports, built from arrays
    that caller(shape) hands out, by class name."""
    tri = caller((3, 3))
    tri[:] = [[100.0, 150.0, 175.0], [110.0, 160.0, np.nan], [120.0, np.nan, np.nan]]
    report = runoff.VerificationReport("reserve-total", 1e-5)
    report.add(caller(2).astype(int), caller(2).astype(int), caller(2), caller(2))
    factors = runoff.DevelopmentFactors(3, caller(2))
    sigmas = runoff.SigmaEstimates(3, caller(2))
    return {
        "IncrementalTriangle": runoff.IncrementalTriangle(3, caller((3, 3))),
        "CumulativeTriangle": runoff.CumulativeTriangle(3, tri),
        "ImpactTriangle": runoff.ImpactTriangle("reserve-total", None, 3, caller((3, 3))),
        "DevelopmentFactors": factors,
        "SigmaEstimates": sigmas,
        "PriorUltimates": runoff.PriorUltimates(3, caller(3)),
        "MackSummary": runoff.MackSummary(
            factors, sigmas, caller(3), caller(3), 1.0, caller(3), 1.0
        ),
        "Fit": runoff.Fit.of(tri, caller(2), caller(2)),
        "LognormalFit": runoff.LognormalFit(0.0, 1.0),
        "FdScheme": runoff.FdScheme(),
        "VerificationReport": report,
    }


@pytest.mark.parametrize(
    "cls, count",
    [(runoff.DevelopmentFactors, 5), (runoff.SigmaEstimates, 5), (runoff.PriorUltimates, 6)],
)
def test_per_year_containers_check_their_length(cls, count):
    """I - 1 factors or sigmas and I priors for I = 6; any other shape
    would broadcast into a silently wrong answer."""
    assert cls(6, np.ones(count)).values.shape == (count,)
    for shape in ((1,), (count - 1,), (count + 1,), (1, count), ()):
        with pytest.raises(ValueError, match=rf"shape \({count},\), got {re.escape(str(shape))}"):
            cls(6, np.ones(shape))


def test_every_container_holds_read_only_copies():
    """README: the containers are frozen dataclasses over read-only arrays
    (a VerificationReport's add replaces its columns), and building one
    neither freezes nor aliases the caller's arrays."""
    handed_out = []

    def caller(shape):
        handed_out.append(np.ones(shape))
        return handed_out[-1]

    built = containers(caller)
    exported = {
        name for name in runoff.__all__ if dataclasses.is_dataclass(getattr(runoff, name))
    }
    assert set(built) == exported
    for name, obj in built.items():
        assert dataclasses.fields(obj)
        frozen = type(obj).__dataclass_params__.frozen
        assert frozen or name == "VerificationReport", name
        arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert all(not a.flags.writeable for a in arrays), name
        assert not any(np.shares_memory(a, c) for a in arrays for c in handed_out), name
    assert all(c.flags.writeable for c in handed_out)

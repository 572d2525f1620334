import dataclasses
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_a_bad_cell_before_a_short_row_is_refused_first(self):
        with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
            IncrementalTriangle.from_rows([["x", 1.0, 2.0], [3.0], [4.0]])

    def test_a_nested_cell_is_refused(self):
        # numpy's message counts the cells it was given: all of them at once
        with pytest.raises(ValueError, match="setting an array element with a sequence"):
            IncrementalTriangle.from_rows([[[1.0, 2.0], 3.0], [4.0]])


def loop_from_rows(rows):
    """from_rows as it wrote its cells, row by row: each row's length is
    checked, then the row converted onto its observed cells."""
    dim = len(rows)
    arr = np.empty((dim, dim))
    arr.fill(np.nan)
    for idx, (row, observed) in enumerate(zip(rows, observed_mask(dim))):
        if len(row) != dim - idx:
            raise ValueError(f"row {idx + 1} must have {dim - idx} cells, got {len(row)}")
        arr[idx, observed] = row
    return arr


# what a caller may put in a row: numbers of any kind, text float() reads or
# refuses, None (NaN) and a complex number (refused)
ROW_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["x", "", " 2.5 ", "1e400", None, 1 + 2j]),
)


@st.composite
def ragged_rows(draw):
    """0..8 rows, row i of I - i + 1 cells as a list, a tuple or a float32
    array, and now and then a row one cell short or long."""
    dim = draw(st.integers(0, 8))
    rows = []
    for i in range(dim):
        n = max(dim - i + draw(st.sampled_from([0] * 8 + [-1, 1])), 0)
        kind = draw(st.sampled_from([list, tuple, np.float32]))
        if kind is np.float32:
            rows.append(np.array(draw(st.lists(st.floats(width=32), min_size=n, max_size=n)), np.float32))
        else:
            rows.append(kind(draw(st.lists(ROW_CELL, min_size=n, max_size=n))))
    return rows


@given(ragged_rows())
def test_from_rows_writes_what_the_row_loop_wrote(rows):
    """from_rows writes every cell at once: the loop's values to the byte,
    or its refusal, type and message."""
    try:
        want = loop_from_rows(rows)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            IncrementalTriangle.from_rows(rows)
        assert str(got.value) == str(exc)
    else:
        got = IncrementalTriangle.from_rows(rows)
        assert got.dimension == len(rows) and got.values.tobytes() == want.tobytes()
        assert not got.values.flags.writeable


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
        # built once per I and shared, so no caller may write into it
        assert observed_mask(3) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = False


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

    @pytest.mark.parametrize("rows", [[], [[5.0]]], ids=["I=0", "I=1"])
    def test_dimension_below_two(self, rows):
        """No factor can be estimated below I = 2 (estimate_development_factors
        raised IndexError at I = 0), so validate refuses it, alone and in the
        words of the CLI's ingest."""
        inc = IncrementalTriangle.from_rows(rows)
        assert validate(inc) == [f"dimension must be at least 2, got {len(rows)}"]

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

    def test_overflowing_column_sum(self):
        """A column partial sum past the largest double is reported once,
        at its first row, and warns nothing: every fitted sum is one."""
        tri = IncrementalTriangle.from_rows([[1e308, 1.0, 1.0], [1e308, 1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems = validate(tri)
        assert problems == [
            "overflowing column partial sum: column 1, rows 1..2",
            "overflowing column partial sum: column 2, rows 1..2",
        ]


# The per-cell loops that observed_cells, to_rows, decumulate and validate
# ran before they gathered through the observed mask, kept as the reference
# the array forms must match message for message and bit for bit.


def loop_observed_cells(dim):
    for i in range(1, dim + 1):
        for j in range(1, dim - i + 2):
            yield i, j


def loop_to_rows(tri):
    return [[float(tri.values[i, j]) for j in range(tri.dimension - i)] for i in range(tri.dimension)]


def loop_decumulate(cum):
    dim = cum.dimension
    arr = np.array(cum.values)
    for i in range(1, dim + 1):
        for j in range(2, dim - i + 2):
            if cum.values[i - 1, j - 1] < cum.values[i - 1, j - 2]:
                raise ValueError(
                    f"cumulative claims decrease at ({i}, {j}): "
                    f"{cum.values[i - 1, j - 1]} < {cum.values[i - 1, j - 2]}"
                )
            arr[i - 1, j - 1] = cum.values[i - 1, j - 1] - cum.values[i - 1, j - 2]
    return arr


def loop_validate(inc):
    dim = inc.dimension
    if dim < 2:
        return [f"dimension must be at least 2, got {dim}"]
    problems = []
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            v = inc.values[i - 1, j - 1]
            if i + j <= dim + 1:
                if np.isnan(v):
                    problems.append(f"missing observed cell ({i}, {j})")
                elif not np.isfinite(v):
                    problems.append(f"non-finite cell ({i}, {j}): {v}")
                elif v < 0:
                    problems.append(f"negative cell ({i}, {j}): {v}")
            elif not np.isnan(v):
                problems.append(f"unexpected future cell ({i}, {j}): {v}")
    if not problems:
        cum = cumulate(inc)
        for j in range(1, dim + 1):
            running = 0.0
            for p in range(1, dim - j + 2):
                running += cum.values[p - 1, j - 1]
                if running == 0.0:
                    problems.append(f"zero column partial sum: column {j}, rows 1..{p}")
    return problems


ANY_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(1e-3, 1e6),
    st.floats(-1e6, -1e-3),
)
# zeros often enough that whole column partial sums vanish
CLEAN_CELL = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


@st.composite
def grids(draw):
    """(I, values): I from 1 to 12 and an (I, I) grid, either of any cells
    on and off the observed region or, half the time, of clean observed
    cells (0 or positive) with NaN elsewhere, a few of them spoilt."""
    dim = draw(st.integers(1, 12))
    mask = observed_mask(dim)
    if draw(st.booleans()):
        cells = draw(st.lists(ANY_CELL, min_size=dim * dim, max_size=dim * dim))
        return dim, np.array(cells).reshape(dim, dim)
    values = np.where(mask, 0.0, np.nan)
    n = dim * (dim + 1) // 2
    values[mask] = draw(st.lists(CLEAN_CELL, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        values[i, j] = draw(ANY_CELL)
    return dim, values


@given(grids())
def test_gathers_match_the_cell_loops(grid):
    """validate gives the loops' messages in their order, decumulate their
    array or their error, observed_cells and to_rows their cells."""
    dim, values = grid
    inc = IncrementalTriangle(dim, values)
    assert validate(inc) == loop_validate(inc)
    assert list(inc.observed_cells()) == list(loop_observed_cells(dim))
    assert repr(inc.to_rows()) == repr(loop_to_rows(inc))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN, as it was
        for cum in (CumulativeTriangle(dim, values), cumulate(inc)):
            try:
                want = loop_decumulate(cum)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    decumulate(cum)
                assert str(got.value) == str(exc)
            else:
                assert decumulate(cum).values.tobytes() == want.tobytes()


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
    report = runoff.VerificationReport("reserve-total", 1e-5, caller((1, 4)), caller((1, 4)))
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


@pytest.mark.parametrize("build", [
    lambda: runoff.DevelopmentFactors(3, [1, 2]),
    lambda: runoff.SigmaEstimates(3, [1, 2]),
    lambda: runoff.PriorUltimates(3, [1, 2, 3]),
    lambda: IncrementalTriangle(2, [[1, 2], [3, 4]]),
], ids=["DevelopmentFactors", "SigmaEstimates", "PriorUltimates", "IncrementalTriangle"])
def test_every_container_holds_float64(build):
    """One base copies every container's values: read-only float64, from
    a list of ints too, as a triangle's always were."""
    values = build().values
    assert values.dtype == np.float64 and not values.flags.writeable


def test_every_container_holds_read_only_copies():
    """README: the containers are frozen dataclasses over read-only arrays,
    and building one neither freezes nor aliases the caller's arrays."""
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
        assert type(obj).__dataclass_params__.frozen, name
        arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert all(not a.flags.writeable for a in arrays), name
        assert not any(np.shares_memory(a, c) for a in arrays for c in handed_out), name
    assert all(c.flags.writeable for c in handed_out)


# The fields of every dataclass runoff exports, in field order.
FIELDS = {
    "IncrementalTriangle": ("dimension", "values"),
    "CumulativeTriangle": ("dimension", "values"),
    "ImpactTriangle": ("statistic", "target", "dimension", "values"),
    "DevelopmentFactors": ("dimension", "values"),
    "SigmaEstimates": ("dimension", "values"),
    "PriorUltimates": ("dimension", "values"),
    "MackSummary": ("factors", "sigmas", "ultimates", "reserves_by_year", "reserve_total", "mse_by_year",
                    "mse_total"),
    "Fit": ("dimension", "num", "den", "factors", "fprod", "latest", "ult", "sigma2"),
    "LognormalFit": ("mu", "sigma2"),
    "FdScheme": ("relative_step", "absolute_floor"),
    "VerificationReport": ("statistic", "tolerance", "notes", "max_rel_error", "worst_cell", "size"),
}


def test_every_object_over_arrays_compares_by_identity():
    """README: every exported dataclass but FdScheme compares by identity,
    as NaN cells and float arrays give no one value equality: two built
    from equal values differ without raising, and each equals itself,
    hashes and is a set member. FdScheme, two checked numbers, compares by
    value. Fields, the frozen flag and the value repr are kept."""
    first, second = containers(np.ones), containers(np.ones)
    assert set(first) == set(FIELDS)
    for name, a in first.items():
        b, cls = second[name], type(a)
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name], name
        assert cls.__dataclass_params__.frozen and repr(a) == repr(b), name
        assert a == a and hash(a) == hash(a), name
        if name == "FdScheme":
            assert a == b and len({a, b}) == 1
        else:
            assert not a == b and a != b and len({a, b}) == 2, name
            assert cls.__hash__ is object.__hash__, name


@pytest.mark.parametrize("build, shape", [
    (lambda a: IncrementalTriangle(3, a), (3, 3)),
    (lambda a: runoff.SigmaEstimates(3, a), (2,)),
    (lambda a: runoff.PriorUltimates(3, a), (3,)),
    (lambda a: ImpactTriangle("reserve-total", None, 3, a), (3, 3)),
], ids=["IncrementalTriangle", "SigmaEstimates", "PriorUltimates", "ImpactTriangle"])
def test_a_public_constructor_copies_what_it_is_given(build, shape):
    """Only the library's own builds hold their arrays in place (_owned): a
    caller's array, written after the build, leaves values as they were."""
    given = np.ones(shape)
    built = build(given)
    given.fill(7.0)
    assert built.values.tobytes() == np.ones(shape).tobytes()


def library_builds(inc: IncrementalTriangle) -> dict:
    """Every frozen object a sensitivity report builds from inc, and the
    per-year impacts, by what built it."""
    cum = cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    priors = runoff.default_priors(cum, factors)
    fit = runoff.chainladder._fit(cum, factors, sigmas)
    return {
        "from_rows": IncrementalTriangle.from_rows(inc.to_rows()),
        "cumulate": cum,
        "factors": factors,
        "sigmas": sigmas,
        "priors": priors,
        "fit": fit,
        "lognormal": runoff.fit_lognormal(float(fit.reserves.sum()), float(fit.mse_total)),
        "reserve-ay": runoff.impact_reserve_ay(cum, factors, np.int64(3)),
        "reserve-total": runoff.impact_reserve_total(cum, factors),
        "bf-ay": runoff.impact_bf_ay(cum, factors, priors, 4),
        "bf-total": runoff.impact_bf_total(cum, factors, priors),
        "mse-ay": runoff.impact_mse_ay(cum, factors, sigmas, 5),
        "mse-total": runoff.impact_mse_total(cum, factors, sigmas),
        "quantile": runoff.impact_quantile(cum, factors, sigmas, 0.995),
    }


def test_what_the_library_builds_is_what_its_constructor_would_build(belgian):
    """The library builds its containers, fits and lognormal fits in place
    (_owned), with no __init__ to copy and check: each holds read-only
    float64 arrays of its documented shape, nobody else's, and equals,
    field by field and in repr, the object its public constructor builds
    from the same fields."""
    built = library_builds(belgian)
    dim = belgian.dimension
    for name, obj in built.items():
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        assert list(vars(obj))[: len(fields)] == list(fields), name  # then what it keeps
        again = type(obj)(**fields)
        for field, value in fields.items():
            other = getattr(again, field)
            if isinstance(value, np.ndarray):
                assert value.dtype == np.float64 and not value.flags.writeable, (name, field)
                assert value.shape == other.shape and value.tobytes() == other.tobytes(), (name, field)
            else:
                assert type(value) is type(other) and value == other, (name, field)
        assert repr(obj) == repr(again), name
        if isinstance(obj, runoff.triangle.Container):
            assert obj.values.shape == (dim - obj.SHORT,) * obj.AXES, name
    shapes = [getattr(built["fit"], k).shape for k in ("num", "den", "factors", "sigma2", "fprod", "latest", "ult")]
    assert shapes == [(dim - 1,)] * 4 + [(dim,)] * 3
    assert built["reserve-ay"].target == 3 and type(built["reserve-ay"].target) is int
    arrays = [v for obj in built.values() for v in vars(obj).values() if isinstance(v, np.ndarray)]
    held = runoff.chainladder._fit(built["cumulate"], built["factors"])
    for own in (built["factors"].values, built["priors"].values):
        assert not any(np.shares_memory(own, a) for a in vars(held).values() if isinstance(a, np.ndarray))
    assert not any(np.shares_memory(a, belgian.values) for a in arrays)


def total_reserve(inc: IncrementalTriangle) -> float:
    cum = cumulate(inc)
    return runoff.reserves(cum, runoff.estimate_development_factors(cum))[1]


# Every public call that takes a 1-based index of the 10x10 belgian
# triangle, one entry per index argument: the call of the fitted state and
# the index, the last valid index, and the message of a bad index.
INDEXED = {
    "factor": (lambda b, v: b.factors.factor(v), 9, "factor index {} out of range 1..9"),
    "product": (lambda b, v: b.factors.product(v, v), 9, "factor product {0}..{0} out of range 1..9"),
    "sigma2": (lambda b, v: b.sigmas.sigma2(v), 9, "sigma index {} out of range 1..9"),
    "prior": (lambda b, v: b.priors.prior(v), 10, "accident year {} out of range 1..10"),
    "cell k": (lambda b, v: b.inc.cell(v, 1), 10, "cell ({}, 1) is not observed for I=10"),
    "cell j": (lambda b, v: b.cum.cell(1, v), 10, "cell (1, {}) is not observed for I=10"),
    "with_cell": (lambda b, v: b.inc.with_cell(v, 1, 5.0), 10, "cell ({}, 1) is not observed for I=10"),
    "column_partial_sum": (lambda b, v: column_partial_sum(b.cum, v, 1), 10,
                           "development year {} out of range 1..10"),
    "d_ln_f s": (lambda b, v: runoff.d_ln_f(b.cum, v, 1, 1), 9, "factor index {} out of range 1..9"),
    "d_ln_f k": (lambda b, v: runoff.d_ln_f(b.cum, 2, v, 1), 10, "cell ({}, 1) is not observed for I=10"),
    "d_ln_f j": (lambda b, v: runoff.d_ln_f(b.cum, 2, 1, v), 10, "development year {} out of range 1..10"),
    "fd_derivative": (lambda b, v: runoff.fd_derivative(total_reserve, b.inc, v, 1), 10,
                      "cell ({}, 1) is not observed for I=10"),
    "mse_accident_year": (lambda b, v: runoff.mse_accident_year(b.cum, b.factors, b.sigmas, v), 10,
                          "accident year {} out of range 1..10"),
    "impact_reserve_ay": (lambda b, v: runoff.impact_reserve_ay(b.cum, b.factors, v), 10,
                          "accident year {} out of range 1..10"),
    "impact_bf_ay": (lambda b, v: runoff.impact_bf_ay(b.cum, b.factors, b.priors, v), 10,
                     "accident year {} out of range 1..10"),
    "impact_mse_ay": (lambda b, v: runoff.impact_mse_ay(b.cum, b.factors, b.sigmas, v), 10,
                      "accident year {} out of range 1..10"),
    "verify_reserve_impacts": (lambda b, v: runoff.verify_reserve_impacts(b.inc, "reserve-ay", v), 10,
                               "accident year {} out of range 1..10"),
    "verify_mse_components": (lambda b, v: runoff.verify_mse_components(b.inc, year=v), 10,
                              "accident year {} out of range 1..10"),
    "ImpactTriangle": (lambda b, v: ImpactTriangle("mse-ay", v, 10, b.cum.values), 10,
                       "accident year {} out of range 1..10"),
    "impact_rmse": (lambda b, v: runoff.impact_rmse(4.0, ImpactTriangle("mse-ay", v, 10, b.cum.values)), 10,
                    "accident year {} out of range 1..10"),
    "marginal_contributions": (lambda b, v: runoff.marginal_contributions(
        ImpactTriangle("reserve-ay", v, 10, runoff.impact_reserve_ay(b.cum, b.factors, 3).values), b.inc,
        runoff.reserves(b.cum, b.factors)[0][2]), 10, "accident year {} out of range 1..10"),
}


@pytest.fixture(scope="module")
def fitted(belgian):
    inc = IncrementalTriangle(belgian.dimension, belgian.values)
    cum = cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    return SimpleNamespace(inc=inc, cum=cum, factors=factors, sigmas=runoff.estimate_sigmas(cum, factors),
                           priors=runoff.default_priors(cum, factors))


def outcome(result) -> tuple:
    """What a result holds, bit for bit, with the repr of its target."""
    if isinstance(result, runoff.VerificationReport):
        return (repr(result.to_dict()),)
    if isinstance(result, float):
        return (repr(result),)
    return result.values.tobytes(), repr(vars(result).get("target"))


@pytest.mark.parametrize("name", INDEXED)
def test_every_one_based_index_is_checked_alike(fitted, name):
    """Every 1-based index is taken as a list index is (operator.index): a
    float raises TypeError even when it is whole, and a numpy integer is
    that integer; one outside 1..last, a negative one too, raises
    IndexError with the call's message. An impact triangle's target is
    checked where it is built, so marginal_contributions reads no row of
    another year (target 0 read row -1)."""
    call, last, message = INDEXED[name]
    for value in (2.5, 3.0):
        with pytest.raises(TypeError):
            call(fitted, value)
    assert outcome(call(fitted, np.int64(3))) == outcome(call(fitted, 3))
    for value in (0, -1, last + 1):
        with pytest.raises(IndexError, match=f"^{re.escape(message.format(value))}$"):
            call(fitted, value)

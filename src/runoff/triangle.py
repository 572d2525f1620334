"""Run-off triangle data model.

Triangles are square arrays indexed 1-based by accident year i (rows)
and development year j (columns). A cell (i, j) is observed iff
i + j <= I + 1; unobserved cells are stored as NaN and never read.
This module alone knows that region and its row-major order
(observed_mask, _cell_index, _cells): every walk over the cells gathers
through them.
It also owns the index contract: every 1-based index is taken as a list
index is (operator.index), and one outside 1..M raises IndexError
"<what> <value> out of range 1..M" (_one_based).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["IncrementalTriangle", "CumulativeTriangle", "cumulate", "decumulate", "validate",
           "column_partial_sum"]


def _one_based(value, last: int, what: str) -> int:
    """value as an index (operator.index: a float raises TypeError), or
    IndexError unless it lies in 1..last."""
    index = operator.index(value)
    if not 1 <= index <= last:
        raise IndexError(f"{what} {value} out of range 1..{last}")
    return index


def is_observed(dimension: int, i: int, j: int) -> bool:
    """True iff (i, j) lies in the observed upper-left region."""
    return 1 <= i <= dimension and 1 <= j <= dimension and i + j <= dimension + 1


@lru_cache(maxsize=16)
def observed_mask(dimension: int) -> np.ndarray:
    """(I, I) boolean array, True on the observed cells i + j <= I + 1.
    Read-only and built once per I: every caller shares it."""
    rows = np.arange(dimension)
    return _read_only(rows[:, None] + rows <= dimension - 1)


@lru_cache(maxsize=16)
def _cell_index(dimension: int) -> tuple:
    """Row and column, 0-based, of the observed cells in row-major order:
    the one cell layout, which impact._to_cells gathers by. Read-only,
    contiguous (np.nonzero gives strided views, slower to gather by) and
    built once per I, like observed_mask."""
    return tuple(_read_only(np.ascontiguousarray(c)) for c in np.nonzero(observed_mask(dimension)))


@lru_cache(maxsize=16)
def _cells(dimension: int) -> tuple:
    """k and j, 1-based, of the observed cells in the layout of _cell_index:
    the cells of observed_cells, the CLI's cell lists and the oracle's
    reports. Read-only and built once per I."""
    return tuple(_read_only(c + 1) for c in _cell_index(dimension))


def _observed(values: np.ndarray) -> np.ndarray:
    """A (..., I, I) stack of triangles in the cell layout of _cells."""
    return values[..., observed_mask(values.shape[-1])]


def _records(names: tuple, columns) -> list:
    """One dict per row of equal-length columns, keyed by names: the cell
    and year lists of the JSON documents."""
    return [dict(zip(names, row)) for row in zip(*columns)]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _owned(cls, **fields):
    """A frozen dataclass cls holding fields, given in field order, built
    without its __init__ or __post_init__: the fields go straight into the
    instance __dict__, as the attach of sigmas builds a fit. For what the
    library has just built: its arrays must be ones nobody else holds,
    frozen by the caller (_read_only), float64 and of the documented shape,
    as nothing copies or checks them. Public constructors still copy and
    check what the caller passes."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _cached:
    """A value computed on the first read and kept in the instance __dict__
    under the attribute's own name, where later reads find it first, as
    functools.cached_property keeps it (deepcopy and vars() see it), but
    without the lock Python 3.11's takes on every first read. Two threads
    may each compute a value on a first read; the values are equal, and
    the last one stored stays."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Container:
    """Base of the triangles and per-year containers, frozen dataclasses with
    dimension and values fields: values is a read-only float64 copy of what
    the caller passed, AXES axes of dimension - SHORT entries: (I, I) for a
    triangle, (I - 1,) per development year, (I,) per accident year. The
    library builds its own in place (_owned), over arrays it has just made.
    Like every object over arrays, they are declared eq=False and compare
    by identity: NaN cells and float arrays give no one value equality,
    and a fit is held for the same factors object (chainladder._fit)."""

    SHORT, AXES = 0, 1

    def __post_init__(self):
        values = _read_only(np.array(self.values, dtype=float))
        want = (self.dimension - self.SHORT,) * self.AXES
        if values.shape != want:
            raise ValueError(f"values must have shape {want}, got {values.shape}")
        object.__setattr__(self, "values", values)


class Triangle(Container):
    """What every triangle shares: (I, I) values, NaN outside the observed
    region, read cell by cell."""

    AXES = 2

    def _check_observed(self, i: int, j: int):
        if not is_observed(self.dimension, operator.index(i), operator.index(j)):
            raise IndexError(f"cell ({i}, {j}) is not observed for I={self.dimension}")

    def cell(self, i: int, j: int) -> float:
        """The value of an observed cell."""
        self._check_observed(i, j)
        return float(self.values[i - 1, j - 1])

    def observed_cells(self):
        """Iterate observed (i, j) pairs, row-major."""
        return zip(*(c.tolist() for c in _cells(self.dimension)))


@dataclass(frozen=True, eq=False)
class IncrementalTriangle(Triangle):
    """Incremental claims X_{i,j} on the observed region."""

    dimension: int
    values: np.ndarray

    @classmethod
    def from_rows(cls, rows: list) -> "IncrementalTriangle":
        """Build from ragged rows; row i must hold I - i + 1 values. Every cell is
        written at once (_from_cells); a bad cell before a short row is refused first."""
        dim = len(rows)
        for idx, row in enumerate(rows):
            if len(row) != dim - idx:
                np.array(list(itertools.chain.from_iterable(itertools.islice(rows, idx))), dtype=float)
                raise ValueError(f"row {idx + 1} must have {dim - idx} cells, got {len(row)}")
        return _from_cells(list(itertools.chain.from_iterable(rows)), dim)

    def to_rows(self) -> list:
        mask = observed_mask(self.dimension)
        return [row[observed].tolist() for row, observed in zip(self.values, mask)]

    def with_cell(self, i: int, j: int, value: float) -> "IncrementalTriangle":
        """Copy with one observed cell replaced."""
        self._check_observed(i, j)
        arr = np.array(self.values)
        arr[i - 1, j - 1] = value
        return IncrementalTriangle(self.dimension, arr)


def _from_cells(cells, dimension: int) -> IncrementalTriangle:
    """The incremental triangle whose observed cells hold cells, in the
    layout of _cells, on a NaN (I, I) array built in place (_owned): the one
    writer of observed values, for from_rows and the CLI's ingest."""
    values = np.empty((dimension, dimension))
    values.fill(np.nan)
    values[observed_mask(dimension)] = cells
    return _owned(IncrementalTriangle, dimension=dimension, values=_read_only(values))


@dataclass(frozen=True, eq=False)
class CumulativeTriangle(Triangle):
    """Cumulative claims C_{i,j} = sum of X_{i,1..j} on the observed region."""

    dimension: int
    values: np.ndarray


def cumulate_values(values: np.ndarray) -> np.ndarray:
    """Row partial sums of (..., I, I) incremental values over any leading
    batch axes, NaN where the increments are NaN."""
    missing = np.isnan(values)
    return np.where(missing, np.nan, np.where(missing, 0.0, values).cumsum(axis=-1))


def cumulate(inc: IncrementalTriangle) -> CumulativeTriangle:
    """Row partial sums of the incremental triangle."""
    values = _read_only(cumulate_values(inc.values))
    return _owned(CumulativeTriangle, dimension=inc.dimension, values=values)


def decumulate(cum: CumulativeTriangle) -> IncrementalTriangle:
    """Inverse of cumulate. A row may fall; a negative cumulative value is
    rejected, naming the first such cell in row-major order."""
    values = cum.values
    negative = observed_mask(cum.dimension) & (values < 0)
    if np.logical_or.reduce(negative, axis=None):
        i, j = np.unravel_index(negative.argmax(), negative.shape)
        raise ValueError(f"negative cumulative claims at ({i + 1}, {j + 1}): {values[i, j]}")
    arr = np.array(values)
    np.subtract(values[:, 1:], values[:, :-1], out=arr[:, 1:], where=observed_mask(cum.dimension)[:, 1:])
    return IncrementalTriangle(cum.dimension, arr)


def validate(inc: IncrementalTriangle) -> list:
    """Diagnostics for an incremental triangle; empty list means valid.

    Checks: a dimension below 2, alone (no factor can be estimated, as
    the CLI's ingest refuses it too); missing and non-finite observed
    cells and populated future cells; then negative cumulative cells,
    sought only when no cell is bad (an increment may be negative, as
    long as its row's claims to date are not: the variance weights and
    every column sum stay >= 0); then zero or overflowing column partial
    sums on the cumulated triangle, sought only when none is negative
    (these sums appear as denominators downstream, and every fitted sum
    is one of them). Bad cells are reported in row-major order; bad
    partial sums column by column and down each column, an overflowing
    column at its first row.
    """
    if inc.dimension < 2:
        return [f"dimension must be at least 2, got {inc.dimension}"]
    values = inc.values
    observed = observed_mask(inc.dimension)
    missing = np.isnan(values)
    # each message takes i, j and the value; str.format drops what it does not show
    checks = {
        "missing observed cell ({}, {})": observed & missing,
        "non-finite cell ({}, {}): {}": observed & np.isinf(values),
        "unexpected future cell ({}, {}): {}": ~observed & ~missing,
    }
    messages = list(checks)
    kind = np.select(list(checks.values()), range(len(checks)), -1)  # a cell's first problem
    rows, cols = (kind >= 0).nonzero()
    cells = zip(rows.tolist(), cols.tolist(), kind[rows, cols].tolist(), values[rows, cols])
    problems = [messages[m].format(i + 1, j + 1, v) for i, j, m, v in cells]
    if problems:
        return problems
    with np.errstate(over="ignore"):  # reported, at its first row
        cum = cumulate_values(values)
        partial = cum.cumsum(axis=0)
    rows, cols = (observed & (cum < 0)).nonzero()
    problems = [f"negative cumulative cell ({i + 1}, {k + 1}): {v}"
                for i, k, v in zip(rows.tolist(), cols.tolist(), cum[rows, cols])]
    if problems:
        return problems
    over = np.isinf(partial) & (np.isinf(partial).cumsum(axis=0) == 1)
    cols, rows = (observed & ((partial == 0.0) | over)).T.nonzero()
    return [
        f"{'overflowing' if over[p, j] else 'zero'} column partial sum: "
        f"column {j + 1}, rows 1..{p + 1}"
        for j, p in zip(cols.tolist(), rows.tolist())
    ]


def column_partial_sum(cum: CumulativeTriangle, j: int, p: int) -> float:
    """Sum of C_{q,j} over q = 1..p. Empty sums (p = 0) are 0."""
    dim, j = cum.dimension, _one_based(j, cum.dimension, "development year")
    if not 0 <= operator.index(p) <= dim - j + 1:
        raise IndexError(f"row bound {p} out of range 0..{dim - j + 1} for column {j}")
    if p == 0:
        return 0.0
    return float(np.add.reduce(cum.values[:p, j - 1]))

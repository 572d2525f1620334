"""Run-off triangle data model.

Triangles are square arrays indexed 1-based by accident year i (rows)
and development year j (columns). A cell (i, j) is observed iff
i + j <= I + 1; unobserved cells are stored as NaN and never read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def is_observed(dimension: int, i: int, j: int) -> bool:
    """True iff (i, j) lies in the observed upper-left region."""
    return 1 <= i <= dimension and 1 <= j <= dimension and i + j <= dimension + 1


def observed_mask(dimension: int) -> np.ndarray:
    """(I, I) boolean array, True on the observed cells i + j <= I + 1."""
    rows = np.arange(dimension)
    return rows[:, None] + rows <= dimension - 1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class ReadOnlyArrays:
    """Base of the frozen dataclasses: each field annotated np.ndarray
    holds a read-only copy of what the caller passed."""

    def __post_init__(self):
        for f in fields(self):
            if f.type == "np.ndarray":
                object.__setattr__(self, f.name, _read_only(np.array(getattr(self, f.name))))


class YearValues(ReadOnlyArrays):
    """Base of the per-year containers: values holds one entry per year,
    dimension - SHORT of them (I - 1 development years or I accident
    years). The subclasses are frozen dataclasses with dimension and
    values fields."""

    SHORT = 0

    def __post_init__(self):
        super().__post_init__()
        want = (self.dimension - self.SHORT,)
        if self.values.shape != want:
            raise ValueError(f"values must have shape {want}, got {self.values.shape}")


class Triangle:
    """What every triangle shares: a read-only (I, I) float copy of its
    values, NaN outside the observed region, read cell by cell. The
    subclasses are frozen dataclasses with dimension and values fields."""

    def __post_init__(self):
        arr = _read_only(np.array(self.values, dtype=float))
        if arr.shape != (self.dimension, self.dimension):
            raise ValueError(
                f"values must have shape ({self.dimension}, {self.dimension}), "
                f"got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    def _check_observed(self, i: int, j: int):
        if not is_observed(self.dimension, i, j):
            raise IndexError(f"cell ({i}, {j}) is not observed for I={self.dimension}")

    def cell(self, i: int, j: int) -> float:
        """The value of an observed cell."""
        self._check_observed(i, j)
        return float(self.values[i - 1, j - 1])

    def observed_cells(self):
        """Iterate observed (i, j) pairs, row-major."""
        for i in range(1, self.dimension + 1):
            for j in range(1, self.dimension - i + 2):
                yield i, j


@dataclass(frozen=True)
class IncrementalTriangle(Triangle):
    """Incremental claims X_{i,j} on the observed region."""

    dimension: int
    values: np.ndarray

    @classmethod
    def from_rows(cls, rows: list) -> "IncrementalTriangle":
        """Build from ragged rows; row i must hold I - i + 1 values."""
        dim = len(rows)
        arr = np.full((dim, dim), np.nan)
        for idx, row in enumerate(rows):
            expected = dim - idx
            if len(row) != expected:
                raise ValueError(
                    f"row {idx + 1} must have {expected} cells, got {len(row)}"
                )
            arr[idx, : len(row)] = row
        return cls(dim, arr)

    def to_rows(self) -> list:
        return [
            [float(self.values[i, j]) for j in range(self.dimension - i)]
            for i in range(self.dimension)
        ]

    def with_cell(self, i: int, j: int, value: float) -> "IncrementalTriangle":
        """Copy with one observed cell replaced."""
        self._check_observed(i, j)
        arr = np.array(self.values)
        arr[i - 1, j - 1] = value
        return IncrementalTriangle(self.dimension, arr)


@dataclass(frozen=True)
class CumulativeTriangle(Triangle):
    """Cumulative claims C_{i,j} = sum of X_{i,1..j} on the observed region."""

    dimension: int
    values: np.ndarray


def cumulate_values(values: np.ndarray) -> np.ndarray:
    """Row partial sums of (..., I, I) incremental values over any leading
    batch axes, NaN where the increments are NaN."""
    missing = np.isnan(values)
    return np.where(missing, np.nan, np.cumsum(np.where(missing, 0.0, values), axis=-1))


def cumulate(inc: IncrementalTriangle) -> CumulativeTriangle:
    """Row partial sums of the incremental triangle."""
    return CumulativeTriangle(inc.dimension, cumulate_values(inc.values))


def decumulate(cum: CumulativeTriangle) -> IncrementalTriangle:
    """Inverse of cumulate. Rejects rows that decrease."""
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
    return IncrementalTriangle(dim, arr)


def validate(inc: IncrementalTriangle) -> list:
    """Diagnostics for an incremental triangle; empty list means valid.

    Checks: missing, non-finite and negative observed cells, populated
    future cells, and zero column partial sums on the cumulated triangle (these
    sums appear as denominators downstream).
    """
    dim = inc.dimension
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
                    problems.append(
                        f"zero column partial sum: column {j}, rows 1..{p}"
                    )
    return problems


def column_partial_sum(cum: CumulativeTriangle, j: int, p: int) -> float:
    """Sum of C_{q,j} over q = 1..p. Empty sums (p = 0) are 0."""
    dim = cum.dimension
    if not 1 <= j <= dim:
        raise IndexError(f"development year {j} out of range 1..{dim}")
    if not 0 <= p <= dim - j + 1:
        raise IndexError(f"row bound {p} out of range 0..{dim - j + 1} for column {j}")
    if p == 0:
        return 0.0
    return float(np.sum(cum.values[:p, j - 1]))

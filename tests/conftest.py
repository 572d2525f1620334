import importlib.resources as ir

import numpy as np
import pytest

from runoff.chainladder import Fit
from runoff.cli import ingest
from runoff.triangle import IncrementalTriangle


def bundled_path() -> str:
    return str(ir.files("runoff") / "data" / "belgian.csv")


def random_triangle(rng: np.random.Generator, dim: int) -> IncrementalTriangle:
    """Strictly positive incremental triangle with decaying development columns."""
    base = rng.uniform(8e5, 1.6e6, size=dim)
    decay = rng.uniform(0.45, 0.75)
    rows = []
    for i in range(1, dim + 1):
        row = [
            base[i - 1] * decay ** (j - 1) * rng.uniform(0.7, 1.3)
            for j in range(1, dim - i + 2)
        ]
        rows.append(row)
    return IncrementalTriangle.from_rows(rows)


def build_corpus(count: int = 20, seed: int = 20240817) -> list:
    rng = np.random.default_rng(seed)
    dims = [4, 5, 6, 7, 8]
    return [random_triangle(rng, dims[n % len(dims)]) for n in range(count)]


def proportional_triangle() -> IncrementalTriangle:
    """Rows are exact scalar multiples of one pattern, so every development
    ratio is constant across accident years and all sigma estimates vanish."""
    base = [1000.0, 600.0, 300.0, 100.0, 50.0]
    scales = [1.0, 1.3, 0.8, 1.1, 0.95]
    rows = [[s * b for b in base[: len(base) - i]] for i, s in enumerate(scales)]
    return IncrementalTriangle.from_rows(rows)


@pytest.fixture(scope="session")
def belgian() -> IncrementalTriangle:
    return ingest(bundled_path())


@pytest.fixture(scope="session")
def random_corpus() -> list:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus() -> list:
    return build_corpus(count=5, seed=7)


@pytest.fixture
def fit_builds(monkeypatch):
    """The Fit.of_sums calls made while the test runs, one entry each;
    every Fit is built through it."""
    calls = []
    of_sums = Fit.of_sums.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return of_sums(cls, *args, **kwargs)

    monkeypatch.setattr(Fit, "of_sums", classmethod(counted))
    return calls

"""Seeded random run-off triangles for the benchmark.

Same distribution as the test suite's random triangles (strictly positive
increments, decaying development columns), kept here so that an edit to
the tests cannot shift the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

# Round 0 of every in-process run draws from this seed; the reference
# outputs under reference/ were recorded for those inputs.
REFERENCE_SEED = 0


def triangle_rows(seed: int, round_index: int, dim: int, slot: int = 0) -> list:
    """Ragged incremental rows, row i holding dim - i + 1 values.

    Each (seed, round, dim, slot) gets its own random stream, so the rows
    of one op do not depend on how many ops came before it. slot tells
    apart triangles of one size in one round.
    """
    key = [seed, round_index, dim] + ([slot] if slot else [])
    rng = np.random.default_rng(key)
    base = rng.uniform(8e5, 1.6e6, size=dim)
    decay = rng.uniform(0.45, 0.75)
    return [
        [base[i - 1] * decay ** (j - 1) * rng.uniform(0.7, 1.3) for j in range(1, dim - i + 2)]
        for i in range(1, dim + 1)
    ]


def round_seed(seed: int, round_index: int) -> int:
    """Round 0 replays the reference inputs; later rounds draw from seed."""
    return REFERENCE_SEED if round_index == 0 else seed

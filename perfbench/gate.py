"""Correctness gate: compare op outputs to the seed-commit reference.

Outputs are compared as numbers, never as bytes, at RTOL times the
largest |value| of the reference quantity (a triangle, a vector, a
scalar, or one column of numbers of a CLI output), because refactors
move the last digit. Invariants that need no reference are checked on
every op.
Every function returns a list of mismatch messages; empty means pass.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_HEX_COLOUR = re.compile(r"#[0-9a-fA-F]{6}")
# `verify` text lines whose numbers come from finite differences; a
# better differencing scheme may move them, so they are not compared.
_FD_LINES = ("max relative error:", "worst cell:")


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def observed_rows(values: np.ndarray) -> list:
    """Ragged observed region of an (I, I) triangle array, as lists."""
    dim = values.shape[0]
    return [[float(v) for v in values[i, : dim - i]] for i in range(dim)]


def _flat(value) -> np.ndarray:
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], list):
        return np.array([v for row in value for v in row], dtype=float)
    return np.atleast_1d(np.asarray(value, dtype=float))


def compare(label: str, got, want) -> list:
    """got vs want within RTOL * max|want|; ragged rows are flattened."""
    g, w = _flat(got), _flat(want)
    if g.shape != w.shape:
        return [f"{label}: {g.size} values, reference has {w.size}"]
    if not np.all(np.isfinite(g)):
        return [f"{label}: non-finite value"]
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    err = float(np.max(np.abs(g - w))) if w.size else 0.0
    if err > RTOL * max(scale, 1e-300):
        return [f"{label}: max abs error {err:.3e} exceeds {RTOL:g} x {scale:.3e}"]
    return []


# --- api-report -----------------------------------------------------------

REPORT_KEYS = (
    "factors",
    "sigmas",
    "reserves",
    "reserve_total",
    "mse_total",
    "reserve_total_if",
    "bf_total_if",
    "mse_total_if",
    "quantile_if",
)


def report_summary(report: dict) -> dict:
    """JSON-ready form of one sensitivity report."""
    out = {}
    for key in REPORT_KEYS:
        value = report[key]
        if isinstance(value, np.ndarray) and value.ndim == 2:
            out[key] = observed_rows(value)
        elif isinstance(value, np.ndarray):
            out[key] = [float(v) for v in value]
        else:
            out[key] = float(value)
    return out


def check_report(report: dict, increments: np.ndarray, reference: dict | None) -> list:
    """Euler identity on every report; the reference where one exists."""
    problems = []
    impacts = report["reserve_total_if"]
    allocated = float(np.nansum(impacts * increments))
    total = float(report["reserve_total"])
    if not abs(allocated - total) <= RTOL * abs(total):
        problems.append(f"Euler identity: sum(IF*X) = {allocated!r}, reserve total {total!r}")
    if reference is not None:
        got = report_summary(report)
        for key in REPORT_KEYS:
            problems += compare(key, got[key], reference[key])
    return problems


# --- oracle-verify --------------------------------------------------------


def verdict_summary(report) -> dict:
    """Verdict plus the analytic side of each checked cell.

    The finite-difference side is left out: a better differencing scheme
    is expected to move it, while the analytic impacts must stay fixed.
    """
    return {
        "passed": bool(report.passed),
        "max_rel_error": float(report.max_rel_error),
        "cells": [[c["k"], c["j"]] for c in report.cells],
        "analytic": [c["analytic"] for c in report.cells],
    }


def check_verdict(report, dim: int, reference: dict | None) -> list:
    """Every observed cell is checked once per triangle the kind compares."""
    got = verdict_summary(report)
    n_obs = dim * (dim + 1) // 2
    problems = []
    if not got["cells"] or len(got["cells"]) % n_obs:
        problems.append(f"{len(got['cells'])} cells checked, not a multiple of {n_obs}")
    if reference is not None:
        if got["cells"] != reference["cells"]:
            problems.append("checked cells differ from the reference")
        else:
            problems += compare("analytic", got["analytic"], reference["analytic"])
    elif not np.all(np.isfinite(got["analytic"])):
        problems.append("non-finite analytic impact")
    return problems


# --- cli-bundled ----------------------------------------------------------


def cli_numbers(text: str) -> list:
    """(quantity, start, end, value) of every compared number of a CLI output.

    A quantity is one column of numbers: the numbers at the same position
    of lines that read the same once their numbers are masked. That is a
    CSV column, a JSON key, or one attribute of the SVG cells, so each
    impact triangle is compared against its own largest |value|, not
    against a larger figure printed beside it. Colours and the
    finite-difference lines of `verify` are skipped; start and end are
    offsets into text.
    """
    found, offset = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith(_FD_LINES):
            masked = _HEX_COLOUR.sub(lambda m: " " * len(m.group()), line)
            matches = list(_NUMBER.finditer(masked))
            template = _NUMBER.sub("{}", masked).rstrip("\n")
            for pos, m in enumerate(matches):
                found.append((f"{pos}:{template}", offset + m.start(), offset + m.end(),
                              float(m.group())))
        offset += len(line)
    return found


def cli_quantities(text: str) -> dict:
    """The numbers of a CLI output, grouped by quantity (see cli_numbers)."""
    out = {}
    for quantity, _, _, value in cli_numbers(text):
        out.setdefault(quantity, []).append(value)
    return out


def check_cli(returncode: int, text: str, reference: dict) -> list:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    for marker in reference.get("markers", []):
        if marker not in text:
            problems.append(f"missing {marker!r}")
    got, want = cli_quantities(text), reference["quantities"]
    if got.keys() != want.keys():
        problems.append(f"output lines differ from the reference: {sorted(got.keys() ^ want.keys())[:3]}")
        return problems
    for quantity, values in want.items():
        problems += compare(quantity, got[quantity], values)
    return problems

"""Command line interface: triangle ingestion, statistic selection,
impact computation, verification, and report emission. Each command
returns its whole document and exit code; main writes the document once,
to stdout or --out, so a command that exits 1 or 2 writes no document.

Exit codes: 0 success, 1 usage error, 2 data validation failure (a
statistic, or a verifier's complex step, that overflows double precision
among them), 3 verification failure.

main is the in-process API; run is the one process entry (the `runoff`
console script and `python -m runoff.cli`). It ends the process without
the interpreter's teardown collection, and where stdout is closed before
the document is written (`runoff verify ... | head -1`), it prints
nothing more and exits with the command's code (see run).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import _baseline
from runoff.impact import (ORDER_ONE_STATISTICS, ImpactTriangle, _check_mse, _impact, impact_rmse,
                           marginal_contributions)
from runoff.oracle import _STATISTICS, TOLERANCE, _per_year, _verify
from runoff.triangle import IncrementalTriangle, _cells, _from_cells, _observed, _records, validate

STATISTICS = tuple(_STATISTICS)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose failures map onto exit code 1 instead of 2."""

    def error(self, message):
        raise UsageError(message)


def _lines(path: str, what: str) -> list:
    """The non-blank lines of the file at path, stripped, as (line number,
    text) pairs; a file that cannot be read, or is not UTF-8, is bad data, named what."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [(n, ln.strip()) for n, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc


def ingest(path: str) -> IncrementalTriangle:
    """Parse the triangle file: `I=<n>` header, then n ragged rows of
    incremental values, row i holding n-i+1 comma-separated numbers, read
    row by row, token by token, as float() reads it, and written onto the
    observed cells of the triangle it builds in place (_from_cells). The
    first row in file order that holds a wrong count of values, or a token
    float() refuses (by column), is refused, and no later row is read."""
    lines = [ln for _, ln in _lines(path, path)]
    if not lines:
        raise DataError(f"{path}: empty input file")
    head = lines[0]
    if not head.startswith("I="):
        raise DataError(f"{path}: first line must be I=<dimension>, got {head!r}")
    try:
        dim = int(head[2:])
    except ValueError as exc:
        raise DataError(f"{path}: bad dimension {head[2:]!r}") from exc
    if dim < 2:
        raise DataError(f"{path}: dimension must be at least 2, got {dim}")
    if len(lines) - 1 != dim:
        raise DataError(
            f"{path}: expected {dim} data rows after the header, got {len(lines) - 1}"
        )
    numbers = []
    for i, row in enumerate(lines[1:], start=1):
        tokens = row.split(",")
        if len(tokens) != dim - i + 1:
            raise DataError(f"{path}: row {i}: expected {dim - i + 1} values, got {len(tokens)}")
        read = iter(tokens)
        try:
            numbers += map(float, read)
        except ValueError:
            j = len(tokens) - len(list(read))  # map stops at the token float() refused
            raise DataError(f"{path}: row {i}, column {j}: not a number: {tokens[j - 1].strip()!r}") from None
    inc = _from_cells(numbers, dim)
    problems = validate(inc)
    if problems:
        raise DataError(f"{path}: " + "; ".join(problems))
    return inc


def load_priors(source: str, cum, factors) -> PriorUltimates:
    """Priors either recomputed from the chain ladder ('cl') or read from
    a CSV of i,mu lines, one per accident year at most."""
    if source == "cl":
        return default_priors(cum, factors)
    values, given = np.empty(cum.dimension), {}  # given: year -> its line
    values.fill(np.nan)
    for n, ln in _lines(source, f"priors {source}"):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 2:
            raise DataError(f"{source}: bad priors line {ln!r}")
        try:
            i = int(parts[0])
            mu = float(parts[1])
        except ValueError as exc:
            raise DataError(f"{source}: bad priors line {ln!r}") from exc
        if not 1 <= i <= cum.dimension:
            raise DataError(f"{source}: accident year {i} out of range")
        if i in given:
            raise DataError(f"{source}: line {n}: accident year {i} given twice, first on line {given[i]}")
        given[i] = n
        values[i - 1] = mu
    return PriorUltimates(cum.dimension, values)


def compute(stat: str, inc: IncrementalTriangle, year, q: float, priors_src: str):
    """Selected statistic's impact triangle and scalar value over inc's
    baseline fit, from its entry of the oracle's _STATISTICS, and the prior
    values a BF statistic loads (None for the others): read once per stream.
    A Mack statistic whose MSE is not finite, so overflows, raises OverflowError."""
    entry = _STATISTICS[stat]
    cum, factors, fit = _baseline(inc, entry.sigmas)
    if entry.sigmas and not math.isfinite(_STATISTICS["mse-total"].value(fit, year, None, q)):
        raise OverflowError(f"the MSE of --stat {stat} is not finite")
    mu = load_priors(priors_src, cum, factors).values if entry.priors else None
    impacts = _impact(entry.root or stat, year, entry.grad(fit, year, mu, q))
    value = float(entry.value(fit, year, mu, q))
    if entry.root:
        _check_mse(f"{stat} impact", value, not np.logical_or.reduce(fit.sigma2))
        return impact_rmse(value, impacts), math.sqrt(value), None
    return impacts, value, mu


def _columns(impacts: ImpactTriangle) -> tuple:
    """k, j and the value of the observed cells, as lists in row-major
    order, the cell layout of runoff.triangle."""
    k, j = _cells(impacts.dimension)
    return k.tolist(), j.tolist(), _observed(impacts.values).tolist()


def _field(value) -> str:
    """A CSV field: a number to 10 significant digits, None empty, text as is."""
    return "" if value is None else value if isinstance(value, str) else f"{value:.10g}"


def _csv(header: tuple, columns, last: tuple = ()) -> str:
    """The header line, one line per row of the columns, then the row last
    if given. A column that holds None is first written field by field by
    _field; then each row is written by one format, an int or text column's
    fields as they are and a float column's as _field writes a number."""
    columns = [list(map(_field, column)) if None in column else column for column in columns]
    row = ",".join("{}" if isinstance(c[0], (int, str)) else "{:.10g}" for c in columns)
    lines = [",".join(header), *map(row.format, *columns)]
    if last:
        lines.append(",".join(map(_field, last)))
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    """Every JSON document of the CLI: indented by 2, one trailing newline.
    json is imported here, so a command that writes no JSON never loads it."""
    import json

    return json.dumps(doc, indent=2) + "\n"


def render_csv(impacts: ImpactTriangle) -> str:
    return _csv(("k", "j", "value"), _columns(impacts))


def render_json(impacts: ImpactTriangle, value: float) -> str:
    doc = {
        "statistic": impacts.statistic,
        "target": impacts.target,
        "I": impacts.dimension,
        "cells": _records(("k", "j", "value"), _columns(impacts)),
        "summary": {"value_of_statistic": value},
    }
    return _json(doc)


def _diverging_color(value: float, scale: float):
    """White at 0, #2166ac at the negative extreme, #b2182b at the positive."""
    if scale <= 0.0:
        return "#ffffff", "#000000"
    t = min(abs(value) / scale, 1.0)
    target = (33, 102, 172) if value < 0.0 else (178, 24, 43)
    r, g, b = (round(255 + (c - 255) * t) for c in target)
    text = "#ffffff" if t > 0.6 else "#000000"
    return f"#{r:02x}{g:02x}{b:02x}", text


def _label(v: float) -> str:
    """v to 4 decimals, or in e-notation to 5 significant digits where 4
    decimals print more than the 17 significant digits of a double
    (|v| >= 1e13)."""
    text = f"{v:.4f}"
    return text if len(text.lstrip("-")) <= 18 else f"{v:.4e}"


def render_svg(impacts: ImpactTriangle) -> str:
    """Standalone heatmap of the observed cells: diverging scale symmetric
    about zero, min/max legend, every label to 4 decimals unless that
    prints more than a double's 17 significant digits (see _label). Output
    bytes depend only on the impact values."""
    dim = impacts.dimension
    cell_w, cell_h, margin = 66, 26, 40
    width = margin + dim * cell_w + 20
    height = margin + dim * cell_h + 58
    ks, js, vals = _columns(impacts)
    lo, hi = min(vals), max(vals)
    scale = max(abs(lo), abs(hi))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{margin}" y="16">impact of {impacts.statistic}'
        + (f" (year {impacts.target})" if impacts.target is not None else "")
        + "</text>",
    ]
    for j in range(1, dim + 1):
        x = margin + (j - 1) * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{margin - 6}" text-anchor="middle">{j}</text>')
    for k, j, v in zip(ks, js, vals):
        yy = margin + (k - 1) * cell_h
        if j == 1:  # row k starts with its label
            parts.append(
                f'<text x="{margin - 8}" y="{yy + cell_h // 2 + 4}" text-anchor="end">{k}</text>'
            )
        fill, text = _diverging_color(v, scale)
        x = margin + (j - 1) * cell_w
        parts.append(
            f'<rect x="{x}" y="{yy}" width="{cell_w}" height="{cell_h}" '
            f'fill="{fill}" stroke="#cccccc"/>'
        )
        parts.append(
            f'<text x="{x + cell_w // 2}" y="{yy + cell_h // 2 + 4}" '
            f'text-anchor="middle" fill="{text}">{_label(v)}</text>'
        )
    ly = margin + dim * cell_h + 30
    neg, _ = _diverging_color(-scale, scale)
    pos, _ = _diverging_color(scale, scale)
    parts.append(
        f'<rect x="{margin}" y="{ly - 12}" width="16" height="16" fill="{neg}" '
        'stroke="#cccccc"/>'
    )
    parts.append(f'<text x="{margin + 22}" y="{ly}">min {_label(lo)}</text>')
    parts.append(
        f'<rect x="{margin + 140}" y="{ly - 12}" width="16" height="16" '
        f'fill="{pos}" stroke="#cccccc"/>'
    )
    parts.append(f'<text x="{margin + 162}" y="{ly}">max {_label(hi)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(text: str, out: str | None):
    """text to stdout, flushed, so a closed stdout raises here, or to the
    file out."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _check_flags(args, dim: int):
    """Refuse a --year, --q or --priors that --stat does not read (its entry
    of _STATISTICS, and _per_year), a missing or out-of-range --year and a
    --q outside (0, 1); then default --q to 0.995 and --priors to cl."""
    stat, year, q, entry = args.stat, args.year, args.q, _STATISTICS[args.stat]
    for flag, given, reads in (("--year", year, _per_year(stat)), ("--q", q, entry.quantile),
                               ("--priors", args.priors, entry.priors)):
        if given is not None and not reads:
            raise UsageError(f"--stat {stat} does not take {flag}")
    if _per_year(stat) and year is None:
        raise UsageError(f"--stat {stat} requires --year")
    if year is not None and not 1 <= year <= dim:
        raise UsageError(f"--year {year} out of range 1..{dim}")
    if q is not None and not 0.0 < q < 1.0:
        raise UsageError(f"--q must be in (0, 1), got {q}")
    args.q, args.priors = 0.995 if q is None else q, "cl" if args.priors is None else args.priors


def build_parser() -> _Parser:
    # The module docstring's first two paragraphs, for users: what and exit
    # codes (None under python -OO, as the docstring is).
    parser = _Parser(prog="runoff", description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, with_stat=True):
        p.set_defaults(handler=handler)
        p.add_argument("input", help="triangle file (I=<n> header, ragged rows)")
        if with_stat:
            p.add_argument("--stat", choices=tuple(_STATISTICS), default="reserve-total")
            p.add_argument("--year", type=int, default=None)
            # None where not given, so that one given to a statistic that does not read it is refused
            p.add_argument("--q", type=float)
            p.add_argument("--priors", help="priors file or 'cl'")
        p.add_argument("--out", default=None)

    p = sub.add_parser("reserves", help="reserve summary per accident year")
    common(p, cmd_reserves, with_stat=False)
    p.add_argument("--priors", default="cl", help="priors file or 'cl'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("impact", help="per-cell impact triangle of a statistic")
    common(p, cmd_impact)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("marginal", help="cellwise impact times increment")
    common(p, cmd_impact)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("verify", help="complex-step check of the impacts")
    common(p, cmd_verify)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tolerance", type=float, default=TOLERANCE)

    p = sub.add_parser("heatmap", help="SVG heatmap of an impact triangle")
    common(p, cmd_impact)
    p.set_defaults(format="svg")  # impact --format svg under its own name
    return parser


def _computed(args) -> tuple:
    """The ingested triangle and compute's impacts, value and prior values
    for it, once --year, --q and --priors suit the statistic (_check_flags);
    a statistic, its MSE or an impact that overflows double precision is
    refused as bad data."""
    inc = ingest(args.input)
    _check_flags(args, inc.dimension)
    try:
        impacts, value, mu = compute(args.stat, inc, args.year, args.q, args.priors)
        finite = math.isfinite(value) and np.logical_and.reduce(np.isfinite(_observed(impacts.values)))
    except OverflowError:  # float arithmetic, such as the quantile's R^2, or compute's MSE check
        finite = False
    if not finite:
        raise DataError(f"{args.input}: --stat {args.stat} overflows double precision")
    return inc, impacts, value, mu


def cmd_reserves(args) -> tuple:
    inc = ingest(args.input)
    try:
        cum, factors, fit = _baseline(inc, sigmas=True)
    except (ValueError, ZeroDivisionError) as exc:  # too few accident years, or a zero C_{i,k} in sigma^2
        print(f"note: rmse column left empty: {exc}", file=sys.stderr)
        cum, factors, fit = _baseline(inc)
    total = float(fit.reserve_total)
    if not math.isfinite(total):  # nor is it where an ultimate is not finite
        raise DataError(f"{args.input}: the chain-ladder reserves overflow double precision")
    bf_by_year, bf_tot = bf_reserves(cum, factors, load_priors(args.priors, cum, factors))
    dim = inc.dimension
    keys = ("i", "latest", "ultimate", "reserve", "rmse", "bf_reserve")
    mse = [math.nan] * (dim + 1) if fit.sigma2 is None else [*fit.mse_by_year, fit.mse_total]
    *rmse, total_rmse = (math.sqrt(m) if math.isfinite(m) else None for m in mse)
    if fit.sigma2 is not None and None in (*rmse, total_rmse):
        print("note: rmse left empty where the MSE overflows double precision", file=sys.stderr)
    columns = (np.arange(1, dim + 1), fit.latest, fit.ult, fit.reserves, np.array(rmse), bf_by_year)
    columns = [c.tolist() for c in columns]
    summary = {"reserve_total": total, "rmse_total": total_rmse, "bf_total": bf_tot}
    if args.format == "json":
        return _json({"statistic": "reserves", "I": dim, "years": _records(keys, columns), "summary": summary}), 0
    return _csv(keys, columns, ("total", None, None, *summary.values())), 0


def cmd_impact(args) -> tuple:
    """impact, marginal (the impacts times the increments) and heatmap."""
    inc, impacts, value, _ = _computed(args)
    if args.command == "marginal":
        expected = value if impacts.statistic in ORDER_ONE_STATISTICS else None
        impacts = marginal_contributions(impacts, inc, expected)
    if args.format == "json":
        return render_json(impacts, value), 0
    return (render_csv if args.format == "csv" else render_svg)(impacts), 0


def cmd_verify(args) -> tuple:
    """Checks what impact computes, so refuses what impact refuses."""
    if not args.tolerance >= 0.0:
        raise UsageError(f"--tolerance must be a number >= 0, got {args.tolerance}")
    inc, _, _, mu = _computed(args)
    report = _verify(inc, args.stat, args.year, mu, args.q, args.tolerance)
    code = 0 if report.passed else 3
    if args.format == "json":
        return _json(report.to_dict()), code
    lines = [
        f"statistic: {report.statistic}",
        f"cells checked: {report.size}",
        f"max relative error: {report.max_rel_error:.3e}",
        f"worst cell: {report.worst_cell}",
        f"tolerance: {report.tolerance:.1e}",
        *(f"{key}: {val:.3e}" for key, val in report.notes.items()),
        "result: PASS" if report.passed else "result: FAIL",
    ]
    return "\n".join(lines) + "\n", code


def main(argv=None) -> int:
    """Run one command in this process and return its exit code. Where
    stdout's reader is gone, the BrokenPipeError of the write is raised
    with the command's exit code as its exit_code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused or left empty
            text, code = args.handler(args)
        try:
            _write(text, args.out)
        except BrokenPipeError as exc:
            exc.exit_code = code
            raise
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry: main on sys.argv, then exit with its code.

    Every object alive when main ends, argparse's exits included, is moved
    to the collector's permanent generation (gc.freeze), so the
    collections of the interpreter's finalization find no tracked object
    to traverse, and what those objects hold is left to the operating
    system: after `runoff reserves`, numpy's and runoff's 231 modules
    hold about 22,400 of them, and skipping them saves about a tenth of
    the command's wall time (README "Cost"). atexit handlers, what is
    written to stdout and stderr, and the exit codes are as they were.
    The one change: __del__ of an object still in a reference cycle at
    exit no longer runs, which CPython never guaranteed; --out is written
    and closed inside a with block.

    Where stdout's reader has closed, os.devnull takes stdout's
    descriptor, as Python's documentation advises for SIGPIPE, so nothing
    more is printed, and the process exits with the command's code. That
    holds for argparse's exit after --help too: its text, which may still
    sit in stdout's buffer, is flushed here, and the exit code is
    argparse's.
    """
    try:
        code = main()
    except SystemExit as exc:  # --help
        code = exc.code
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _to_devnull()
    except BrokenPipeError as exc:
        if not hasattr(exc, "exit_code"):  # not main's write to stdout
            raise
        _to_devnull()
        code = exc.exit_code
    finally:
        gc.freeze()
    sys.exit(code)


def _to_devnull():
    """Point stdout's descriptor at os.devnull: its reader has closed."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    run()

"""Command line interface: triangle ingestion, statistic selection,
impact computation, verification, and report emission.

Exit codes: 0 success, 1 usage error, 2 data validation failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from runoff.bornhuetter import PriorUltimates, bf_reserves, default_priors
from runoff.chainladder import (
    _fit,
    estimate_development_factors,
    estimate_sigmas,
    mse_accident_year,
    mse_total,
    reserves,
)
from runoff.impact import (
    ORDER_ONE_STATISTICS,
    ImpactTriangle,
    _check_mse,
    impact_bf_ay,
    impact_bf_total,
    impact_mse_ay,
    impact_mse_total,
    impact_reserve_ay,
    impact_reserve_total,
    impact_rmse,
    marginal_contributions,
)
from runoff.oracle import (
    RESERVE_STATISTICS,
    verify_mse_components,
    verify_quantile_impacts,
    verify_reserve_impacts,
)
from runoff.quantile import _impact_quantile, fit_lognormal, lognormal_quantile
from runoff.triangle import IncrementalTriangle, cumulate, validate

STATISTICS = (
    "reserve-ay",
    "reserve-total",
    "bf-ay",
    "bf-total",
    "mse-ay",
    "mse-total",
    "rmse-ay",
    "rmse-total",
    "quantile",
)
PER_YEAR = frozenset(s for s in STATISTICS if s.endswith("-ay"))


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose failures map onto exit code 1 instead of 2."""

    def error(self, message):
        raise UsageError(message)


def ingest(path: str) -> IncrementalTriangle:
    """Parse the triangle file: `I=<n>` header, then n ragged rows of
    incremental values, row i holding n-i+1 comma-separated numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
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
    rows = []
    for i in range(1, dim + 1):
        tokens = [t.strip() for t in lines[i].split(",")]
        want = dim - i + 1
        if len(tokens) != want:
            raise DataError(
                f"{path}: row {i}: expected {want} values, got {len(tokens)}"
            )
        row = []
        for j, tok in enumerate(tokens, start=1):
            try:
                row.append(float(tok))
            except ValueError as exc:
                raise DataError(
                    f"{path}: row {i}, column {j}: not a number: {tok!r}"
                ) from exc
        rows.append(row)
    inc = IncrementalTriangle.from_rows(rows)
    problems = validate(inc)
    if problems:
        raise DataError(f"{path}: " + "; ".join(problems))
    return inc


def load_priors(source: str, cum, factors) -> PriorUltimates:
    """Priors either recomputed from the chain ladder ('cl') or read from
    a CSV of i,mu lines."""
    if source == "cl":
        return default_priors(cum, factors)
    try:
        with open(source, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read priors {source}: {exc}") from exc
    values = np.full(cum.dimension, np.nan)
    for ln in lines:
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
        values[i - 1] = mu
    return PriorUltimates(cum.dimension, values)


def compute(stat: str, inc: IncrementalTriangle, year, q: float, priors_src: str):
    """Selected statistic's impact triangle and scalar value."""
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    if stat == "reserve-ay":
        value = reserves(cum, factors)[0][year - 1]
        return impact_reserve_ay(cum, factors, year), value
    if stat == "reserve-total":
        value = reserves(cum, factors)[1]
        return impact_reserve_total(cum, factors), value
    if stat in ("bf-ay", "bf-total"):
        priors = load_priors(priors_src, cum, factors)
        by_year, total = bf_reserves(cum, factors, priors)
        if stat == "bf-ay":
            return impact_bf_ay(cum, factors, priors, year), by_year[year - 1]
        return impact_bf_total(cum, factors, priors), total
    sigmas = estimate_sigmas(cum, factors)
    if stat in ("mse-ay", "rmse-ay"):
        impacts = impact_mse_ay(cum, factors, sigmas, year)
        m = mse_accident_year(cum, factors, sigmas, year)
    elif stat in ("mse-total", "rmse-total"):
        impacts = impact_mse_total(cum, factors, sigmas)
        m = mse_total(cum, factors, sigmas)
    if stat in ("mse-ay", "mse-total"):
        return impacts, m
    if stat in ("rmse-ay", "rmse-total"):
        _check_mse(f"{stat} impact", m, sigmas.values)
        return impact_rmse(m, impacts), math.sqrt(m)
    if stat == "quantile":
        fit = _fit(cum, factors, sigmas)
        impacts = _impact_quantile(fit, q)
        matched = fit_lognormal(float(np.sum(fit.reserves)), float(fit.mse_total))
        return impacts, lognormal_quantile(matched, q)
    raise UsageError(f"unknown statistic {stat!r}")


def render_csv(impacts: ImpactTriangle) -> str:
    lines = ["k,j,value"]
    for k, j in impacts.observed_cells():
        lines.append(f"{k},{j},{impacts.cell(k, j):.10g}")
    return "\n".join(lines) + "\n"


def render_json(impacts: ImpactTriangle, value: float) -> str:
    doc = {
        "statistic": impacts.statistic,
        "target": impacts.target,
        "I": impacts.dimension,
        "cells": [
            {"k": k, "j": j, "value": impacts.cell(k, j)}
            for k, j in impacts.observed_cells()
        ],
        "summary": {"value_of_statistic": value},
    }
    return json.dumps(doc, indent=2) + "\n"


def _diverging_color(value: float, scale: float):
    """White at 0, #2166ac at the negative extreme, #b2182b at the positive."""
    if scale <= 0.0:
        return "#ffffff", "#000000"
    t = min(abs(value) / scale, 1.0)
    target = (33, 102, 172) if value < 0.0 else (178, 24, 43)
    r, g, b = (round(255 + (c - 255) * t) for c in target)
    text = "#ffffff" if t > 0.6 else "#000000"
    return f"#{r:02x}{g:02x}{b:02x}", text


def render_svg(impacts: ImpactTriangle) -> str:
    """Standalone heatmap of the observed cells: diverging scale symmetric
    about zero, 4-dp labels, min/max legend. Output bytes depend only on
    the impact values."""
    dim = impacts.dimension
    cell_w, cell_h, margin = 66, 26, 40
    width = margin + dim * cell_w + 20
    height = margin + dim * cell_h + 58
    vals = [impacts.cell(k, j) for k, j in impacts.observed_cells()]
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
    for k in range(1, dim + 1):
        y = margin + (k - 1) * cell_h + cell_h // 2 + 4
        parts.append(f'<text x="{margin - 8}" y="{y}" text-anchor="end">{k}</text>')
        for j in range(1, dim - k + 2):
            v = impacts.cell(k, j)
            fill, text = _diverging_color(v, scale)
            x = margin + (j - 1) * cell_w
            yy = margin + (k - 1) * cell_h
            parts.append(
                f'<rect x="{x}" y="{yy}" width="{cell_w}" height="{cell_h}" '
                f'fill="{fill}" stroke="#cccccc"/>'
            )
            parts.append(
                f'<text x="{x + cell_w // 2}" y="{yy + cell_h // 2 + 4}" '
                f'text-anchor="middle" fill="{text}">{v:.4f}</text>'
            )
    ly = margin + dim * cell_h + 30
    neg, _ = _diverging_color(-scale, scale)
    pos, _ = _diverging_color(scale, scale)
    parts.append(
        f'<rect x="{margin}" y="{ly - 12}" width="16" height="16" fill="{neg}" '
        'stroke="#cccccc"/>'
    )
    parts.append(f'<text x="{margin + 22}" y="{ly}">min {lo:.4f}</text>')
    parts.append(
        f'<rect x="{margin + 140}" y="{ly - 12}" width="16" height="16" '
        f'fill="{pos}" stroke="#cccccc"/>'
    )
    parts.append(f'<text x="{margin + 162}" y="{ly}">max {hi:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _emit(impacts: ImpactTriangle, value: float, fmt: str, out: str | None):
    if fmt == "csv":
        _write(render_csv(impacts), out)
    elif fmt == "json":
        _write(render_json(impacts, value), out)
    else:
        _write(render_svg(impacts), out)


def _check_target(stat: str, year, inc_dim: int):
    if stat in PER_YEAR:
        if year is None:
            raise UsageError(f"--stat {stat} requires --year")
        if not 1 <= year <= inc_dim:
            raise UsageError(f"--year {year} out of range 1..{inc_dim}")
    elif year is not None:
        raise UsageError(f"--stat {stat} does not take --year")


def build_parser() -> _Parser:
    parser = _Parser(prog="runoff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_stat=True):
        p.add_argument("input", help="triangle file (I=<n> header, ragged rows)")
        if with_stat:
            p.add_argument("--stat", choices=STATISTICS, default="reserve-total")
            p.add_argument("--year", type=int, default=None)
            p.add_argument("--q", type=float, default=0.995)
            p.add_argument("--priors", default="cl", help="priors file or 'cl'")
        p.add_argument("--out", default=None)

    p = sub.add_parser("reserves", help="reserve summary per accident year")
    common(p, with_stat=False)
    p.add_argument("--priors", default="cl", help="priors file or 'cl'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("impact", help="per-cell impact triangle of a statistic")
    common(p)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("marginal", help="cellwise impact times increment")
    common(p)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("verify", help="complex-step check of the impacts")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tolerance", type=float, default=1e-5)

    p = sub.add_parser("heatmap", help="SVG heatmap of an impact triangle")
    common(p)
    p.set_defaults(format="svg")  # impact --format svg under its own name
    return parser


def _blank_none(value) -> str:
    """A CSV field: the value to 10 significant digits, empty for None."""
    return "" if value is None else f"{value:.10g}"


def _checked_input(args) -> IncrementalTriangle:
    """The ingested triangle, once --year and --q suit the statistic."""
    inc = ingest(args.input)
    _check_target(args.stat, args.year, inc.dimension)
    if not 0.0 < args.q < 1.0:
        raise UsageError(f"--q must be in (0, 1), got {args.q}")
    return inc


def cmd_reserves(args) -> int:
    inc = ingest(args.input)
    cum = cumulate(inc)
    factors = estimate_development_factors(cum)
    try:
        sigmas = estimate_sigmas(cum, factors)
    except ValueError as exc:  # too few accident years for a variance scale
        sigmas = None
        print(f"note: rmse column left empty: {exc}", file=sys.stderr)
    fit = _fit(cum, factors, sigmas)
    priors = load_priors(args.priors, cum, factors)
    bf_by_year, bf_tot = bf_reserves(cum, factors, priors)
    rmse = None if sigmas is None else np.sqrt(fit.mse_by_year)
    dim = inc.dimension
    rows = []
    for i in range(1, dim + 1):
        rows.append(
            {
                "i": i,
                "latest": float(fit.latest[i - 1]),
                "ultimate": float(fit.ult[i - 1]),
                "reserve": float(fit.reserves[i - 1]),
                "rmse": None if rmse is None else float(rmse[i - 1]),
                "bf_reserve": bf_by_year[i - 1],
            }
        )
    total = float(np.sum(fit.reserves))
    total_rmse = None if sigmas is None else math.sqrt(fit.mse_total)
    if args.format == "json":
        doc = {
            "statistic": "reserves",
            "I": dim,
            "years": rows,
            "summary": {
                "reserve_total": total,
                "rmse_total": total_rmse,
                "bf_total": bf_tot,
            },
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["i,latest,ultimate,reserve,rmse,bf_reserve"]
        for r in rows:
            lines.append(
                f"{r['i']},{r['latest']:.10g},{r['ultimate']:.10g},"
                f"{r['reserve']:.10g},{_blank_none(r['rmse'])},{r['bf_reserve']:.10g}"
            )
        lines.append(f"total,,,{total:.10g},{_blank_none(total_rmse)},{bf_tot:.10g}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_impact(args) -> int:
    """impact, marginal (the impacts times the increments) and heatmap."""
    inc = _checked_input(args)
    impacts, value = compute(args.stat, inc, args.year, args.q, args.priors)
    if args.command == "marginal":
        expected = value if impacts.statistic in ORDER_ONE_STATISTICS else None
        impacts = marginal_contributions(impacts, inc, expected)
    _emit(impacts, value, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    """Checks what impact computes, so refuses what impact refuses."""
    inc = _checked_input(args)
    compute(args.stat, inc, args.year, args.q, args.priors)
    if args.stat in RESERVE_STATISTICS:
        cum = cumulate(inc)
        bf = args.stat.startswith("bf")
        priors = load_priors(args.priors, cum, estimate_development_factors(cum)) if bf else None
        report = verify_reserve_impacts(inc, args.stat, args.year, priors, args.tolerance)
    elif args.stat == "quantile":
        report = verify_quantile_impacts(inc, args.q, args.tolerance)
    else:
        report = verify_mse_components(inc, args.tolerance, args.year)
    if args.format == "json":
        _write(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    else:
        lines = [
            f"statistic: {report.statistic}",
            f"cells checked: {report.k.size}",
            f"max relative error: {report.max_rel_error:.3e}",
            f"worst cell: {report.worst_cell}",
            f"tolerance: {report.tolerance:.1e}",
        ]
        for key, val in report.notes.items():
            lines.append(f"{key}: {val:.3e}")
        lines.append("result: PASS" if report.passed else "result: FAIL")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "reserves": cmd_reserves,
            "impact": cmd_impact,
            "marginal": cmd_impact,
            "verify": cmd_verify,
            "heatmap": cmd_impact,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

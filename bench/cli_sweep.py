"""Run the same runoff CLI commands on two source trees and report every
output that differs.

    python bench/cli_sweep.py --src OTHER/src src

Both trees are loaded in one process, each runoff package in its own set
of sys.modules entries (bench/layers.py's load and use), and every
command goes through each tree's cli.main in turn, its stdout and stderr
captured. The triangles are the bundled file, bench/layers.py's
random_rows at I = 12, 40 and 100, an all-proportional I = 6 (every
sigma^2 exactly 0), and the I = 3 triangle of tests/test_cli.py, too
small for a variance scale: `reserves` leaves its RMSE column empty
there, and the Mack statistics are refused. At I = 100 the reports of
`verify --stat mse-total` and `rmse-total` hold 505k cells, and their
JSON is about 69 MB per tree. On each triangle the commands are
`reserves` (csv, json); for every --stat, at years 1, 2, 5 and 10 for
the per-year ones (a year past I is a usage error, and is compared too),
`impact` and `marginal` in csv, json and svg, `heatmap`, and `verify` in
text and json and with --tolerance 1e-14; `impact` and `verify` of the
quantile at --q 0.5; and five usage errors. Each (exit code, stdout,
stderr) that differs is printed, and the exit code is 1 on any
difference, else 0. The triangle files go to a temporary directory
outside the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

from layers import load, packaged, random_rows, use

YEARS = (1, 2, 5, 10)
USAGE_ERRORS = (
    ["impact", "--stat", "reserve-ay"],
    ["impact", "--stat", "reserve-total", "--year", "1"],
    ["impact", "--stat", "quantile", "--q", "1.5"],
    ["verify", "--tolerance", "-1"],
    ["heatmap", "--stat", "mse-ay", "--year", "0"],
)


def proportional_rows(dim: int = 6) -> list:
    """Rows that are power-of-two multiples of one integer pattern, so
    every column sum, factor and development ratio is exact and every
    sigma^2 is 0."""
    pattern = [1000.0, 600.0, 300.0, 100.0, 50.0, 20.0, 10.0, 5.0][:dim]
    return [[2.0 ** (i % 3 - 1) * x for x in pattern[: dim - i]] for i in range(dim)]


def write_triangle(path: Path, rows: list) -> str:
    """The rows in the CLI's input format, I=<n> then one row per line,
    each number as its repr, so the file holds the values bit for bit."""
    path.write_text("\n".join([f"I={len(rows)}", *(",".join(repr(float(x)) for x in row) for row in rows)]) + "\n")
    return str(path)


def commands(path: str, stats: tuple) -> list:
    """Every argv of the sweep on the triangle at path."""
    argvs = [["reserves", path, "--format", fmt] for fmt in ("csv", "json")]
    for stat in stats:
        for year in YEARS if stat.endswith("-ay") else (None,):
            target = ["--stat", stat] + ([] if year is None else ["--year", str(year)])
            for command in ("impact", "marginal"):
                argvs += [[command, path, *target, "--format", fmt] for fmt in ("csv", "json", "svg")]
            argvs.append(["heatmap", path, *target])
            argvs += [["verify", path, *target, "--format", fmt] for fmt in ("text", "json")]
            argvs.append(["verify", path, *target, "--tolerance", "1e-14"])
    argvs += [[command, path, "--stat", "quantile", "--q", "0.5"] for command in ("impact", "verify")]
    argvs += [[argv[0], path, *argv[1:]] for argv in USAGE_ERRORS]
    return argvs


def run(tree: dict, argv: list) -> tuple:
    """(exit code, stdout, stderr) of the tree's cli.main on argv; an
    exception that escapes main reads as exit None with its traceback."""
    use(tree)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tree["runoff.cli"].main(argv)
        except (Exception, SystemExit):
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def triangles(tree: dict, directory: Path) -> list:
    """The paths of the sweep's triangles: the tree's bundled file, and
    the others written into directory."""
    return [
        str(Path(tree["runoff"].__file__).parent / "data" / "belgian.csv"),
        write_triangle(directory / "random12.csv", random_rows(12)),
        write_triangle(directory / "random40.csv", random_rows(40)),
        write_triangle(directory / "random100.csv", random_rows(100)),
        write_triangle(directory / "proportional6.csv", proportional_rows()),
        write_triangle(directory / "small3.csv", [[100.0, 50.0, 10.0], [120.0, 60.0], [130.0]]),
    ]


def sweep(trees: list, paths: list) -> tuple:
    """(commands run, the differing ones as (argv, outputs per tree)) of
    the sweep on the triangles at paths; the runoff package in use before
    is in use after."""
    stats = trees[0]["runoff.cli"].STATISTICS
    argvs = [argv for path in paths for argv in commands(path, stats)]
    differ, outer = [], packaged()
    try:
        for argv in argvs:
            outputs = [run(tree, argv) for tree in trees]
            if any(o != outputs[0] for o in outputs[1:]):
                differ.append((argv, outputs))
    finally:
        use(outer)
    return len(argvs), differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", nargs=2, required=True, help="two directories holding runoff/")
    args = parser.parse_args(argv)
    trees = [load(src) for src in args.src]
    with tempfile.TemporaryDirectory() as tmp:
        count, differ = sweep(trees, triangles(trees[0], Path(tmp)))
    for argv, outputs in differ:
        print(" ".join(argv[:1] + argv[2:]), f"on {Path(argv[1]).name}:")
        for src, (code, out, err) in zip(args.src, outputs):
            print(f"  {src}: exit {code}, {len(out)} chars out, stderr {err[-200:]!r}")
    print(f"{count} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

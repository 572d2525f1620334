"""Run the same runoff CLI commands on two source trees and report every
output that differs.

    python bench/cli_sweep.py --src OTHER/src src

Both trees are loaded in one process, each runoff package in its own set
of sys.modules entries (bench/layers.py's load and use), and every
command goes through each tree's cli.main in turn, its stdout and stderr
captured. How a process writes and ends (runoff.cli run, and stdout or
stderr that takes nothing) is not compared here: tests/test_cli_process.py
runs the CLI as a process and checks each run against in-process main.

The triangles are the bundled file and, written by
bench/layers.py's write_triangle, the Taylor-Ashe and RAA examples of
Mack (1993, 1994) (tests/published.py; RAA holds a negative increment),
random_rows at I = 12, 40 and 100, an
all-proportional I = 6 (every sigma^2 exactly 0), the I = 3
triangle of tests/test_cli.py, too small for a variance scale:
`reserves` leaves its RMSE column empty there, and the Mack statistics
are refused; an I = 4 triangle whose first factor overflows, so year 4's ultimate is infinite (`reserves`
and the BF statistics on the chain-ladder priors are refused), and an
I = 4 triangle with a zero first cell in row 2, which sigma^2 divides
by (`reserves` leaves its RMSE column empty, the Mack statistics are
refused); an I = 3 triangle whose impacts are finite but whose
complex step overflows (`verify` of the reserve and BF statistics is
refused); and an I = 4 triangle whose sigma^2_1 overflows, so its total
MSE is NaN (the Mack statistics are refused as overflows), and where one
complex step h for every fitted sum misreads B_1, far below it. At I = 100 the reports of
`verify --stat mse-total` and `rmse-total` hold 505k cells, and their
JSON is about 69 MB per tree. On each triangle the commands are
`reserves` (csv, json); for every --stat, at years 1, 2, 5 and 10 for
the per-year ones (a year past I is a usage error, and is compared too),
`impact` and `marginal` in csv, json and svg, `heatmap`, and `verify` in
text and json and with --tolerance 1e-14; `impact` and `verify` of the
quantile at --q 0.5; and five usage errors. On the bundled triangle
every command runs a second time with --out naming a temporary file, one
per tree, and `<command> --help` runs for each of the five commands.
A handful more (singles) run once: `verify --stat reserve-ay --year 4`
on the last triangle above, which that h fails; commands reading a
triangle and a priors file that are not UTF-8; `reserves`, `impact` and
`verify` of each MALFORMED triangle (a wrong count of values, a bad
token in the first or the last row, a bad token before a short row, an
empty token, tokens float() reads that a strict decimal reader would
refuse, and an inf, which validate refuses); and --priors or --q given
to a statistic that does not read it, on the bundled file.
Each (exit code, stdout, stderr, bytes written to --out) that differs is
printed, and the exit code is 1 on any difference, else 0. The triangle
and --out files go to temporary directories outside the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
import tempfile
import traceback
from pathlib import Path

from layers import load, packaged, random_rows, use, write_triangle

YEARS = (1, 2, 5, 10)
# The rows of an I = 4 triangle whose sigma^2_1 overflows (see the module docstring).
OVERFLOWING_SIGMA = [
    [3.317885548114321e+68, 2.458815192647783e+116, 1.9397754402600403e+51, 5.390711814568673e+139],
    [1035510060857.5759, 5.256364548785121e-23, 1.1516467043564973e-128],
    [3.0974335492989166e-163, 1.517971630576952e+117],
    [2.671847629323428e+117],
]
USAGE_ERRORS = (
    ["impact", "--stat", "reserve-ay"],
    ["impact", "--stat", "reserve-total", "--year", "1"],
    ["impact", "--stat", "quantile", "--q", "1.5"],
    ["verify", "--tolerance", "-1"],
    ["heatmap", "--stat", "mse-ay", "--year", "0"],
)
# --priors or --q given to a statistic that does not read it.
UNREAD_FLAGS = (
    ["impact", "--stat", "reserve-total", "--priors", "/nonexistent.csv"],
    ["verify", "--stat", "mse-total", "--priors", "/nonexistent.csv"],
    ["marginal", "--stat", "quantile", "--priors", "cl"],
    ["impact", "--stat", "reserve-total", "--q", "0.5"],
    ["verify", "--stat", "bf-total", "--q", "2"],
    ["heatmap", "--stat", "rmse-ay", "--year", "3", "--q", "0.995"],
)
# Triangle files that ingest refuses, or accepts token by token as float() reads it.
MALFORMED = {
    "count.csv": "I=3\n1,2,3\n4,5,6\n7\n",
    "token-first-row.csv": "I=3\n1,x,3\n4,5\n6\n",
    "token-last-row.csv": "I=3\n1,2,3\n4,5\n6y\n",
    "token-before-short-row.csv": "I=3\n1,q,3\n4\n6\n",
    "empty-token.csv": "I=3\n1,2,3\n4,\n6\n",
    "float-tokens.csv": "I=3\n1_000, 2.5 ,\u0661\u0662\n4,5\n6\n",
    "inf.csv": "I=3\n1,2,3\n4,inf\n6\n",
}
HELP = tuple([command, "--help"] for command in ("reserves", "impact", "marginal", "verify", "heatmap"))
PUBLISHED = Path(__file__).resolve().parents[1] / "tests" / "published.py"
OUT = "<out>"  # in an argv, the tree's own --out file


def proportional_rows(dim: int = 6) -> list:
    """Rows that are power-of-two multiples of one integer pattern, so
    every column sum, factor and development ratio is exact and every
    sigma^2 is 0."""
    pattern = [1000.0, 600.0, 300.0, 100.0, 50.0, 20.0, 10.0, 5.0][:dim]
    return [[2.0 ** (i % 3 - 1) * x for x in pattern[: dim - i]] for i in range(dim)]


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


def run(tree: dict, argv: list, file: Path) -> tuple:
    """(exit code, stdout, stderr, bytes written) of the tree's cli.main on
    argv, OUT in argv naming file, whose bytes are read and removed (None
    where it was not written or not named). --help's exit reads as its
    code; any other exception that escapes main as exit None with its
    traceback."""
    use(tree)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tree["runoff.cli"].main([str(file) if a == OUT else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc(file=err)
    written = file.read_bytes() if file.exists() else None
    file.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


def published():
    """tests/published.py of this checkout: the two published Mack examples."""
    spec = importlib.util.spec_from_file_location("published", PUBLISHED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def triangles(tree: dict, directory: Path) -> list:
    """The paths of the sweep's triangles: the tree's bundled file, and
    the others written into directory."""
    return [
        str(Path(tree["runoff"].__file__).parent / "data" / "belgian.csv"),
        write_triangle(directory / "taylorashe10.csv", published().TAYLOR_ASHE.rows()),
        write_triangle(directory / "raa10.csv", published().RAA.rows()),
        write_triangle(directory / "random12.csv", random_rows(12)),
        write_triangle(directory / "random40.csv", random_rows(40)),
        write_triangle(directory / "random100.csv", random_rows(100)),
        write_triangle(directory / "proportional6.csv", proportional_rows()),
        write_triangle(directory / "small3.csv", [[100.0, 50.0, 10.0], [120.0, 60.0], [130.0]]),
        write_triangle(directory / "overflow4.csv", [[1e-300, 1e300, 1, 1], [1e-300, 1e-300, 1], [1e-300, 1e-300], [1e100]]),
        write_triangle(directory / "zerocell4.csv", [[100, 50, 10, 5], [0, 60, 12], [130, 70], [140]]),
        write_triangle(directory / "overflowstep3.csv", [[1e6, 1.0, 1.0], [0.0, 1e308], [5e-324]]),
        write_triangle(directory / "overflowsigma4.csv", OVERFLOWING_SIGMA),
    ]


def singles(paths: list, directory: Path) -> list:
    """The argvs run once: on paths as triangles gives them (the bundled
    file first, the overflowing sigma^2 triangle last), on a triangle and a
    priors file written into directory in Latin-1, not UTF-8, and on the
    MALFORMED triangles written there in UTF-8."""
    triangle, priors = directory / "latin1.csv", directory / "latin1-priors.csv"
    triangle.write_bytes(b"I=2\n1,2\n3\xe9\n")
    priors.write_bytes(b"1,6.0e8\xe9\n")
    for name, text in MALFORMED.items():
        (directory / name).write_text(text, encoding="utf-8")
    raw = [triangle, *(directory / name for name in MALFORMED)]
    ingested = [[command, str(path)] for path in raw for command in ("reserves", "impact", "verify")]
    with_priors = [[*argv, "--priors", str(priors)] for argv in (["reserves", paths[0]],
                                                                 ["impact", paths[0], "--stat", "bf-total"])]
    unread = [[argv[0], paths[0], *argv[1:]] for argv in UNREAD_FLAGS]
    return [["verify", paths[-1], "--stat", "reserve-ay", "--year", "4"], *ingested, *with_priors, *unread]


def sweep(trees: list, paths: list, once: list = ()) -> tuple:
    """(commands run, the differing ones as (argv, outputs per tree)) of
    the sweep on the triangles at paths, paths[0]'s commands also with
    --out, and of the argvs once; the runoff package in use before is in
    use after."""
    stats = trees[0]["runoff.cli"].STATISTICS
    argvs = [argv for path in paths for argv in commands(path, stats)]
    argvs += [[*argv, "--out", OUT] for argv in commands(paths[0], stats)] + list(HELP) + list(once)
    differ, outer = [], packaged()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            files = [Path(tmp) / f"tree{n}.out" for n in range(len(trees))]
            for argv in argvs:
                outputs = [run(tree, argv, file) for tree, file in zip(trees, files)]
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
        paths = triangles(trees[0], Path(tmp))
        count, differ = sweep(trees, paths, singles(paths, Path(tmp)))
    for argv, outputs in differ:
        print(" ".join(Path(a).name for a in argv) + ":")  # a triangle by its file name
        for src, (code, out, err, written) in zip(args.src, outputs):
            wrote = "" if written is None else f", {len(written)} bytes to --out"
            print(f"  {src}: exit {code}, {len(out)} chars out{wrote}, stderr {err[-200:]!r}")
    print(f"{count} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

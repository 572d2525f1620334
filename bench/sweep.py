"""Compare two runoff source trees result by result, API and CLI alike.

    python bench/sweep.py --src OTHER/src src

Every public impact triangle and verifier report is computed, and every
CLI command run, with each tree; each result that differs is reported,
and each command that breaks the CLI's contract in either tree.

Both trees are loaded in one process, each runoff package in its own set
of sys.modules entries (bench/layers.py's load and use). The results come
in groups of named zero-argument calls, each group built once per tree,
and each call is made by one tree, then the other.

The API groups are bench/layers.py's random_rows at I = 4, 10, 40 and
100, each result named `I=<n> <what>`. On each, the results are
IncrementalTriangle.from_rows of its rows as ints, as float32 arrays and
with the last row short, and of no rows; the impact triangles of every
statistic, the per-year ones at every accident year and the quantile at
q = 0.995; impact_rmse of the total's MSE impacts and of year I//2's,
each with its MSE; marginal_contributions of the total reserve's impacts
with the total reserve (so its Euler check runs) and of the total MSE's
without; and the reports of verify_reserve_impacts (its four statistics)
and verify_mse_components, each at year None, 1, I//2 and I where it
takes a year, and of verify_quantile_impacts, on that triangle and on a
fresh one after verify_mse_components alone. Then, on the same
cumulative triangle and in this order: the total MSE impact with the
sigmas x1.5, then with the factors x1.01 and the estimated sigmas, the
total reserve impact with those factors, the quantile impact with both
changed, and with the estimates again.

The CLI group runs each command through the tree's cli.main, its stdout
and stderr captured, and names it by its argv, a path by its file name.
How a process writes and ends (runoff.cli run, and stdout or stderr that
takes nothing) is not compared here: tests/test_cli_process.py runs the
CLI as a process and checks each run against in-process main. The
triangles are the bundled file and, written by bench/layers.py's
write_triangle, the Taylor-Ashe and RAA examples of Mack (1993, 1994)
(tests/published.py; RAA holds a negative increment), random_rows at
I = 12, 40 and 100, an all-proportional I = 6 (every sigma^2 exactly 0),
the I = 3 triangle of tests/test_cli.py, too small for a variance scale:
`reserves` leaves its RMSE column empty there, and the Mack statistics
are refused; an I = 4 triangle whose first factor overflows, so year 4's
ultimate is infinite (`reserves` and the BF statistics on the
chain-ladder priors are refused), and an I = 4 triangle with a zero first
cell in row 2, which sigma^2 divides by (`reserves` leaves its RMSE
column empty, the Mack statistics are refused); an I = 3 triangle whose
impacts are finite but whose complex step overflows (`verify` of the
reserve and BF statistics is refused); and an I = 4 triangle whose
sigma^2_1 overflows, so its total MSE is NaN (the Mack statistics are
refused as overflows), and where one complex step h for every fitted sum
misreads B_1, far below it. At I = 100 the reports of `verify --stat
mse-total` and `rmse-total` hold 505k cells, and their JSON is about
69 MB per tree. On each triangle the commands are `reserves` (csv, json);
for every --stat, at years 1, 2, 5 and 10 for the per-year ones (a year
past I is a usage error, and is compared too), `impact` and `marginal` in
csv, json and svg, `heatmap`, and `verify` in text and json and with
--tolerance 1e-14; `impact` and `verify` of the quantile at --q 0.5; and
five usage errors. On the bundled triangle every command runs a second
time with --out naming one file, which each call reads and removes, and
`<command> --help` runs for each of the five commands. A handful more
(singles) run once: `verify --stat reserve-ay --year 4` on the last
triangle above, which that h fails; commands reading a triangle and a
priors file that are not UTF-8; `reserves`, `impact` and `verify` of each
MALFORMED triangle (a wrong count of values, a bad token in the first or
the last row, a bad token before a short row, an empty token, tokens
float() reads that a strict decimal reader would refuse, and an inf,
which validate refuses); and --priors or --q given to a statistic that
does not read it, on the bundled file. The triangle and --out files go
to a temporary directory outside the checkout.

A result is a command's (exit code, stdout, stderr, bytes written to
--out); a verifier report's to_dict() and its cell columns; any other
value's fields; each array as its bytes and each other field as its
repr; or the type and message of what a call raised. A command breaks the
contract, in either tree and whether or not the trees agree, where an
exception escapes main or a document of exit 0 (stdout and the --out
bytes) names a NaN or an infinity. Each result that differs and each
break is printed, a command's with its exit, sizes and stderr tail per
tree, then a summary; the exit code is 1 on any difference or break,
else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import re
import runpy
import sys
import tempfile
import traceback
from collections import namedtuple
from pathlib import Path

import numpy as np

from layers import load, packaged, random_rows, use, write_triangle

SIZES = (4, 10, 40, 100)
QUANTILE_LEVEL = 0.995
YEARS = (1, 2, 5, 10)
# The rows of an I = 4 triangle whose sigma^2_1 overflows (see the module docstring).
OVERFLOWING_SIGMA = [
    [3.317885548114321e+68, 2.458815192647783e+116, 1.9397754402600403e+51, 5.390711814568673e+139],
    [1035510060857.5759, 5.256364548785121e-23, 1.1516467043564973e-128],
    [3.0974335492989166e-163, 1.517971630576952e+117],
    [2.671847629323428e+117],
]
# An all-proportional I = 6: power-of-two multiples of one integer pattern,
# so every column sum, factor and development ratio is exact and every
# sigma^2 is 0.
PROPORTIONAL = [[2.0 ** (i % 3 - 1) * x for x in [1000.0, 600.0, 300.0, 100.0, 50.0, 20.0][: 6 - i]]
                for i in range(6)]
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
# The cell columns of a verifier report.
REPORT_COLUMNS = ("k", "j", "analytic", "numeric", "rel_error")
# A NaN or an infinity in a document of exit 0, as tests/test_cli.py's NOT_FINITE.
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
Command = namedtuple("Command", "exit stdout stderr written")


def calls(runoff, dim: int) -> dict:
    """Name -> zero-argument call, every API result of the sweep on random_rows(dim)."""
    inc = runoff.IncrementalTriangle.from_rows(random_rows(dim))
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    priors = runoff.default_priors(cum, factors)
    rows, half = random_rows(dim), dim // 2
    out = {
        "from_rows int rows": lambda: runoff.IncrementalTriangle.from_rows([[int(x) for x in r] for r in rows]),
        "from_rows float32 rows": lambda: runoff.IncrementalTriangle.from_rows([np.float32(r) for r in rows]),
        "from_rows []": lambda: runoff.IncrementalTriangle.from_rows([]),
        "from_rows short row": lambda: runoff.IncrementalTriangle.from_rows([*rows[:-1], []]),
        "impact_reserve_total": lambda: runoff.impact_reserve_total(cum, factors),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_total": lambda: runoff.impact_mse_total(cum, factors, sigmas),
        "impact_quantile": lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL),
        "impact_rmse mse-total": lambda: runoff.impact_rmse(
            runoff.mse_total(cum, factors, sigmas), runoff.impact_mse_total(cum, factors, sigmas)),
        f"impact_rmse mse-ay {half}": lambda: runoff.impact_rmse(
            runoff.mse_accident_year(cum, factors, sigmas, half), runoff.impact_mse_ay(cum, factors, sigmas, half)),
        "marginal_contributions reserve-total": lambda: runoff.marginal_contributions(
            runoff.impact_reserve_total(cum, factors), inc, runoff.reserves(cum, factors)[1]),
        "marginal_contributions mse-total": lambda: runoff.marginal_contributions(
            runoff.impact_mse_total(cum, factors, sigmas), inc),
        "verify_quantile_impacts": lambda: runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL),
        "verify_quantile_impacts after verify_mse_components": lambda: after_mse(runoff, dim),
    }
    for i in range(1, dim + 1):
        out[f"impact_reserve_ay {i}"] = lambda i=i: runoff.impact_reserve_ay(cum, factors, i)
        out[f"impact_bf_ay {i}"] = lambda i=i: runoff.impact_bf_ay(cum, factors, priors, i)
        out[f"impact_mse_ay {i}"] = lambda i=i: runoff.impact_mse_ay(cum, factors, sigmas, i)
    for year in (None, 1, half, dim):
        out[f"verify_mse_components {year}"] = lambda y=year: runoff.verify_mse_components(inc, year=y)
        for stat in ("reserve-total", "bf-total") if year is None else ("reserve-ay", "bf-ay"):
            out[f"verify_reserve_impacts {stat} {year}"] = (
                lambda s=stat, y=year: runoff.verify_reserve_impacts(inc, s, y))
    # other factors and sigmas on the same cum, in this order: each call finds
    # the fit the one before it left, so sigmas are attached to a held fit,
    # other factors build one, and the estimates come back to a rebuild
    factors_up = runoff.DevelopmentFactors(dim, factors.values * 1.01)
    sigmas_up = runoff.SigmaEstimates(dim, sigmas.values * 1.5)
    out.update({
        "impact_mse_total sigmas x1.5": lambda: runoff.impact_mse_total(cum, factors, sigmas_up),
        "impact_mse_total factors x1.01": lambda: runoff.impact_mse_total(cum, factors_up, sigmas),
        "impact_reserve_total factors x1.01": lambda: runoff.impact_reserve_total(cum, factors_up),
        "impact_quantile factors x1.01 sigmas x1.5": (
            lambda: runoff.impact_quantile(cum, factors_up, sigmas_up, QUANTILE_LEVEL)),
        "impact_quantile again": lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL),
    })
    return {f"I={dim} {name}": call for name, call in out.items()}


def after_mse(runoff, dim: int):
    """verify_quantile_impacts on a fresh random_rows(dim) triangle that
    verify_mse_components alone has checked."""
    inc = runoff.IncrementalTriangle.from_rows(random_rows(dim))
    runoff.verify_mse_components(inc)
    return runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL)


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


def run(runoff, argv: list, file: Path) -> Command:
    """(exit code, stdout, stderr, bytes written) of runoff.cli.main on
    argv, whose --out, where given, names file, whose bytes are read and
    removed (None where it was not written). --help's exit reads as its
    code; any other exception that escapes main as exit None with its
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = runoff.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc(file=err)
    written = file.read_bytes() if file.exists() else None
    file.unlink(missing_ok=True)
    return Command(code, out.getvalue(), err.getvalue(), written)


def triangles(tree: dict, directory: Path) -> list:
    """The paths of the CLI group's triangles: the tree's bundled file,
    and the others written into directory."""
    published = runpy.run_path(str(PUBLISHED))
    return [
        str(Path(tree["runoff"].__file__).parent / "data" / "belgian.csv"),
        write_triangle(directory / "taylorashe10.csv", published["TAYLOR_ASHE"].rows()),
        write_triangle(directory / "raa10.csv", published["RAA"].rows()),
        write_triangle(directory / "random12.csv", random_rows(12)),
        write_triangle(directory / "random40.csv", random_rows(40)),
        write_triangle(directory / "random100.csv", random_rows(100)),
        write_triangle(directory / "proportional6.csv", PROPORTIONAL),
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


def groups(tree: dict, directory: Path) -> list:
    """The sweep's groups, each a function of a runoff package to its
    named calls: the API results at each of SIZES, then the CLI group,
    its argvs read from tree and its files written into directory: the
    commands on each of triangles, the first's also with --out naming one
    file, HELP and the singles."""
    paths, stats, file = triangles(tree, directory), tree["runoff.cli"].STATISTICS, directory / "sweep.out"
    argvs = [argv for path in paths for argv in commands(path, stats)]
    argvs += [[*argv, "--out", str(file)] for argv in commands(paths[0], stats)] + list(HELP) + singles(paths, directory)
    return [*(functools.partial(calls, dim=dim) for dim in SIZES), lambda runoff: {
        " ".join(Path(a).name for a in argv): functools.partial(run, runoff, argv, file) for argv in argvs}]


def outcome(call) -> tuple:
    """The result of call: a command's as it is, any other value's fields
    as array bytes or reprs, or what it raised. A verifier report is the
    repr of its to_dict() and the bytes of its cell columns, read in that
    order, so two trees compare by what a report gives its reader,
    whatever it holds inside."""
    try:
        value = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Command):
        return value
    if hasattr(value, "to_dict"):
        fields = [value.to_dict(), *(getattr(value, name) for name in REPORT_COLUMNS)]
    else:
        fields = vars(value).values()
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in fields)


def broken(result) -> bool:
    """Whether result is a command that breaks the contract: an exception
    escaped main, or its document of exit 0 names a NaN or an infinity."""
    if not isinstance(result, Command):
        return False
    if result.exit != 0:
        return result.exit is None
    document = result.stdout + (result.written or b"").decode("utf-8", "replace")
    # NOT_FINITE reads a 69 MB report for seconds; an ASCII document that
    # holds neither "nan" nor "inf", in any case, cannot match it
    lower = document.lower()
    return (not document.isascii() or "nan" in lower or "inf" in lower) and NOT_FINITE.search(document) is not None


def sweep(trees: list, groups: list) -> tuple:
    """(results computed per tree, the differing ones and the breaks, each
    as (name, results per tree)); the runoff package in use before is in
    use after."""
    count, differ, breaks, outer = 0, [], [], packaged()
    try:
        for group in groups:
            per_tree = []
            for tree in trees:
                use(tree)
                per_tree.append(group(tree["runoff"]))
            for name in per_tree[0]:
                results = []
                for tree, tree_calls in zip(trees, per_tree):
                    use(tree)
                    results.append(outcome(tree_calls[name]))
                count += 1
                if any(r != results[0] for r in results[1:]):
                    differ.append((name, results))
                if any(broken(r) for r in results):
                    breaks.append((name, results))
    finally:
        use(outer)
    return count, differ, breaks


def report(srcs: list, count: int, differ: list, breaks: list) -> int:
    """Print each differing result and each break, a command's with its
    exit, sizes and stderr tail per tree, then a summary; the exit code."""
    for verdict, found in (("differs", differ), ("breaks the contract", breaks)):
        for name, results in found:
            print(f"{name} {verdict}")
            for src, result in zip(srcs, results):
                if isinstance(result, Command):
                    wrote = "" if result.written is None else f", {len(result.written)} bytes to --out"
                    print(f"  {src}: exit {result.exit}, {len(result.stdout)} chars out{wrote}, "
                          f"stderr {result.stderr[-200:]!r}")
    print(f"{count} results, {len(differ)} differ, {len(breaks)} break the contract")
    return 1 if differ or breaks else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", nargs=2, required=True, help="two directories holding runoff/")
    args = parser.parse_args(argv)
    trees = [load(src) for src in args.src]
    with tempfile.TemporaryDirectory() as tmp:
        found = sweep(trees, groups(trees[0], Path(tmp)))
    return report(args.src, *found)


if __name__ == "__main__":
    sys.exit(main())

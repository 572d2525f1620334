"""Compute every public impact triangle and verifier report with two
runoff source trees and report every result that differs.

    python bench/api_sweep.py --src OTHER/src src

Both trees are loaded in one process, each runoff package in its own set
of sys.modules entries (bench/layers.py's load and use), and each result
is computed by one tree, then the other. The triangles are bench/layers.py's
random_rows at I = 4, 10, 40 and 100. On each, the results are
IncrementalTriangle.from_rows of its rows as ints, as float32 arrays and
with the last row short, and of no rows; the impact
triangles of every statistic, the per-year ones at every accident year and
the quantile at q = 0.995, and the reports of verify_reserve_impacts (its
four statistics) and verify_mse_components, each at year None, 1, I//2
and I where it takes a year, and of verify_quantile_impacts, on that
triangle and on a fresh one after verify_mse_components alone. Then, on the
same cumulative triangle and in this order: the total MSE impact with the
sigmas x1.5, then with the factors x1.01 and the estimated sigmas, the
total reserve impact with those factors, the quantile impact with both
changed, and with the estimates again. A result is
the bytes of each array it holds and the repr of every other field (a
verifier report's to_dict() and its cell columns), or the type and
message of what it raised; a result that differs is printed, and
the exit code is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from layers import load, packaged, random_rows, use

SIZES = (4, 10, 40, 100)
QUANTILE_LEVEL = 0.995


def calls(runoff, dim: int) -> dict:
    """Name -> zero-argument call, every one of the sweep on random_rows(dim)."""
    inc = runoff.IncrementalTriangle.from_rows(random_rows(dim))
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    priors = runoff.default_priors(cum, factors)
    rows = random_rows(dim)
    out = {
        "from_rows int rows": lambda: runoff.IncrementalTriangle.from_rows([[int(x) for x in r] for r in rows]),
        "from_rows float32 rows": lambda: runoff.IncrementalTriangle.from_rows([np.float32(r) for r in rows]),
        "from_rows []": lambda: runoff.IncrementalTriangle.from_rows([]),
        "from_rows short row": lambda: runoff.IncrementalTriangle.from_rows([*rows[:-1], []]),
        "impact_reserve_total": lambda: runoff.impact_reserve_total(cum, factors),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_total": lambda: runoff.impact_mse_total(cum, factors, sigmas),
        "impact_quantile": lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL),
        "verify_quantile_impacts": lambda: runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL),
        "verify_quantile_impacts after verify_mse_components": lambda: after_mse(runoff, dim),
    }
    for i in range(1, dim + 1):
        out[f"impact_reserve_ay {i}"] = lambda i=i: runoff.impact_reserve_ay(cum, factors, i)
        out[f"impact_bf_ay {i}"] = lambda i=i: runoff.impact_bf_ay(cum, factors, priors, i)
        out[f"impact_mse_ay {i}"] = lambda i=i: runoff.impact_mse_ay(cum, factors, sigmas, i)
    for year in (None, 1, dim // 2, dim):
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
    return out


def after_mse(runoff, dim: int):
    """verify_quantile_impacts on a fresh random_rows(dim) triangle that
    verify_mse_components alone has checked."""
    inc = runoff.IncrementalTriangle.from_rows(random_rows(dim))
    runoff.verify_mse_components(inc)
    return runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL)


# The cell columns of a verifier report.
REPORT_COLUMNS = ("k", "j", "analytic", "numeric", "rel_error")


def outcome(call) -> tuple:
    """The result of call, its fields as array bytes or reprs, or what it
    raised. A verifier report is the repr of its to_dict() and the bytes
    of its cell columns, read in that order, so two trees compare by what
    a report gives its reader, whatever it holds inside."""
    try:
        value = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if hasattr(value, "to_dict"):
        fields = [value.to_dict(), *(getattr(value, name) for name in REPORT_COLUMNS)]
    else:
        fields = vars(value).values()
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in fields)


def sweep(trees: list, sizes=SIZES) -> tuple:
    """(results computed per tree, the names of the differing ones); the
    runoff package in use before is in use after."""
    count, differ, outer = 0, [], packaged()
    try:
        for dim in sizes:
            per_tree = []
            for tree in trees:
                use(tree)
                per_tree.append(calls(tree["runoff"], dim))
            for name in per_tree[0]:
                results = []
                for tree, tree_calls in zip(trees, per_tree):
                    use(tree)
                    results.append(outcome(tree_calls[name]))
                count += 1
                if any(r != results[0] for r in results[1:]):
                    differ.append(f"I={dim} {name}")
    finally:
        use(outer)
    return count, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", nargs=2, required=True, help="two directories holding runoff/")
    args = parser.parse_args(argv)
    count, differ = sweep([load(src) for src in args.src])
    for name in differ:
        print(f"{name} differs")
    print(f"{count} results, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

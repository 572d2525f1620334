"""Per-stage timings of the runoff fit, impact and oracle layers at growing sizes.

    python bench/layers.py                          # this checkout, after
    python bench/layers.py --src OTHER/src --label before --sizes 10 20 40 60
    python bench/layers.py --src OTHER/src src --label before after

Every stage runs on one random triangle per size I (the test suite's
distribution, a fixed seed per size). Given two or more trees (--src,
one --label each), they are loaded in one process, each package in its
own set of sys.modules entries, and timed batch by batch in turn, the
order reversed every batch, so drift of the host reads in every label
alike and one record compares them.

A stage is first called once per tree, untimed, so that the first batch
of a run reads as the later ones do; then it is timed in BATCHES
batches, each repeating the call until BATCH_S has passed, and its entry
is the least mean time per call over the batches (best_s) and their
median (median_s), with the number of calls and batches made; a batch
whose time passes SLOW_S ends the stage. At I >= 100 a batch holds a few
calls, and best_s reads host and allocator state as much as code, so
compare median_s there. After the timing, one
more call runs under tracemalloc, and its peak of traced memory is the
stage's peak_mb, and one more under sys.settrace, and the bytecodes it
executes (f_trace_opcodes on every frame, the stage's own call included)
are its bytecodes: a perfbench worker runs only 5 or 12 ops, so most of
their code runs too few times for the interpreter to specialize it, and
the count tracks the interpreter's share of an op. The estimator and
impact stages reuse one triangle and its factors and sigmas, so where
runoff keeps a triangle's Fit they time only their own algebra over it.
Where runoff also holds values for the impacts on that Fit (its total
gradients and MSE coefficients, the oracle's stepped totals), the
impact_reserve_total, impact_mse_ay, impact_mse_total and
impact_quantile stages drop whatever it holds beyond its fields and
FIT_VALUES before each call (unheld), so each times its gradients over
the sums as well as its triangle. The fit stage times building that Fit
with its Mack sums and the values derived from them (FIT_VALUES), and
sensitivity_report a whole report (the perfbench api-report op) from
the increments, where the impacts of one fit share its held gradients. A triangle keeps what its verifiers fit, so each
verify_* call checks a fresh IncrementalTriangle of the same values and
times a first verification; verify_reserve_impacts_year checks the
reserve of year I//2 and verify_mse_components_year the MSE of year I//2
alone, the single-year paths, and verify_round makes the four perfbench
oracle-verify ops on one fresh triangle, where each total is stepped
once: the quantile verifier steps the map by the stepped total reserve
and total MSE that the MSE verifier's stack holds on the fit, with no
stack of its own, and verify_quantile_impacts, on a fresh triangle,
steps both in the MSE verifier's stack, whose building blocks and
plug-in MSEs it does not read.
The ingest stage reads the triangle through runoff.cli.ingest from a
file in the CLI's input format, written into a temporary directory by
write_triangle (which bench/sweep.py uses too); validate checks the
increments as ingest does, decumulate inverts the cumulated triangle,
and render_csv writes the reserve-total impact triangle as the CLI's CSV.
Beside the stages, each tree runs CLI_COMMAND (the MSE verifier's text
report) on the ingest stage's file once per size, in a fresh process
started as `python -m runoff.cli` starts it (cli_run), and records its
wall time, start-up and exit included, and its peak RSS (its VmHWM,
Linux) under cli[I=<n>]. After the sizes, each tree runs each of the
README quick-start commands (README_COMMANDS) on the bundled triangle
CLI_RUNS times, the trees in turn, the order reversed every run, and
records the median wall time and peak RSS of each under readme. Last,
each tree times `import runoff` after `import numpy` in CLI_RUNS fresh
processes (import_run), the trees in turn, the order reversed every
run, and records the median and interquartile range under import: each
imports a copy of the tree's package without its __pycache__, under
PYTHONDONTWRITEBYTECODE=1, so it compiles runoff's source, as every
perfbench worker does in its fresh checkout.
The result goes under layers[label] of
BENCH_<yyyymmdd>.json in the repository root, merged with what the file
already holds, so a before and an after run share one file.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10, 20, 40, 60, 100, 200, 400)
BATCHES = 5
BATCH_S = 0.05
SLOW_S = 5.0
QUANTILE_LEVEL = 0.995
# The CLI command each tree runs in a fresh process per size, after the input file.
CLI_COMMAND = ("verify", "--stat", "mse-total", "--format", "text")
# The README quick-start commands, TRIANGLE and SVG standing for the bundled
# triangle's path and the heatmap's file, and how often each tree runs each.
TRIANGLE, SVG = "<triangle>", "<svg>"
README_COMMANDS = {
    "reserves": ("reserves", TRIANGLE),
    "impact-reserve-ay": ("impact", TRIANGLE, "--stat", "reserve-ay", "--year", "8"),
    "impact-quantile-json": ("impact", TRIANGLE, "--stat", "quantile", "--q", "0.995", "--format", "json"),
    "marginal-reserve-total": ("marginal", TRIANGLE, "--stat", "reserve-total"),
    "verify-reserve-total": ("verify", TRIANGLE, "--stat", "reserve-total"),
    "heatmap-reserve-ay": ("heatmap", TRIANGLE, "--stat", "reserve-ay", "--year", "8", "--out", SVG),
}
CLI_RUNS = 11


def random_rows(dim: int) -> list:
    """Strictly positive increments with decaying development columns."""
    rng = np.random.default_rng([20261018, dim])
    base = rng.uniform(8e5, 1.6e6, size=dim)
    decay = rng.uniform(0.45, 0.75)
    return [
        [base[i - 1] * decay ** (j - 1) * rng.uniform(0.7, 1.3) for j in range(1, dim - i + 2)]
        for i in range(1, dim + 1)
    ]


def write_triangle(path: Path, rows: list) -> str:
    """The rows in the CLI's input format, I=<n> then one row per line,
    each number as its repr, so the file holds the values bit for bit."""
    path.write_text("\n".join([f"I={len(rows)}", *(",".join(repr(float(x)) for x in row) for row in rows)]) + "\n")
    return str(path)


def sensitivity_report(runoff, inc) -> tuple:
    """The fit, its scalars and four impact triangles, from the increments."""
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    runoff.reserves(cum, factors)
    runoff.mse_total(cum, factors, sigmas)
    priors = runoff.default_priors(cum, factors)
    return (
        runoff.impact_reserve_total(cum, factors),
        runoff.impact_bf_total(cum, factors, priors),
        runoff.impact_mse_total(cum, factors, sigmas),
        runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL),
    )


def verify_round(runoff, inc) -> tuple:
    """The four oracle-verify ops of perfbench on inc."""
    return (
        runoff.verify_reserve_impacts(inc, "reserve-total"),
        runoff.verify_reserve_impacts(inc, "bf-total"),
        runoff.verify_mse_components(inc),
        runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL),
    )


def fit(runoff, cum, factors, sigmas) -> tuple:
    """A Fit with sigmas and what the statistics read of it beyond its
    fields (FIT_VALUES), wherever the Fit computes them."""
    built = runoff.Fit.of(cum.values, factors.values, sigmas.values)
    return tuple(getattr(built, name) for name in FIT_VALUES)


# What the fit stage computes of a Fit beside its fields: the Mack sums and what derives from them and ult.
FIT_VALUES = ("w", "process", "reserves", "reserve_total", "later", "scale", "mse_by_year", "mse_total")


def unheld(runoff, cum, kept, call):
    """call() after every Fit cum keeps, with sigmas and without, drops
    whatever it holds beyond the names kept (its fields and FIT_VALUES),
    so call computes again what runoff holds on it for the impacts."""
    for fit in cum.__dict__["_fit"]:
        if isinstance(fit, runoff.Fit):
            for name in vars(fit).keys() - kept:
                del vars(fit)[name]
    return call()


def stages(runoff, dim: int, directory: Path) -> dict:
    """Name -> zero-argument call, each on the fitted state of one triangle,
    written into directory for the ingest stage."""
    rows = random_rows(dim)
    path = write_triangle(directory / f"random{dim}.csv", rows)
    inc = runoff.IncrementalTriangle.from_rows(rows)
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    priors = runoff.default_priors(cum, factors)
    impacts = runoff.impact_reserve_total(cum, factors)
    kept = {f.name for f in dataclasses.fields(runoff.Fit)}.union(FIT_VALUES)  # built once, untimed
    unheld_fits = functools.partial(unheld, runoff, cum, kept)

    def fresh():
        return runoff.IncrementalTriangle(dim, inc.values)

    return {
        "ingest": lambda: runoff.cli.ingest(path),
        "validate": lambda: runoff.validate(inc),
        "cumulate": lambda: runoff.cumulate(inc),
        "decumulate": lambda: runoff.decumulate(cum),
        "estimate_development_factors": lambda: runoff.estimate_development_factors(cum),
        "estimate_sigmas": lambda: runoff.estimate_sigmas(cum, factors),
        "fit": lambda: fit(runoff, cum, factors, sigmas),
        "impact_reserve_ay": lambda: runoff.impact_reserve_ay(cum, factors, dim),
        "impact_reserve_total": lambda: unheld_fits(lambda: runoff.impact_reserve_total(cum, factors)),
        "impact_bf_ay": lambda: runoff.impact_bf_ay(cum, factors, priors, dim),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_ay": lambda: unheld_fits(lambda: runoff.impact_mse_ay(cum, factors, sigmas, dim)),
        "impact_mse_total": lambda: unheld_fits(lambda: runoff.impact_mse_total(cum, factors, sigmas)),
        "impact_quantile": lambda: unheld_fits(lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL)),
        "sensitivity_report": lambda: sensitivity_report(runoff, inc),
        "verify_reserve_impacts": lambda: runoff.verify_reserve_impacts(fresh(), "reserve-total"),
        "verify_reserve_impacts_year": lambda: runoff.verify_reserve_impacts(fresh(), "reserve-ay", dim // 2),
        "verify_mse_components": lambda: runoff.verify_mse_components(fresh()),
        "verify_mse_components_year": lambda: runoff.verify_mse_components(fresh(), year=dim // 2),
        "verify_quantile_impacts": lambda: runoff.verify_quantile_impacts(fresh(), QUANTILE_LEVEL),
        "verify_round": lambda: verify_round(runoff, fresh()),
        "render_csv": lambda: runoff.cli.render_csv(impacts),
    }


def packaged() -> dict:
    """The sys.modules entries of the runoff package now in use."""
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "runoff"}


def use(modules: dict):
    """Make modules, from packaged, the runoff package of sys.modules."""
    for name in packaged():
        del sys.modules[name]
    sys.modules.update(modules)


def load(src: str) -> dict:
    """The sys.modules entries of runoff and runoff.cli imported from the
    directory src, in a set of their own: the package in use before is in
    use again after."""
    before = packaged()
    use({})
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        importlib.import_module("runoff.cli")
        return packaged()
    finally:
        del sys.path[0]
        use(before)


def per_call(trees: list, calls: list) -> list:
    """Per call, each made with its tree's modules in use: the least mean
    time per call over BATCHES batches of calls, each batch lasting at
    least BATCH_S, and how many calls and batches that took. The calls
    take their batches in turn, in reverse order every other batch."""
    means, counts = [[] for _ in calls], [0] * len(calls)
    order = list(range(len(calls)))
    for m in order:  # untimed: the first batch then reads as the later ones
        use(trees[m])
        calls[m]()
    while len(means[0]) < BATCHES:
        slow = False
        for m in order:
            use(trees[m])
            n, t0 = 0, time.perf_counter()
            while (elapsed := time.perf_counter() - t0) < BATCH_S:
                calls[m]()
                n += 1
            means[m].append(elapsed / n)
            counts[m] += n
            slow |= elapsed > SLOW_S
        order.reverse()
        if slow:
            break
    return [
        {"best_s": min(ms), "median_s": statistics.median(ms), "calls": n, "batches": len(ms)}
        for ms, n in zip(means, counts)
    ]


def peak_mb(call) -> float:
    """The tracemalloc peak of one call, in MB (2^20 bytes)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bytecodes(call) -> int:
    """The bytecodes one call executes, in every Python frame it runs."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    held = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(held)
    return count


def cli_run(src: str, argv: list) -> dict:
    """One fresh process running the runoff CLI of the tree src on argv, its
    module run as `python -m runoff.cli` runs it, so it ends as the CLI does
    (through runoff.cli.run, where the tree has it): its exit code, wall
    time and peak RSS in MB (2^20 bytes), which an atexit handler registered
    before the CLI reads as the process's VmHWM. Its ru_maxrss would not do:
    Linux starts it at the RSS of this process, which forked it."""
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print(*(ln.split()[1] for ln in open('/proc/self/status') "
            "if ln.startswith('VmHWM:')), file=sys.stderr)); "
            "runpy.run_module('runoff.cli', run_name='__main__', alter_sys=True)")
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    return {"exit": done.returncode, "wall_s": wall, "peak_rss_mb": int(done.stderr.split()[-1]) / 1024}


# A child that prints the wall time of `import runoff` after `import numpy`.
IMPORT = "import time, numpy; t0 = time.perf_counter(); import runoff; print(time.perf_counter() - t0)"


def import_run(src: Path) -> float:
    """The wall time of `import runoff` from the tree src, after `import
    numpy`, in a fresh process that writes no bytecode
    (PYTHONDONTWRITEBYTECODE=1)."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", IMPORT], env=env, capture_output=True, text=True, check=True)
    return float(done.stdout)


def import_runs(srcs: list, directory: Path) -> list:
    """Per tree of srcs, the median and interquartile range of CLI_RUNS
    import_run times of a copy of its package without __pycache__, made
    in directory, so every run compiles the source; the trees take turns,
    in reverse order every other run."""
    copies = []
    for m, src in enumerate(srcs):
        copies.append(directory / f"import{m}")
        shutil.copytree(Path(src) / "runoff", copies[-1] / "runoff", ignore=shutil.ignore_patterns("__pycache__"))
    runs = [[] for _ in srcs]
    order = list(range(len(srcs)))
    for _ in range(CLI_RUNS):
        for m in order:
            runs[m].append(import_run(copies[m]))
        order.reverse()
    return [
        {"median_s": statistics.median(times), "iqr_s": float(np.subtract(*np.percentile(times, [75, 25]))),
         "runs": len(times)}
        for times in runs
    ]


def readme_runs(srcs: list, directory: Path) -> list:
    """Per tree of srcs, README command name -> the median wall time and
    peak RSS of its CLI_RUNS runs, and their exit codes: the trees take each
    command in turn, in reverse order every other run."""
    tri = str(ROOT / "src" / "runoff" / "data" / "belgian.csv")
    runs = [{name: [] for name in README_COMMANDS} for _ in srcs]
    order = list(range(len(srcs)))
    for _ in range(CLI_RUNS):
        for name, argv in README_COMMANDS.items():
            argv = [tri if a == TRIANGLE else str(directory / "impacts.svg") if a == SVG else a for a in argv]
            for m in order:
                runs[m][name].append(cli_run(srcs[m], argv))
        order.reverse()
    return [
        {
            name: {
                "median_s": statistics.median(run["wall_s"] for run in tree_runs[name]),
                "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in tree_runs[name]),
                "exits": sorted({run["exit"] for run in tree_runs[name]}),
                "runs": len(tree_runs[name]),
            }
            for name in README_COMMANDS
        }
        for tree_runs in runs
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", nargs="+", default=[str(ROOT / "src")], help="directories holding runoff/")
    parser.add_argument("--label", nargs="+", default=["after"], help="key under layers, one per --src")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", default=None, help="default: BENCH_<yyyymmdd>.json in the root")
    args = parser.parse_args(argv)
    if len(args.label) != len(args.src):
        parser.error(f"{len(args.src)} trees need {len(args.src)} labels, got {len(args.label)}")

    outer = packaged()
    trees = [load(src) for src in args.src]
    out = Path(args.out or ROOT / f"BENCH_{datetime.date.today():%Y%m%d}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    sections = [
        {
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "batches": BATCHES,
            "batch_s": BATCH_S,
            "slow_s": SLOW_S,
            "interleaved_with": [other for other in args.label if other != label],
            "seconds": {},
            "cli": {"command": " ".join(CLI_COMMAND)},
            "readme": {},
            "import": {},
        }
        for label in args.label
    ]
    tmp = tempfile.TemporaryDirectory()
    try:
        for dim in args.sizes:
            rows = [{} for _ in trees]
            per_tree = []
            for tree in trees:
                use(tree)
                per_tree.append(stages(tree["runoff"], dim, Path(tmp.name)))
            for name in per_tree[0]:
                calls = [tree_stages[name] for tree_stages in per_tree]
                for m, timing in enumerate(per_call(trees, calls)):
                    use(trees[m])
                    row = rows[m][name] = timing | {"peak_mb": peak_mb(calls[m]), "bytecodes": bytecodes(calls[m])}
                    print(
                        f"I={dim:<4} {name:<30} {args.label[m]:<10} {timing['best_s']:.6f} s "
                        f"{row['peak_mb']:9.2f} MB {row['bytecodes']:8d} bytecodes",
                        flush=True,
                    )
            for src, label, section, row in zip(args.src, args.label, sections, rows):
                section["seconds"][f"I={dim}"] = row
                argv = [CLI_COMMAND[0], str(Path(tmp.name) / f"random{dim}.csv"), *CLI_COMMAND[1:]]
                run = section["cli"][f"I={dim}"] = cli_run(src, argv)
                print(f"I={dim:<4} {'cli ' + ' '.join(CLI_COMMAND[:3]):<30} {label:<10} {run['wall_s']:.6f} s "
                      f"{run['peak_rss_mb']:9.2f} MB RSS, exit {run['exit']}", flush=True)
        for label, section, readme in zip(args.label, sections, readme_runs(args.src, Path(tmp.name))):
            section["readme"] = readme
            for name, run in readme.items():
                print(f"     {'cli ' + name:<30} {label:<10} {run['median_s']:.6f} s "
                      f"{run['peak_rss_mb']:9.2f} MB RSS, exits {run['exits']}, median of {run['runs']}", flush=True)
        for label, section, imported in zip(args.label, sections, import_runs(args.src, Path(tmp.name))):
            section["import"] = imported
            print(f"     {'import runoff':<30} {label:<10} {imported['median_s']:.6f} s "
                  f"IQR {imported['iqr_s']:.6f} s, median of {imported['runs']}", flush=True)
    finally:
        use(outer)
        tmp.cleanup()
    for label, section in zip(args.label, sections):
        doc.setdefault("layers", {})[label] = section
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

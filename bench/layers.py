"""Per-stage timings of the runoff fit, impact and oracle layers at growing
sizes, and the wall time of fresh CLI and import processes.

    python bench/layers.py                          # this checkout, after
    python bench/layers.py --src OTHER/src --label before --sizes 10 20 40 60
    python bench/layers.py --src OTHER/src src --label before after

Every stage runs on one random triangle per size I (the test suite's
distribution, a fixed seed per size). Given two or more trees (--src,
one --label each), they are loaded in one process, each package in its
own set of sys.modules entries. One rule times them all (in_turn): each
round makes every call with the trees in turn, in reverse order every
other round, so drift of the host reads in every label alike and one
record compares them.
A stage is first called once per tree, untimed, so that the first batch
reads as the later ones do; then it is timed in BATCHES rounds of one
batch, each repeating the call until BATCH_S has passed, and its entry
is the least mean time per call over the batches (best_s) and their
median (median_s), with the number of calls and batches made. At I >=
100 a batch holds a few calls, and best_s reads host and allocator state
as much as code, so compare median_s there. One more call runs under
tracemalloc, its peak being the stage's peak_mb, and one more under
sys.settrace, the bytecodes it executes (f_trace_opcodes on every frame)
being its bytecodes: a perfbench worker runs only 5 or 12 ops, too few
for the interpreter to specialize most of their code, and the count
tracks the interpreter's share of an op. The estimator and impact stages
reuse one triangle and its factors and sigmas, so where runoff keeps a
triangle's Fit they time only their own algebra over it; the
impact_reserve_total, impact_mse_ay, impact_mse_total and
impact_quantile stages drop what the Fit holds beyond its fields and
FIT_VALUES before each call (unheld), so each times its gradients too.
The fit stage times building that Fit with its Mack sums and FIT_VALUES,
and sensitivity_report a whole report (the perfbench api-report op).
Each verify_* call checks a fresh IncrementalTriangle of the same values,
a first verification; the _year stages check year I//2 alone, and
verify_round makes the four perfbench oracle-verify ops on one fresh
triangle. The ingest stage reads the triangle through runoff.cli.ingest
from a file written by write_triangle (which bench/sweep.py uses too).
After the stages, the fresh processes of each tree (processes) run
CLI_RUNS times, in turn: CLI_COMMAND on each size's file, each `runoff`
line of the README's CLI quick start on the tree's own bundled triangle,
both started as `python -m runoff.cli` starts the CLI (cli_run), and
`import runoff` after numpy from a copy of the tree's package without
__pycache__, which compiles its source as every perfbench worker does
(import_run). Each is summarized alike under processes[name]: the median
and interquartile range of each number a run measures, the exit codes a
CLI run gives, and the run count. The result goes under layers[label] of
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
import shlex
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
README = ROOT / "README.md"
SIZES = (10, 20, 40, 60, 100, 200, 400)
BATCHES = 5
BATCH_S = 0.05
QUANTILE_LEVEL = 0.995
# The CLI command each tree runs in a fresh process per size, after the input file.
CLI_COMMAND = ("verify", "--stat", "mse-total", "--format", "text")
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


def in_turn(rounds: int, per_tree: list) -> list:
    """Per tree of per_tree (each a dict of named zero-argument calls), name
    -> the results of its call in each of rounds rounds: each round makes
    every call with the trees in turn, in reverse order every other round."""
    results = [{name: [] for name in calls} for calls in per_tree]
    order = list(range(len(per_tree)))
    for _ in range(rounds):
        for name in per_tree[0]:
            for m in order:
                results[m][name].append(per_tree[m][name]())
        order.reverse()
    return results


def batch(tree: dict, call) -> tuple:
    """With tree's modules in use, how often call was made until BATCH_S
    had passed, and its mean time per call."""
    use(tree)
    n, t0 = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < BATCH_S:
        call()
        n += 1
    return n, elapsed / n


def per_call(trees: list, calls: list) -> list:
    """Per call, each made with its tree's modules in use: the least mean
    time per call over BATCHES batches, their median, and how many calls
    and batches that took, the calls taking their batches in turn."""
    for tree, call in zip(trees, calls):  # untimed: the first batch then reads as the later ones
        use(tree)
        call()
    per_tree = [{"batch": functools.partial(batch, tree, call)} for tree, call in zip(trees, calls)]
    return [
        {"best_s": min(means), "median_s": statistics.median(means), "calls": sum(counts), "batches": len(means)}
        for counts, means in (zip(*runs["batch"]) for runs in in_turn(BATCHES, per_tree))
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


def cli_run(src: str, argv: list, directory: Path) -> dict:
    """One fresh process, in directory, running the runoff CLI of the tree
    src on argv, its module run as `python -m runoff.cli` runs it, so it
    ends as the CLI does (through runoff.cli.run, where the tree has it):
    its exit code, wall time and peak RSS in MB (2^20 bytes), which an
    atexit handler registered before the CLI reads as the process's VmHWM.
    Its ru_maxrss would not do: Linux starts it at the RSS of this process,
    which forked it."""
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print(*(ln.split()[1] for ln in open('/proc/self/status') "
            "if ln.startswith('VmHWM:')), file=sys.stderr)); "
            "runpy.run_module('runoff.cli', run_name='__main__', alter_sys=True)")
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=directory, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    return {"exit": done.returncode, "wall_s": wall, "peak_rss_mb": int(done.stderr.split()[-1]) / 1024}


# A child that prints the wall time of `import runoff` after `import numpy`.
IMPORT = "import time, numpy; t0 = time.perf_counter(); import runoff; print(time.perf_counter() - t0)"


def import_run(src: Path) -> dict:
    """The wall time of `import runoff` from the tree src, after `import
    numpy`, in a fresh process that writes no bytecode
    (PYTHONDONTWRITEBYTECODE=1)."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", IMPORT], env=env, capture_output=True, text=True, check=True)
    return {"import_s": float(done.stdout)}


def quick_start() -> list:
    """The argv of each `runoff` line of the README's CLI quick start."""
    text = README.read_text()
    block = text[text.index("## Quick start (CLI)"):text.index("## Quick start (API)")]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("runoff ")]


def processes(src: str, sizes: list, directory: Path) -> dict:
    """Name -> zero-argument call of one fresh process of the tree src, run
    in directory: CLI_COMMAND on the file of each size there, each README
    quick-start command with $TRI the tree's own bundled triangle, and
    `import runoff` from a copy of the tree's package made there without
    __pycache__ (in a directory of its own: the CLI's cwd is on its path)."""
    tri = str(Path(src).resolve() / "runoff" / "data" / "belgian.csv")
    argvs = [[CLI_COMMAND[0], f"random{dim}.csv", *CLI_COMMAND[1:]] for dim in sizes] + quick_start()
    copy = Path(tempfile.mkdtemp(dir=directory))
    shutil.copytree(Path(src) / "runoff", copy / "runoff", ignore=shutil.ignore_patterns("__pycache__"))
    return {
        "runoff " + " ".join(argv): functools.partial(cli_run, src, [tri if a == "$TRI" else a for a in argv], directory)
        for argv in argvs
    } | {"import runoff": functools.partial(import_run, copy)}


def summary(runs: list) -> dict:
    """The median and interquartile range of each number the runs measure,
    the exit codes where they give one, and how many runs there were."""
    out = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        if key == "exit":
            out["exits"] = sorted(set(values))
        else:
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            out[key] = {"median": float(median), "iqr": float(q3 - q1)}
    return out | {"runs": len(runs)}


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
            "interleaved_with": [other for other in args.label if other != label],
            "seconds": {},
            "processes": {},
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
            for section, row in zip(sections, rows):
                section["seconds"][f"I={dim}"] = row
        groups = [processes(src, args.sizes, Path(tmp.name)) for src in args.src]
        for label, section, runs in zip(args.label, sections, in_turn(CLI_RUNS, groups)):
            for name, tree_runs in runs.items():
                section["processes"][name] = summary(tree_runs)
                print(f"{name:<60} {label:<10} {json.dumps(section['processes'][name])}", flush=True)
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

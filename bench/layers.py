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
is the least mean time per call over the batches (best_s), with the
number of calls and batches made; a batch whose time passes SLOW_S ends
the stage. After the timing, one
more call runs under tracemalloc, and its peak of traced memory is the
stage's peak_mb, and one more under sys.settrace, and the bytecodes it
executes (f_trace_opcodes on every frame, the stage's own call included)
are its bytecodes: a perfbench worker runs only 5 or 12 ops, so most of
their code runs too few times for the interpreter to specialize it, and
the count tracks the interpreter's share of an op. The estimator and
impact stages reuse one triangle and its factors and sigmas, so where
runoff keeps a triangle's Fit they time only their own algebra over it.
Where runoff also holds the total reserve and MSE gradients on that Fit,
the impact_reserve_total, impact_mse_ay, impact_mse_total and
impact_quantile stages drop them, the stepped totals the oracle holds
beside them and the MSE impacts' coefficients before each call (HELD,
unheld), so each times its gradients over the sums as well as its
triangle. The fit stage times building that Fit with its Mack sums and
the values derived from them (FIT_VALUES), and sensitivity_report a
whole report (the perfbench api-report op) from the increments, where
the impacts of one fit share its held gradients. A triangle keeps what its verifiers fit, so each
verify_* call checks a fresh IncrementalTriangle of the same values and
times a first verification; verify_reserve_impacts_year checks the
reserve of year I//2 and verify_mse_components_year the MSE of year I//2
alone, the single-year paths, and verify_round makes the four perfbench
oracle-verify ops on one fresh triangle, where each total is stepped
once: the quantile verifier steps the map by the stepped total reserve
and total MSE that the MSE verifier's stack holds on the fit, with no
stack of its own, and verify_quantile_impacts, on a fresh triangle,
steps both in one stack.
The ingest stage reads the triangle through runoff.cli.ingest from a
file in the CLI's input format, written into a temporary directory by
write_triangle (which bench/cli_sweep.py uses too); validate checks the
increments as ingest does, decumulate inverts the cumulated triangle,
and render_csv writes the reserve-total impact triangle as the CLI's CSV.
Beside the stages, each tree runs CLI_COMMAND (the MSE verifier's text
report) on the ingest stage's file once per size, in a fresh process,
and records its wall time, start-up included, and its peak RSS (its
VmHWM, Linux) under cli[I=<n>].
The result goes under layers[label] of
BENCH_<yyyymmdd>.json in the repository root, merged with what the file
already holds, so a before and an after run share one file.
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
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


# The names under which runoff holds a Fit's total gradients (runoff.impact),
# the raw imaginary parts of its stepped totals (runoff.oracle) and the MSE
# impacts' coefficients (runoff.chainladder): the impact stages compute them.
HELD = ("_reserve", "_mse", "_im_reserve_total", "_im_mse_total", "shrink", "mse_diagonal")
# The values of a Fit the fit stage computes beside its fields: the Mack sums
# and what the statistics derive from them and the ultimates.
FIT_VALUES = ("w", "process", "reserves", "reserve_total", "later", "scale", "mse_by_year", "mse_total")


def unheld(runoff, cum, call):
    """call() after every Fit cum keeps, with sigmas and without, drops what
    it holds for the impacts (HELD), so call computes it again; nothing to
    drop where runoff holds none."""
    for fit in cum.__dict__["_fit"]:
        if isinstance(fit, runoff.Fit):
            for name in HELD:
                fit.__dict__.pop(name, None)
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
        "impact_reserve_total": lambda: unheld(runoff, cum, lambda: runoff.impact_reserve_total(cum, factors)),
        "impact_bf_ay": lambda: runoff.impact_bf_ay(cum, factors, priors, dim),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_ay": lambda: unheld(runoff, cum, lambda: runoff.impact_mse_ay(cum, factors, sigmas, dim)),
        "impact_mse_total": lambda: unheld(runoff, cum, lambda: runoff.impact_mse_total(cum, factors, sigmas)),
        "impact_quantile": lambda: unheld(runoff, cum, lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL)),
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
    return [{"best_s": min(ms), "calls": n, "batches": len(ms)} for ms, n in zip(means, counts)]


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


def cli_run(src: str, path: str) -> dict:
    """One fresh process running the runoff CLI of the tree src on path with
    CLI_COMMAND: its exit code, wall time and peak RSS in MB (2^20 bytes),
    which the process reports of itself as its VmHWM. Its ru_maxrss would
    not do: Linux starts it at the RSS of this process, which forked it."""
    code = ("import sys; from runoff.cli import main; code = main(sys.argv[1:]); "
            "print(*(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM:')), "
            "file=sys.stderr); sys.exit(code)")
    argv = [sys.executable, "-c", code, CLI_COMMAND[0], path, *CLI_COMMAND[1:]]
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    return {"exit": done.returncode, "wall_s": wall, "peak_rss_mb": int(done.stderr.split()[-1]) / 1024}


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
                run = section["cli"][f"I={dim}"] = cli_run(src, str(Path(tmp.name) / f"random{dim}.csv"))
                print(f"I={dim:<4} {'cli ' + ' '.join(CLI_COMMAND[:3]):<30} {label:<10} {run['wall_s']:.6f} s "
                      f"{run['peak_rss_mb']:9.2f} MB RSS, exit {run['exit']}", flush=True)
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

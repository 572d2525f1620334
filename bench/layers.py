"""Per-stage timings of the runoff fit, impact and oracle layers at growing sizes.

    python bench/layers.py                          # this checkout, after
    python bench/layers.py --src OTHER/src --label before --sizes 10 20 40 60

Every stage runs on one random triangle per size I (the test suite's
distribution, a fixed seed per size). A stage is timed in BATCHES
batches, each repeating the call until BATCH_S has passed, and its entry
is the least mean time per call over the batches (best_s), with the
number of calls and batches made; a batch whose time passes SLOW_S ends
the stage. The estimator and impact stages reuse one triangle and its
factors and sigmas, so where runoff keeps a triangle's Fit they time only
their own algebra over it; the fit stage times building that Fit with
its d ln f kernel and Mack sums, and sensitivity_report a whole report
(the perfbench api-report op) from the increments. The result goes under layers[label] of
BENCH_<yyyymmdd>.json in the repository root, merged with what the file
already holds, so a before and an after run share one file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10, 20, 40, 60, 100)
BATCHES = 5
BATCH_S = 0.05
SLOW_S = 5.0
QUANTILE_LEVEL = 0.995


def random_rows(dim: int) -> list:
    """Strictly positive increments with decaying development columns."""
    rng = np.random.default_rng([20261018, dim])
    base = rng.uniform(8e5, 1.6e6, size=dim)
    decay = rng.uniform(0.45, 0.75)
    return [
        [base[i - 1] * decay ** (j - 1) * rng.uniform(0.7, 1.3) for j in range(1, dim - i + 2)]
        for i in range(1, dim + 1)
    ]


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


def fit(runoff, cum, factors, sigmas) -> tuple:
    """A Fit with sigmas and what the impacts read of it beyond its sums:
    g, and the Mack sums w and process, wherever the Fit computes them."""
    built = runoff.Fit.build(cum, factors, sigmas)
    return built.g, built.w, built.process


def stages(runoff, dim: int) -> dict:
    """Name -> zero-argument call, each on the fitted state of one triangle."""
    inc = runoff.IncrementalTriangle.from_rows(random_rows(dim))
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    priors = runoff.default_priors(cum, factors)
    return {
        "cumulate": lambda: runoff.cumulate(inc),
        "estimate_development_factors": lambda: runoff.estimate_development_factors(cum),
        "estimate_sigmas": lambda: runoff.estimate_sigmas(cum, factors),
        "fit": lambda: fit(runoff, cum, factors, sigmas),
        "impact_reserve_ay": lambda: runoff.impact_reserve_ay(cum, factors, dim),
        "impact_reserve_total": lambda: runoff.impact_reserve_total(cum, factors),
        "impact_bf_ay": lambda: runoff.impact_bf_ay(cum, factors, priors, dim),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_ay": lambda: runoff.impact_mse_ay(cum, factors, sigmas, dim),
        "impact_mse_total": lambda: runoff.impact_mse_total(cum, factors, sigmas),
        "impact_quantile": lambda: runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL),
        "sensitivity_report": lambda: sensitivity_report(runoff, inc),
        "verify_reserve_impacts": lambda: runoff.verify_reserve_impacts(inc, "reserve-total"),
        "verify_mse_components": lambda: runoff.verify_mse_components(inc),
        "verify_quantile_impacts": lambda: runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL),
    }


def per_call(call) -> dict:
    """Least mean time per call over BATCHES batches of calls, each batch
    lasting at least BATCH_S, and how many calls and batches that took."""
    means, calls = [], 0
    while len(means) < BATCHES:
        n, t0 = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < BATCH_S:
            call()
            n += 1
        means.append(elapsed / n)
        calls += n
        if elapsed > SLOW_S:
            break
    return {"best_s": min(means), "calls": calls, "batches": len(means)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding runoff/")
    parser.add_argument("--label", default="after", help="key under layers")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", default=None, help="default: BENCH_<yyyymmdd>.json in the root")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import runoff

    out = Path(args.out or ROOT / f"BENCH_{datetime.date.today():%Y%m%d}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    section = {
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "batches": BATCHES,
        "batch_s": BATCH_S,
        "slow_s": SLOW_S,
        "seconds": {},
    }
    for dim in args.sizes:
        row = {}
        for name, call in stages(runoff, dim).items():
            row[name] = per_call(call)
            print(f"I={dim:<4} {name:<30} {row[name]['best_s']:.6f} s", flush=True)
        section["seconds"][f"I={dim}"] = row
    doc.setdefault("layers", {})[args.label] = section
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-stage timings of the runoff fit, impact and oracle layers at growing sizes.

    python bench/layers.py                          # this checkout, after
    python bench/layers.py --src OTHER/src --label before --sizes 10 20 40 60

Every stage runs on one random triangle per size I (the test suite's
distribution, a fixed seed per size), best of 3. A stage whose first run
takes longer than SLOW_S is run once; its entry says how many runs it
had. The result goes under layers[label] of BENCH_<yyyymmdd>.json in the
repository root, merged with what the file already holds, so a before
and an after run share one file.
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
REPEATS = 3
SLOW_S = 5.0


def random_rows(dim: int) -> list:
    """Strictly positive increments with decaying development columns."""
    rng = np.random.default_rng([20261018, dim])
    base = rng.uniform(8e5, 1.6e6, size=dim)
    decay = rng.uniform(0.45, 0.75)
    return [
        [base[i - 1] * decay ** (j - 1) * rng.uniform(0.7, 1.3) for j in range(1, dim - i + 2)]
        for i in range(1, dim + 1)
    ]


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
        "impact_reserve_ay": lambda: runoff.impact_reserve_ay(cum, factors, dim),
        "impact_reserve_total": lambda: runoff.impact_reserve_total(cum, factors),
        "impact_bf_ay": lambda: runoff.impact_bf_ay(cum, factors, priors, dim),
        "impact_bf_total": lambda: runoff.impact_bf_total(cum, factors, priors),
        "impact_mse_ay": lambda: runoff.impact_mse_ay(cum, factors, sigmas, dim),
        "impact_mse_total": lambda: runoff.impact_mse_total(cum, factors, sigmas),
        "impact_quantile": lambda: runoff.impact_quantile(cum, factors, sigmas, 0.995),
        "verify_reserve_impacts": lambda: runoff.verify_reserve_impacts(inc, "reserve-total"),
        "verify_mse_components": lambda: runoff.verify_mse_components(inc),
        "verify_quantile_impacts": lambda: runoff.verify_quantile_impacts(inc, 0.995),
    }


def best_of(call) -> dict:
    times = []
    while len(times) < REPEATS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        if times[0] > SLOW_S:
            break
    return {"best_s": min(times), "runs": len(times)}


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
        "repeats": REPEATS,
        "slow_s": SLOW_S,
        "seconds": {},
    }
    for dim in args.sizes:
        row = {}
        for name, call in stages(runoff, dim).items():
            row[name] = best_of(call)
            print(f"I={dim:<4} {name:<30} {row[name]['best_s']:.6f} s", flush=True)
        section["seconds"][f"I={dim}"] = row
    doc.setdefault("layers", {})[args.label] = section
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

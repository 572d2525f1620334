"""In-process worker for the api-report and oracle-verify workloads.

    python perfbench/worker.py <workload> <seed> setup
    python perfbench/worker.py <workload> <seed> run <round>
    python perfbench/worker.py <workload> <seed> trace <seconds>

Set-up imports runoff, loads the first round's triangles through the
public API and prints "ready". `setup` mode exits there. `run` mode then
runs the ops of one round in a closed loop, one op at a time; a timed
run starts one worker per round (see run.py). `trace` mode runs rounds
twice, first untraced and then with every public function wrapped, and
reports the per-layer numbers. The last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import gate
import hostspeed
import inputs
import tracing

# The sizes span the I^4.5 growth of the impact code; see README.md.
# api-report does three I=20 reports per round, each on its own triangle:
# its latency_ms.p50 is the median I=20 report, and with one per round a
# run held too few of them for a steady median.
SIZES = {"api-report": (15, 20, 20, 20, 25), "oracle-verify": (10, 15, 20)}
ORACLE_KINDS = ("reserve-total", "bf-total", "mse-components", "quantile")
QUANTILE_LEVEL = 0.995
OUT_DIR = Path(__file__).resolve().parent / "out"
# Op time of one round at the seed commit, at the reference host speed
# (hostspeed.py). A run does seconds / ROUND_S rounds, a count fixed by
# its arguments, so runs of the same seed do the same ops and fail the
# same ones however fast the host is.
ROUND_S = {"cli-bundled": 1.3, "api-report": 9.4, "oracle-verify": 8.9}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a run of `seconds` does: about `seconds` of seed-commit op time."""
    return max(1, round(seconds / ROUND_S[workload]))


def sensitivity_report(runoff, inc) -> dict:
    """One api-report op: the fit, its scalars and four impact triangles."""
    cum = runoff.cumulate(inc)
    factors = runoff.estimate_development_factors(cum)
    sigmas = runoff.estimate_sigmas(cum, factors)
    by_year, total = runoff.reserves(cum, factors)
    mse = runoff.mse_total(cum, factors, sigmas)
    priors = runoff.default_priors(cum, factors)
    return {
        "factors": factors.values,
        "sigmas": sigmas.values,
        "reserves": by_year,
        "reserve_total": total,
        "mse_total": mse,
        "reserve_total_if": runoff.impact_reserve_total(cum, factors).values,
        "bf_total_if": runoff.impact_bf_total(cum, factors, priors).values,
        "mse_total_if": runoff.impact_mse_total(cum, factors, sigmas).values,
        "quantile_if": runoff.impact_quantile(cum, factors, sigmas, QUANTILE_LEVEL).values,
    }


def verify(runoff, kind: str, inc):
    """One oracle-verify op."""
    if kind in ("reserve-total", "bf-total"):
        return runoff.verify_reserve_impacts(inc, kind)
    if kind == "mse-components":
        return runoff.verify_mse_components(inc)
    return runoff.verify_quantile_impacts(inc, QUANTILE_LEVEL)


def op_key(workload: str, dim: int, slot: int, kind: str | None = None) -> str:
    """Key of an op in the reference file; slot counts repeats of a size."""
    size = f"I={dim}" if slot == 0 else f"I={dim} #{slot + 1}"
    return size if workload == "api-report" else f"{kind} {size}"


class Workload:
    """Inputs and op sequence of one in-process workload."""

    def __init__(self, runoff, workload: str, seed: int, reference: dict | None = None,
                 first: int = 0):
        """reference: recorded outputs of round 0, or None to skip them.
        first: the round whose triangles are loaded now, in set-up."""
        self.runoff = runoff
        self.name = workload
        self.seed = seed
        self.reference = reference
        self.first = first
        self.first_round = self.triangles(first)

    def triangles(self, r: int) -> list:
        """Round r's validated triangles, as (size, slot, triangle).

        oracle-verify's inputs do not depend on the seed: its oracle false
        alarms are failed ops, and so every run of it fails the same ops.
        """
        seed = inputs.REFERENCE_SEED if self.name == "oracle-verify" else self.seed
        tris = []
        sizes = SIZES[self.name]
        for pos, dim in enumerate(sizes):
            slot = sizes[:pos].count(dim)
            inc = self.runoff.IncrementalTriangle.from_rows(
                inputs.triangle_rows(inputs.round_seed(seed, r), r, dim, slot)
            )
            problems = self.runoff.validate(inc)
            if problems:
                raise ValueError(f"generated triangle rejected: {problems}")
            tris.append((dim, slot, inc))
        return tris

    def round_ops(self, r: int) -> list:
        """(key, callable, checker) for each op of round r, in order."""
        tris = self.first_round if r == self.first else self.triangles(r)
        gated = self.reference is not None and r == 0
        ops = []
        for dim, slot, inc in tris:
            if self.name == "api-report":
                key = op_key(self.name, dim, slot)
                ref = self.reference[key] if gated else None
                ops.append(
                    (
                        key,
                        lambda inc=inc: sensitivity_report(self.runoff, inc),
                        lambda out, inc=inc, ref=ref: (gate.check_report(out, inc.values, ref), True),
                    )
                )
                continue
            for kind in ORACLE_KINDS:
                key = op_key(self.name, dim, slot, kind)
                ref = self.reference[key] if gated else None
                ops.append(
                    (
                        key,
                        lambda kind=kind, inc=inc: verify(self.runoff, kind, inc),
                        lambda out, dim=dim, ref=ref: (gate.check_verdict(out, dim, ref), out.passed),
                    )
                )
        return ops


def run_rounds(round_ops, rounds: int, on_op=None, first: int = 0,
               calibration=hostspeed.IN_PROCESS) -> dict:
    """Closed loop over a fixed number of whole rounds, from round `first`.

    round_ops(r) lists round r's ops as (key, run, check): run() does the
    op and check(output) returns (gate problems, oracle verdict). Gate
    checks run between ops and are not part of any op's latency.
    Latencies are at the reference host speed (hostspeed.Meter, with
    the given calibration).
    """
    latencies, wall_s, failed, mismatches, false_verdicts = [], 0.0, 0, [], []
    meter = hostspeed.Meter(calibration)
    for r in range(first, first + rounds):
        for key, run, check in round_ops(r):
            t0 = time.perf_counter()
            try:
                with on_op(len(latencies)) if on_op else nullcontext():
                    out = run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            wall_s += wall
            latencies.append(meter.scale(wall))
            problems, passed = ([error], True) if error else check(out)
            mismatches += [f"round {r} {key}: {p}" for p in problems]
            if not passed:
                false_verdicts.append(f"round {r} {key}")
            failed += bool(problems) or not passed
    return {
        "rounds": rounds,
        "latencies": latencies,
        "wall_s": wall_s,
        "host_factor": meter.median_factor(),
        "failed": failed,
        "mismatches": mismatches,
        "false_verdicts": false_verdicts,
    }


def traced_run(round_ops, rounds: int, start_tracing, spans_path: Path,
               calibration=hostspeed.IN_PROCESS) -> dict:
    """A third of the rounds untraced, then the same rounds traced.

    start_tracing() turns tracing on and returns (traced round_ops, on_op,
    spans): spans(result) gives the traced run's spans, which are saved to
    spans_path. The result carries the per-layer metrics.
    """
    plain = run_rounds(round_ops, max(1, rounds // 3), calibration=calibration)
    traced_ops, on_op, spans = start_tracing()
    traced = run_rounds(traced_ops, plain["rounds"], on_op, calibration=calibration)
    arrays = spans(traced)
    tracing.save(spans_path, arrays)
    calls, self_s = tracing.self_times(arrays)
    metrics = tracing.layer_metrics(calls, self_s, len(traced["latencies"]), traced["wall_s"])
    metrics["trace.overhead_ratio"] = (sum(traced["latencies"]) / sum(plain["latencies"]), "ratio")
    traced["metrics"] = metrics
    return traced


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import runoff

    first = int(argv[3]) if mode == "run" else 0
    work = Workload(runoff, workload, seed, first=first)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    work.reference = gate.load_reference(workload)
    if mode == "run":
        result = run_rounds(work.round_ops, 1, first=first)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:

        def start_tracing():
            recorder = tracing.Recorder()
            tracing.install(recorder)
            return work.round_ops, recorder.op_scope, lambda _: recorder.arrays()

        OUT_DIR.mkdir(exist_ok=True)
        rounds = rounds_for(workload, float(argv[3]))
        result = traced_run(work.round_ops, rounds, start_tracing, OUT_DIR / f"spans-{workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the runoff sensitivity engine.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one op at a time):

  cli-bundled    the six README quick-start commands on the bundled 10x10
                 triangle, each a fresh `python -m runoff.cli` process
  api-report     in-process full sensitivity reports, I in {15, 20, 25}
  oracle-verify  in-process finite-difference oracle runs, I in {10, 15, 20}

A run does a fixed number of rounds, about --seconds of op time at the
seed commit (worker.rounds_for), and reports op and set-up times at a
reference host speed (hostspeed.py). With --trace 0 the run reports the
end-to-end metrics. With --trace 1 it runs ops untraced and then with
every public runoff function wrapped from outside (see tracing.py), and
reports per-layer metrics.
Every op's output goes through the correctness gate (gate.py). The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Run from any directory; the program is imported from <checkout>/src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import hostspeed
from worker import OUT_DIR, rounds_for, run_rounds, traced_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# cli-bundled comes first: its peak_rss_mb is this process's RUSAGE_CHILDREN
# maximum, which would also count earlier workloads' workers.
WORKLOADS = ("cli-bundled", "api-report", "oracle-verify")
# Fresh processes timed per run, about half before and half after the
# timed loop; setup_s is their median at the reference host speed.
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 120

TRIANGLE = "src/runoff/data/belgian.csv"
SVG_OUT = "perfbench/out/impacts.svg"
# The README quick-start commands, in README order; argv relative to ROOT.
CLI_COMMANDS = (
    ("reserves", ["reserves", TRIANGLE]),
    ("impact-reserve-ay", ["impact", TRIANGLE, "--stat", "reserve-ay", "--year", "8"]),
    (
        "impact-quantile-json",
        ["impact", TRIANGLE, "--stat", "quantile", "--q", "0.995", "--format", "json"],
    ),
    ("marginal-reserve-total", ["marginal", TRIANGLE, "--stat", "reserve-total"]),
    ("verify-reserve-total", ["verify", TRIANGLE, "--stat", "reserve-total"]),
    (
        "heatmap-reserve-ay",
        ["heatmap", TRIANGLE, "--stat", "reserve-ay", "--year", "8", "--out", SVG_OUT],
    ),
)


def child_env() -> dict:
    """Single-threaded numeric libraries and runoff importable from src."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def run_cli_op(args: list, traced_spans: Path | None = None):
    """One CLI op: (exit code, stdout plus any --out file's text)."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "runoff.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "clichild.py"), str(traced_spans), *args]
    svg = ROOT / SVG_OUT
    svg.unlink(missing_ok=True)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )
    text = proc.stdout
    if "--out" in args and svg.exists():
        text += svg.read_text(encoding="utf-8")
    return proc.returncode, text


def cli_round_ops(seed: int, trace_dir: Path | None = None):
    """round_ops for cli-bundled: the six commands, starting at seed % 6."""
    reference = gate.load_reference("cli-bundled")
    n = len(CLI_COMMANDS)
    order = [CLI_COMMANDS[(seed + i) % n] for i in range(n)]

    def round_ops(r: int) -> list:
        ops = []
        for pos, (key, args) in enumerate(order):
            spans = None if trace_dir is None else trace_dir / f"op{r * n + pos}.npz"
            ops.append(
                (
                    key,
                    lambda args=args, spans=spans: run_cli_op(args, spans),
                    lambda out, ref=reference[key]: (gate.check_cli(*out, ref), True),
                )
            )
        return ops

    return round_ops


def time_setups(start, samples: int) -> list:
    """Seconds, at the reference host speed, of `samples` calls of start()."""
    meter = hostspeed.Meter(hostspeed.PROCESS_START)
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        start()
        out.append(meter.scale(time.perf_counter() - t0))
    return out


def fresh_help() -> None:
    """A fresh `python -m runoff.cli --help`, to its exit."""
    cmd = [sys.executable, "-m", "runoff.cli", "--help"]
    subprocess.run(cmd, cwd=ROOT, env=ENV, check=True, capture_output=True, timeout=60)


def import_runoff_ms() -> float:
    """Time of `import runoff` in a fresh interpreter, numpy included."""
    code = "import time; t = time.perf_counter(); import runoff; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, check=True,
                          capture_output=True, text=True, timeout=60)
    return 1e3 * float(proc.stdout)


def spawn_worker(workload: str, seed: int, mode: str, *args) -> str:
    """Run worker.py to its exit; returns its stdout after "ready"."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, *map(str, args)],
        cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
    )
    ready = proc.stdout.readline().strip() == "ready"
    try:
        out, _ = proc.communicate(timeout=None if ready else 10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) failed, exit code {proc.returncode}")
    return out


def worker_result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def worker_rounds(workload: str, seed: int, rounds: int) -> dict:
    """A timed in-process run: one fresh worker per round, results joined.

    The same ops can run several percent faster in one process than in
    the next, so spreading the rounds over processes keeps one process
    from setting a whole run's figures.
    """
    parts = [worker_result(spawn_worker(workload, seed, "run", r)) for r in range(rounds)]
    joined = {key: sum((p[key] for p in parts), []) for key in ("latencies", "mismatches", "false_verdicts")}
    joined.update(
        rounds=rounds,
        wall_s=sum(p["wall_s"] for p in parts),
        host_factor=statistics.median(p["host_factor"] for p in parts),
        failed=sum(p["failed"] for p in parts),
        peak_rss_mb=max(p["peak_rss_mb"] for p in parts),
    )
    return joined


def end_to_end(workload: str, seed: int, seconds: float):
    """(loop result, metrics) with tracing off."""
    cli = workload == "cli-bundled"
    start = fresh_help if cli else lambda: spawn_worker(workload, seed, "setup")
    before = SETUP_SAMPLES // 2
    setups = time_setups(start, before)
    if cli:
        rounds = rounds_for(workload, seconds)
        result = run_rounds(cli_round_ops(seed), rounds, calibration=hostspeed.PROCESS_START)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        result = worker_rounds(workload, seed, rounds_for(workload, seconds))
    setups += time_setups(start, SETUP_SAMPLES - before)
    lat = result["latencies"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "latency_ms.p50": (1e3 * statistics.median(lat), "ms", len(lat)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    return result, metrics


def merge_cli_spans(trace_dir: Path, n_ops: int) -> dict:
    """Join and remove the per-op span files, with op ids set to the op index."""
    parts, offset = [], 0
    for op_id in range(n_ops):
        path = trace_dir / f"op{op_id}.npz"
        with np.load(path) as spans:
            part = {k: spans[k] for k in ("name", "start", "end", "parent")}
        path.unlink()
        part["parent"] = np.where(part["parent"] >= 0, part["parent"] + offset, -1)
        part["op"] = np.full(len(part["name"]), op_id, dtype=np.int32)
        offset += len(part["name"])
        parts.append(part)
    trace_dir.rmdir()
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def per_layer(workload: str, seed: int, seconds: float):
    """(traced loop result, metrics) from a traced run of the same ops."""
    import_ms = statistics.median(import_runoff_ms() for _ in range(IMPORT_SAMPLES))
    if workload == "cli-bundled":
        trace_dir = OUT_DIR / "cli-spans"

        def start_tracing():
            trace_dir.mkdir(exist_ok=True)
            return (
                cli_round_ops(seed, trace_dir),
                None,
                lambda result: merge_cli_spans(trace_dir, len(result["latencies"])),
            )

        spans_path = OUT_DIR / f"spans-{workload}.npz"
        rounds = rounds_for(workload, seconds)
        result = traced_run(cli_round_ops(seed), rounds, start_tracing, spans_path,
                            hostspeed.PROCESS_START)
    else:
        result = worker_result(spawn_worker(workload, seed, "trace", seconds))
    n = len(result["latencies"])
    metrics = {k: (v[0], v[1], n) for k, v in result["metrics"].items()}
    metrics["setup.import_runoff_ms"] = (import_ms, "ms", IMPORT_SAMPLES)
    return result, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result, metrics = (per_layer if trace else end_to_end)(workload, seed, seconds)
    attempted = len(result["latencies"])
    print(f"== {workload} seed={seed} trace={int(trace)} rounds={result['rounds']} "
          f"op_wall_s={result['wall_s']:.3f} host_factor={result['host_factor']:.3f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {unit:<6} n={samples}")
    if workload == "cli-bundled" and not trace:
        # Printed, not gated: see README.md.
        lat_ms = [1e3 * x for x in result["latencies"]]
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
        beyond = sum(x > p90 for x in lat_ms)
        print(f"{'latency_ms.p90':<58} {p90:>14.6g} {'ms':<6} n={attempted} ({beyond} beyond p90)")
    print(f"attempted={attempted} failed={result['failed']} "
          f"failed_ratio={result['failed'] / attempted:.4f}")
    if trace:
        print(f"spans: {(OUT_DIR / f'spans-{workload}.npz').relative_to(ROOT)}")
    for line in result["false_verdicts"]:
        print(f"oracle verdict passed=False: {line}")
    for line in result["mismatches"]:
        print(f"GATE MISMATCH: {line}")
    return {
        "correct": not result["mismatches"],
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "runoff" / "__init__.py").is_file():
        print(f"error: no runoff sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

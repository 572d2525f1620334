"""Record the reference outputs that the correctness gate compares against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the reference. It runs round 0
of api-report and oracle-verify (inputs from inputs.REFERENCE_SEED) and
the six CLI commands, and writes reference/<workload>.json.
"""

import json
import sys

import gate
import run
import worker

sys.path.insert(0, str(run.SRC))

import runoff  # noqa: E402


def dump(name: str, doc: dict) -> None:
    with open(gate.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def main() -> int:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, summarize in (
        ("api-report", gate.report_summary),
        ("oracle-verify", gate.verdict_summary),
    ):
        work = worker.Workload(runoff, name, 0)
        dump(name, {key: summarize(op()) for key, op, _ in work.round_ops(0)})
    run.OUT_DIR.mkdir(exist_ok=True)
    cli = {}
    for key, args in run.CLI_COMMANDS:
        code, text = run.run_cli_op(args)
        if code != 0:
            raise SystemExit(f"{key}: exit code {code}")
        cli[key] = {"quantities": gate.cli_quantities(text)}
        if "verify" in args:
            cli[key]["markers"] = ["result: PASS"]
    dump("cli-bundled", cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())

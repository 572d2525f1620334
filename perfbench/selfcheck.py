"""Check that the correctness gate rejects perturbed outputs.

    python3 perfbench/selfcheck.py

Runs one reference op of each workload, gates its real output (it must
pass), then gates perturbed copies of that output (each must fail). The
program is never modified; only copies of its outputs are. Exits 0 when
every case behaves as expected.
"""

import copy
import sys

import numpy as np

import gate
import run
import worker

sys.path.insert(0, str(run.SRC))

import runoff  # noqa: E402


def perturbed(values: np.ndarray, rel: float) -> np.ndarray:
    """Copy with the first cell moved by rel times the largest |value|."""
    out = np.array(values)
    out[0, 0] += rel * np.nanmax(np.abs(values))
    return out


def moved_cells(text: str, rel: float) -> list:
    """(quantity, copy) for each quantity of a CLI output: the copy moves the
    quantity's smallest nonzero number by rel times its largest |value|."""
    cells = {}
    for quantity, start, end, value in gate.cli_numbers(text):
        cells.setdefault(quantity, []).append((start, end, value))
    out = []
    for quantity, spans in cells.items():
        scale = max(abs(v) for _, _, v in spans) or 1.0
        start, end, value = min(spans, key=lambda c: (c[2] == 0, abs(c[2])))
        out.append((quantity, text[:start] + repr(value + rel * scale) + text[end:]))
    return out


def rewritten(text: str, rel: float) -> str:
    """Copy of a CLI output with every number scaled by (1 + rel), as
    a refactor that moves the last digits would print it."""
    pieces, last = [], 0
    for _, start, end, value in gate.cli_numbers(text):
        pieces += [text[last:start], repr(value * (1 + rel))]
        last = end
    return "".join(pieces) + text[last:]


def main() -> int:
    cases = []

    work = worker.Workload(runoff, "api-report", 0, gate.load_reference("api-report"))
    key, op, check = work.round_ops(0)[0]
    out = op()
    cases.append((f"api {key} as computed", check(out)[0], False))
    for field, rel, fails in (
        ("quantile_if", 1e-12, False),
        ("quantile_if", 1e-6, True),
        ("mse_total_if", 1e-6, True),
        ("reserve_total_if", 1e-6, True),
    ):
        bad = dict(out, **{field: perturbed(out[field], rel)})
        cases.append((f"api {key} {field} moved by {rel:g} of max", check(bad)[0], fails))
    bad = dict(out, reserve_total=out["reserve_total"] * (1 + 1e-6))
    cases.append((f"api {key} reserve_total moved by 1e-6", check(bad)[0], True))

    work = worker.Workload(runoff, "oracle-verify", 0, gate.load_reference("oracle-verify"))
    key, op, check = work.round_ops(0)[0]
    report = op()
    problems, passed = check(report)
    cases.append((f"oracle {key} as computed", problems, False))
    cases.append((f"oracle {key} verdict counted", [] if passed else ["failed"], False))
    bad = copy.deepcopy(report)
    bad.cells[3]["analytic"] *= 1 + 1e-6
    cases.append((f"oracle {key} analytic cell moved by 1e-6", check(bad)[0], True))

    run.OUT_DIR.mkdir(exist_ok=True)
    reference = gate.load_reference("cli-bundled")
    for key, args in run.CLI_COMMANDS:
        code, text = run.run_cli_op(args)
        cases.append((f"cli {key} as run", gate.check_cli(code, text, reference[key]), False))
        cases.append((f"cli {key} exit code 3", gate.check_cli(3, text, reference[key]), True))
        near = rewritten(text, 1e-12)
        cases.append((f"cli {key} every number moved by 1e-12", gate.check_cli(0, near, reference[key]), False))
        missed = [q for q, bad in moved_cells(text, 1e-6) if not gate.check_cli(0, bad, reference[key])]
        label = f"cli {key} smallest cell of each quantity moved by 1e-6 of its max"
        if missed:
            label += f" (not rejected: {missed})"
        cases.append((label, [] if missed else ["every copy rejected"], True))
        if "result: PASS" in text:
            bad = text.replace("result: PASS", "result: FAIL")
            cases.append((f"cli {key} FAIL line", gate.check_cli(0, bad, reference[key]), True))

    ok = True
    for label, problems, should_fail in cases:
        good = bool(problems) == should_fail
        ok &= good
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

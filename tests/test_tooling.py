"""Guards for the tooling that reaches into runoff from outside.

perfbench/tracing.py wraps runoff functions by name for the per-layer
benchmark metrics, perfbench/gate.py reads the cells of an oracle report
and compares every op's output with perfbench/reference/, and
bench/layers.py calls the fit, impact and oracle layers directly. A
rename, deletion or signature change in runoff breaks only a benchmark
run, silently, so what they need is pinned here.
"""

import ast
import copy
import dataclasses
import gc
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import runoff
from conftest import bundled_path
from runoff.cli import STATISTICS, main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
GATE = ROOT / "perfbench" / "gate.py"
INPUTS = ROOT / "perfbench" / "inputs.py"
LAYERS = ROOT / "bench" / "layers.py"

PUBLIC = [
    "IncrementalTriangle",
    "CumulativeTriangle",
    "cumulate",
    "decumulate",
    "validate",
    "column_partial_sum",
    "DevelopmentFactors",
    "Fit",
    "SigmaEstimates",
    "MackSummary",
    "estimate_development_factors",
    "project_ultimates",
    "reserves",
    "estimate_sigmas",
    "mse_accident_year",
    "mse_total",
    "mack_summary",
    "PriorUltimates",
    "bf_reserves",
    "default_priors",
    "ImpactTriangle",
    "d_ln_f",
    "impact_reserve_ay",
    "impact_reserve_total",
    "impact_bf_ay",
    "impact_bf_total",
    "impact_mse_ay",
    "impact_rmse",
    "impact_mse_total",
    "marginal_contributions",
    "LognormalFit",
    "fit_lognormal",
    "inv_std_normal_cdf",
    "lognormal_quantile",
    "impact_quantile",
    "FdScheme",
    "VerificationReport",
    "fd_derivative",
    "verify_reserve_impacts",
    "verify_mse_components",
    "verify_quantile_impacts",
]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves():
    tracing = load(TRACING, "perfbench_tracing")
    for span in (
        "triangle.IncrementalTriangle.with_cell",
        "quantile.inv_std_normal_cdf",
        "cli.compute",
        "triangle.column_partial_sum",
    ):
        assert span in tracing.SPAN_NAMES
    for span in tracing.SPAN_NAMES:
        mod_name, _, attr = span.partition(".")
        target = importlib.import_module(f"runoff.{mod_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{span} no longer resolves"
            target = getattr(target, part)
        assert callable(target), span


def test_public_names_unchanged():
    assert runoff.__all__ == PUBLIC
    assert all(hasattr(runoff, name) for name in PUBLIC)


def test_import_loads_every_library_module():
    """import runoff loads its six library modules eagerly, and no name is
    loaded on first use. Each benchmark worker times only 5 api-report or
    12 oracle-verify ops of about 1 ms each, in a fresh interpreter that
    writes no bytecode: a prototype that loaded the modules lazily took
    25-52 ms for its first verify_reserve_impacts at I=10, against
    0.6-0.8 ms loaded eagerly."""
    modules = ("triangle", "chainladder", "bornhuetter", "impact", "quantile", "oracle")
    code = f"import sys, runoff; print(all('runoff.' + m in sys.modules for m in {modules!r}))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "True\n"


def test_the_library_imports_no_typing():
    """No runoff module imports typing: its annotations are strings, and
    its named tuple is collections.namedtuple. numpy 2 loads typing
    itself, so this saves import time only beside a numpy that does not."""
    imported = set()
    for path in (ROOT / "src" / "runoff").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.partition(".")[0])
    assert "collections" in imported and "typing" not in imported


def test_layer_record_times_every_stage(tmp_path, monkeypatch):
    """One tree: every stage at I=5, and one run of each of its processes,
    CLI_COMMAND at I=5, the first README command and the import, each CLI
    run ending with exit 0 (every README command runs as a process in
    tests/test_cli_process.py)."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # layers.main prepends --src
    layers = load(LAYERS, "bench_layers")
    monkeypatch.setattr(layers, "BATCH_S", 1e-4)
    monkeypatch.setattr(layers, "CLI_RUNS", 1)
    first = layers.quick_start()[:1]
    monkeypatch.setattr(layers, "quick_start", lambda: first)
    out = tmp_path / "BENCH.json"
    assert layers.main(["--sizes", "5", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["layers"]["after"]["seconds"]["I=5"]
    stages = layers.stages(runoff, 5, tmp_path)
    assert set(row) == set(stages) >= {"fit", "sensitivity_report", "ingest"}
    rows = runoff.IncrementalTriangle.from_rows(layers.random_rows(5))
    assert stages["ingest"]().values.tobytes() == rows.values.tobytes()
    for stage in row.values():
        assert set(stage) == {"best_s", "median_s", "calls", "batches", "peak_mb", "bytecodes"}
        assert stage["median_s"] >= stage["best_s"] > 0.0 and stage["bytecodes"] > 0
        assert stage["batches"] == layers.BATCHES and stage["calls"] >= stage["batches"]
    processes = json.loads(out.read_text())["layers"]["after"]["processes"]
    assert list(processes) == ["runoff verify random5.csv --stat mse-total --format text", "runoff reserves $TRI",
                               "import runoff"]
    for name, run in processes.items():
        measured = [key for key in run if key not in ("exits", "runs")]
        assert measured == (["import_s"] if name == "import runoff" else ["wall_s", "peak_rss_mb"])
        assert run["runs"] == 1 and run.get("exits", [0]) == [0]
        assert all(run[key]["median"] > 0.0 and run[key]["iqr"] == 0.0 for key in measured)


def test_a_trees_processes_are_the_sizes_the_readme_and_the_import(tmp_path, monkeypatch):
    """The process group of one tree: CLI_COMMAND on each size's file, then
    each `runoff` line of the README in README order, on that tree's own
    bundled triangle, each run in the group's directory, then `import
    runoff` from a copy of the tree's package that holds no __pycache__."""
    layers = load(LAYERS, "bench_layers")
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "runoff", other / "runoff")
    (other / "runoff" / "__pycache__").mkdir(exist_ok=True)
    made = []
    monkeypatch.setattr(layers, "cli_run", lambda src, argv, directory: made.append((src, argv, directory)))
    monkeypatch.setattr(layers, "import_run", lambda src: made.append(src))
    group = layers.processes(str(other), [5, 10], tmp_path)
    readme = layers.quick_start()
    assert [argv[0] for argv in readme] == ["reserves", "impact", "impact", "marginal", "verify", "heatmap"]
    assert list(group) == [
        *(f"runoff verify random{dim}.csv --stat mse-total --format text" for dim in (5, 10)),
        *("runoff " + " ".join(argv) for argv in readme),
        "import runoff",
    ]
    for call in group.values():
        call()
    tri = str(other / "runoff" / "data" / "belgian.csv")
    sized = [["verify", f"random{dim}.csv", "--stat", "mse-total", "--format", "text"] for dim in (5, 10)]
    assert made[:-1] == [(str(other), argv, tmp_path)
                         for argv in sized + [[tri if a == "$TRI" else a for a in argv] for argv in readme]]
    assert all("$TRI" in argv for argv in readme)
    copy = made[-1]
    assert copy.parent == tmp_path and (copy / "runoff" / "__init__.py").exists()
    assert not list(copy.rglob("__pycache__"))


def test_the_process_tests_run_the_readme_commands():
    from test_cli_process import COMMANDS, TRI

    assert load(LAYERS, "bench_layers").quick_start() == [
        ["$TRI" if a == TRI else "impacts.svg" if a == "<out>" else a for a in argv]
        for _, argv in list(COMMANDS.values())[:6]
    ]


def test_the_trees_take_each_round_in_turn():
    """Each round makes every call, each with the trees in turn, in
    reverse order every other round; each tree's results are its own."""
    layers = load(LAYERS, "bench_layers")
    made = []
    per_tree = [{name: lambda made_by=tree + name: made.append(made_by) or len(made) for name in "xy"}
                for tree in "ab"]
    first, second = layers.in_turn(3, per_tree)
    assert made == ["ax", "bx", "ay", "by", "bx", "ax", "by", "ay", "ax", "bx", "ay", "by"]
    assert first == {"x": [1, 6, 9], "y": [3, 8, 11]} and second == {"x": [2, 5, 10], "y": [4, 7, 12]}


def test_every_process_is_summarized_alike():
    """The median and interquartile range of every number the runs
    measure, the exit codes where a run gives one, and the run count."""
    layers = load(LAYERS, "bench_layers")
    runs = [{"exit": code, "wall_s": wall, "peak_rss_mb": 2.0} for code, wall in ((0, 1.0), (3, 4.0), (0, 5.0), (0, 8.0))]
    assert layers.summary(runs) == {
        "exits": [0, 3], "wall_s": {"median": 4.5, "iqr": 2.5}, "peak_rss_mb": {"median": 2.0, "iqr": 0.0}, "runs": 4,
    }
    assert layers.summary([{"import_s": t} for t in (2.0, 3.0, 6.0, 7.0)]) == {
        "import_s": {"median": 4.5, "iqr": 3.5}, "runs": 4,
    }


def test_each_stage_is_called_once_before_its_timed_batches(monkeypatch):
    """The warm-up call of every tree's stage is made and not counted."""
    layers = load(LAYERS, "bench_layers")
    monkeypatch.setattr(layers, "BATCH_S", 1e-4)
    made = [0, 0]
    calls = [lambda m=m: made.__setitem__(m, made[m] + 1) for m in range(2)]
    timings = layers.per_call([layers.packaged()] * 2, calls)
    assert made == [t["calls"] + 1 for t in timings]
    assert sys.modules["runoff"] is runoff


def test_layer_record_interleaves_two_trees(tmp_path, monkeypatch):
    """Two trees, loaded in one process each in its own sys.modules
    entries, time the same stages and processes under their own labels;
    the runoff in use before is in use after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    layers = load(LAYERS, "bench_layers")
    monkeypatch.setattr(layers, "BATCH_S", 1e-4)
    monkeypatch.setattr(layers, "cli_run", lambda src, argv, directory: {"exit": 0, "wall_s": 1.0, "peak_rss_mb": 1.0})
    monkeypatch.setattr(layers, "import_run", lambda src: {"import_s": 1.0})
    out = tmp_path / "BENCH.json"
    src, path = str(ROOT / "src"), list(sys.path)
    assert layers.main(["--src", src, src, "--label", "before", "after", "--sizes", "5", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["layers"]
    assert record["before"]["interleaved_with"] == ["after"] and record["after"]["interleaved_with"] == ["before"]
    assert set(record["before"]["seconds"]["I=5"]) == set(record["after"]["seconds"]["I=5"]) >= {"verify_round"}
    processes = record["before"]["processes"]
    assert processes == record["after"]["processes"] and len(processes) == 1 + 6 + 1
    assert processes["import runoff"] == {"import_s": {"median": 1.0, "iqr": 0.0}, "runs": 11}
    assert processes["runoff reserves $TRI"]["exits"] == [0]
    assert sys.modules["runoff"] is runoff and sys.path == path
    with pytest.raises(SystemExit):
        layers.main(["--src", src, src, "--label", "after"])


def test_the_console_script_is_the_process_entry():
    """`runoff` ends its process through runoff.cli.run, as `python -m
    runoff.cli` does."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"runoff": "runoff.cli:run"}


def test_the_numpy_floor_has_the_warning_pytest_turns_into_an_error():
    """The pytest configuration names numpy.exceptions.ComplexWarning, and
    numpy.exceptions first shipped in numpy 1.25: an older floor would
    declare a numpy the tests cannot start on."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert config["project"]["dependencies"] == ["numpy>=1.25"]
    assert config["tool"]["pytest"]["ini_options"]["filterwarnings"] == [
        "error::numpy.exceptions.ComplexWarning", "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning",
    ]
    assert "numpy 1.25+" in (ROOT / "README.md").read_text()


def test_main_in_process_freezes_nothing(capsys):
    """Only run, the process entry, moves objects to the permanent
    generation; main leaves the caller's collector as it was."""
    assert main(["reserves", bundled_path()]) == 0
    assert main(["verify", bundled_path(), "--format", "json"]) == 0
    assert gc.get_freeze_count() == 0


def test_layer_verify_stages_time_a_first_verification(fit_builds, tmp_path):
    """A triangle keeps its verifiers' baseline, so every call of a
    verify_* stage verifies a fresh triangle: each builds its baseline
    fit and its stack, and verify_round the baseline once and a stack for
    each of the three verifiers before the quantile's, which steps none."""
    layers = load(LAYERS, "bench_layers")
    stages = layers.stages(runoff, 6, tmp_path)
    for name, builds in (("verify_reserve_impacts", 2), ("verify_reserve_impacts_year", 2),
                         ("verify_mse_components", 2), ("verify_mse_components_year", 2), ("verify_round", 4)):
        for _ in range(2):
            fit_builds.clear()
            stages[name]()
            assert len(fit_builds) == builds, name


def test_layer_total_impact_stages_compute_their_gradients(monkeypatch, tmp_path):
    """A fit holds its total reserve and MSE gradients, so the stages that
    read them drop them first (unheld): every call computes its gradients,
    impact_quantile both."""
    layers = load(LAYERS, "bench_layers")
    stages = layers.stages(runoff, 6, tmp_path)
    grads = []
    grad = runoff.impact._grad
    monkeypatch.setattr(runoff.impact, "_grad", lambda *args: grads.append(args) or grad(*args))
    for name, per_call in (("impact_reserve_total", 1), ("impact_mse_total", 1), ("impact_quantile", 2)):
        for _ in range(2):
            grads.clear()
            stages[name]()
            assert len(grads) == per_call, name


@pytest.mark.parametrize("dim", [10, 20])
def test_a_verify_round_computes_each_total_gradient_once(monkeypatch, dim):
    """The reserve and MSE verifiers hold the total reserve and MSE
    gradients on the baseline fits, without sigmas and with them, and the
    attach of the sigmas carries the held reserve gradient: a verify_round
    makes 5 _grad calls (the reserve and BF totals; the MSE verifier's
    dChat closed form, per-year and total gradients), the quantile
    verifier none, and its report is the one a fresh triangle gives alone."""
    layers = load(LAYERS, "bench_layers")
    rows = layers.random_rows(dim)
    alone = runoff.verify_quantile_impacts(runoff.IncrementalTriangle.from_rows(rows), layers.QUANTILE_LEVEL)
    grads = []
    grad = runoff.impact._grad

    def counted(*args):
        grads.append(args)
        return grad(*args)

    monkeypatch.setattr(runoff.impact, "_grad", counted)
    monkeypatch.setattr(runoff.oracle, "_grad", counted)
    quantile = layers.verify_round(runoff, runoff.IncrementalTriangle.from_rows(rows))[-1]
    assert len(grads) == 5
    for name in ("analytic", "numeric", "rel_error"):
        assert getattr(quantile, name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("name", ["shrink", "mse_diagonal"])
def test_a_verify_round_computes_each_mse_coefficient_once(monkeypatch, name):
    """The MSE impacts' coefficients are values of the baseline fit with
    sigmas: a verify_round computes each once, where the MSE verifier's
    per-year and total gradients and its frozen MSE each read it."""
    layers = load(LAYERS, "bench_layers")
    cached = vars(runoff.Fit)[name]
    fits = []

    def counted(fit):
        fits.append(fit)
        return cached.func(fit)

    counted.__name__ = name
    monkeypatch.setattr(runoff.Fit, name, type(cached)(counted))
    layers.verify_round(runoff, runoff.IncrementalTriangle.from_rows(layers.random_rows(10)))
    assert len(fits) == 1


def test_every_value_a_fit_keeps_is_timed_by_a_layer_stage():
    """After a sensitivity report and a verify round, unheld leaves each
    fit their triangles keep exactly its fields of Fit and the values of
    FIT_VALUES it held, which the fit stage computes, and drops all else,
    the held gradients, coefficients and stepped totals among them:
    nothing an impact computes is kept where no stage of bench/layers.py
    times it."""
    layers = load(LAYERS, "bench_layers")
    rows = layers.random_rows(10)
    cums = []
    recording = types.SimpleNamespace(**vars(runoff))
    recording.cumulate = lambda inc: cums.append(runoff.cumulate(inc)) or cums[-1]
    layers.sensitivity_report(recording, runoff.IncrementalTriangle.from_rows(rows))
    inc = runoff.IncrementalTriangle.from_rows(rows)
    layers.verify_round(runoff, inc)
    cums.append(inc.__dict__["_cum"])
    fits = [fit for cum in cums for fit in cum.__dict__["_fit"] if isinstance(fit, runoff.Fit)]
    assert len(fits) == 4 and all(fit.sigma2 is not None for fit in fits[1::2])
    fields = {f.name for f in dataclasses.fields(runoff.Fit)}
    kept = fields.union(layers.FIT_VALUES)
    before = [set(vars(fit)) for fit in fits]
    assert all({"_reserve", "_mse", "shrink", "mse_diagonal"} <= names for names in before[1::2])
    assert runoff.oracle._STEPPED in before[3]
    for cum in cums:
        assert layers.unheld(runoff, cum, kept, lambda: "called") == "called"
    assert [set(vars(fit)) for fit in fits] == [names & kept for names in before]
    assert all(set(vars(fit)) == kept for fit in fits[1::2])
    assert all(fields <= set(vars(fit)) for fit in fits)


# The files whose frames may not run on the op path: numpy's Python wrappers
# of reductions, np.diag and np.iscomplexobj (numpy 2.x names, then 1.x), and
# the stdlib's functools (cached_property.__get__) and dataclasses (replace).
OFF_THE_OP_PATH = ("fromnumeric.py", "_methods.py", "_twodim_base_impl.py", "twodim_base.py",
                   "_type_check_impl.py", "type_check.py", "functools.py", "dataclasses.py")


def test_the_op_path_stays_off_numpys_python_wrappers():
    """A sensitivity report and a verify round at I=10 call numpy's C entry
    points, ufunc reductions and ndarray methods, and no frame of a file
    in OFF_THE_OP_PATH runs: numpy's wrappers dispatch in Python to the
    same C call, cached_property takes a lock on each first read in Python
    3.11, and dataclasses.replace introspects the fields; at the benchmark
    sizes that plumbing, not the arithmetic, sets the op time. Matched by
    file name, so numpy 1.x (numpy/core, numpy/lib) and 2.x (numpy/_core,
    numpy/lib/_*_impl.py) both count."""
    layers = load(LAYERS, "bench_layers")
    rows = layers.random_rows(10)

    def ops():
        layers.sensitivity_report(runoff, runoff.IncrementalTriangle.from_rows(rows))
        layers.verify_round(runoff, runoff.IncrementalTriangle.from_rows(rows))

    ops()  # the cell layouts and masks are built once per I
    wrappers = set()

    def profile(frame, event, arg):
        name = os.path.basename(frame.f_code.co_filename)
        if event == "call" and name in OFF_THE_OP_PATH:
            wrappers.add(f"{name}:{frame.f_code.co_name}")

    held = sys.getprofile()
    sys.setprofile(profile)
    try:
        ops()
    finally:
        sys.setprofile(held)
    assert not wrappers


def test_a_report_builds_its_objects_in_place():
    """A sensitivity report at I=10, from the increments on, builds its
    triangles, per-year containers, fit and lognormal fit in place
    (runoff.triangle._owned): no dataclass-generated __init__ (compiled
    from a string, so its frame's file is "<string>") and no
    Container.__post_init__ runs, where each copied an array the library
    had just built (10 and 8 of them per report). Container.__post_init__
    is the one __post_init__ of triangle.py."""
    layers = load(LAYERS, "bench_layers")
    rows = layers.random_rows(10)
    layers.sensitivity_report(runoff, runoff.IncrementalTriangle.from_rows(rows))
    ran = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__init__", "__post_init__"):
            ran.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")

    held = sys.getprofile()
    sys.setprofile(profile)
    try:
        layers.sensitivity_report(runoff, runoff.IncrementalTriangle.from_rows(rows))
    finally:
        sys.setprofile(held)
    assert not {"<string>:__init__", "triangle.py:__post_init__"} & set(ran), ran


def test_one_based_ranges_are_formatted_in_one_place():
    """Every "out of range 1..M" message of the library is formatted by
    runoff.triangle._one_based, so the index checks cannot drift apart
    again; DevelopmentFactors.product names its range of two indices, and
    the CLI words its usage and data errors its own way. Each message is
    found as (module, enclosing function, the call it is an argument of)."""
    found = set()
    for path in sorted((ROOT / "src" / "runoff").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and "out of range 1.." in str(node.value)
                    and not isinstance(parents[node], ast.Expr)):  # a docstring formats nothing
                enclosing = []
                while node in parents:
                    node = parents[node]
                    enclosing.append(node)
                function = next((n.name for n in enclosing if isinstance(n, ast.FunctionDef)), None)
                call = next((ast.unparse(n.func) for n in enclosing if isinstance(n, ast.Call)), None)
                found.add((path.name, function, call))
    assert ("triangle.py", "_one_based", "IndexError") in found
    others = found - {("triangle.py", "_one_based", "IndexError"), ("chainladder.py", "product", "IndexError")}
    assert all(name == "cli.py" and call in ("UsageError", "DataError") for name, _, call in others), others


def test_gate_sees_an_edit_to_the_cells_of_a_copied_report():
    """The oracle-verify gate reads report.cells, and its self-check edits
    cells[3] of a deep copy: cells must be one list, kept across reads."""
    gate, inputs = load(GATE, "perfbench_gate"), load(INPUTS, "perfbench_inputs")
    inc = runoff.IncrementalTriangle.from_rows(inputs.triangle_rows(inputs.REFERENCE_SEED, 0, 10))
    report = runoff.verify_reserve_impacts(inc)
    reference = gate.load_reference("oracle-verify")["reserve-total I=10"]
    assert gate.check_verdict(report, 10, reference) == []
    bad = copy.deepcopy(report)
    bad.cells[3]["analytic"] *= 1 + 1e-6
    assert gate.check_verdict(bad, 10, reference)


def test_every_round_zero_op_meets_the_benchmark_reference(tmp_path, monkeypatch, capsys):
    """The benchmark's correctness gate on every round-0 op of api-report
    (5) and oracle-verify (12), and on the six cli-bundled commands run
    in-process, the heatmap written under tmp_path: no problem, and every
    oracle verdict passes. perfbench/selfcheck.py gates one op of each."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gate, run, worker = (importlib.import_module(name) for name in ("gate", "run", "worker"))
    for name, count in (("api-report", 5), ("oracle-verify", 12)):
        ops = worker.Workload(runoff, name, 0, gate.load_reference(name)).round_ops(0)
        assert len(ops) == count
        for key, op, check in ops:
            problems, passed = check(op())
            assert problems == [] and passed, key
    svg = tmp_path / "impacts.svg"
    reference = gate.load_reference("cli-bundled")
    for key, args in run.CLI_COMMANDS:
        argv = [str(ROOT / a) if a == run.TRIANGLE else str(svg) if a == run.SVG_OUT else a for a in args]
        code = main(argv)
        text = capsys.readouterr().out + (svg.read_text() if "--out" in args else "")
        assert gate.check_cli(code, text, reference[key]) == [], key


def test_the_sweep_compares_two_trees_group_by_group(monkeypatch, capsys, tmp_path):
    """bench/sweep.py on one tree loaded twice. With the diagonal of the
    MSE gradients moved in one copy, exactly the MSE and quantile results
    of the API group at I = 4 differ. With that move undone and the CSV
    rendering edited to name a NaN, exactly the commands of the CLI group
    on the bundled triangle (per-year statistics at year 5 alone) that
    render a CSV differ, on stdout and with --out in the file, and break
    the contract in the edited copy. The runoff in use before is in use
    after."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    sweep = importlib.import_module("sweep")
    src, path = str(ROOT / "src"), bundled_path()
    for name, value in (("SIZES", (4,)), ("YEARS", (5,)), ("triangles", lambda tree, directory: [path]),
                        ("singles", lambda paths, directory: [])):
        monkeypatch.setattr(sweep, name, value)
    trees = [sweep.load(src), sweep.load(src)]
    groups = sweep.groups(trees[0], tmp_path)
    moved = trees[1]["runoff.chainladder"].Fit
    kept = moved.mse_diagonal

    def mse_diagonal(fit):
        return kept.func(fit) + 1.0

    monkeypatch.setattr(moved, "mse_diagonal", type(kept)(mse_diagonal))
    count, differ, breaks = sweep.sweep(trees, groups[:-1])
    assert sys.modules["runoff"] is runoff
    names = list(sweep.calls(runoff, 4))
    # 27: the quantile on a fresh triangle after the MSE verifier too; four
    # from_rows results and four of impact_rmse and marginal_contributions
    assert count == len(names) == 27 + 4 * 4
    assert [name for name, _ in differ] == [name for name in names if "mse" in name or "quantile" in name]
    assert breaks == []

    monkeypatch.setattr(moved, "mse_diagonal", kept)
    monkeypatch.setattr(trees[1]["runoff.cli"], "render_csv", lambda impacts: "edited nan\n")
    count, differ, breaks = sweep.sweep(trees, groups[-1:])
    assert sys.modules["runoff"] is runoff
    argvs = {name: call.args[1] for name, call in groups[-1](runoff).items()}
    assert count == len(argvs) == 2 * (4 + 9 * 10 + 5) + 5
    got = dict(differ)
    csv = {  # csv is the default --format
        name for name, a in argvs.items()
        if a[:2] in (["impact", path], ["marginal", path]) and dict(zip(a, a[1:])).get("--format", "csv") == "csv"
    }
    assert got and set(got) <= csv

    def to_file(name):
        return "--out" in argvs[name]

    assert {tuple(argvs[n]) for n in got if not to_file(n)} == {tuple(argvs[n][:-2]) for n in got if to_file(n)}
    edited = {False: (0, "edited nan\n", None), True: (0, "", b"edited nan\n")}  # (exit, stdout, file) by --out
    assert all((r[1].exit, r[1].stdout, r[1].written) == edited[to_file(n)] for n, r in got.items())
    assert all(main(argvs[n]) != 0 for n in csv - set(got) if not to_file(n))  # the ones that render nothing
    assert [name for name, _ in breaks] == [name for name in argvs if name in got]


def test_the_sweep_counts_contract_breaks_where_the_trees_agree(monkeypatch, capsys, tmp_path):
    """bench/sweep.py on one tree loaded twice, whose main raises on one
    argv of the CLI group in both copies: the copies agree, yet that
    command breaks the contract in each, with exit None and the error at
    the end of its stderr, and the report names it and gives exit 1. A
    document of exit 0 breaks it exactly where NOT_FINITE matches it,
    non-ASCII letters that match "inf" included."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    sweep = importlib.import_module("sweep")
    path = bundled_path()
    for name, value in (("SIZES", ()), ("triangles", lambda tree, directory: [path]),
                        ("singles", lambda paths, directory: [])):
        monkeypatch.setattr(sweep, name, value)
    trees = [sweep.load(str(ROOT / "src")), sweep.load(str(ROOT / "src"))]
    (commands,) = sweep.groups(trees[0], tmp_path)
    raising = ["reserves", path, "--format", "json"]
    (raised,) = (name for name, call in commands(runoff).items() if call.args[1] == raising)
    for cli in (tree["runoff.cli"] for tree in trees):
        def raise_on(argv, main=cli.main):
            if argv == raising:
                raise RuntimeError("raised")
            return main(argv)

        monkeypatch.setattr(cli, "main", raise_on)
    count, differ, breaks = sweep.sweep(trees, [lambda runoff: {raised: commands(runoff)[raised]}])
    assert sys.modules["runoff"] is runoff
    assert (count, differ, [name for name, _ in breaks]) == (1, [], [raised])
    assert [(r.exit, r.stderr.splitlines()[-1]) for r in breaks[0][1]] == [(None, "RuntimeError: raised")] * 2
    capsys.readouterr()
    assert sweep.report(["a", "b"], count, differ, breaks) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"{raised} breaks the contract" and printed[1].startswith("  a: exit None, 0 chars out, stderr ")
    assert printed[-1] == "1 results, 0 differ, 1 break the contract"
    documents = ("Infinity", "-inf,", "NaN", "\u0130nf", "\u0131nf", "info", "nanos", "1.0\n")
    assert [sweep.broken(sweep.Command(0, d, "", None)) for d in documents] == [True] * 5 + [False] * 3

"""The CLI as users start it: `python -m runoff.cli` in a fresh process,
which ends through runoff.cli.run.

Every run is a fresh interpreter with runoff importable from src. The
README quick-start commands, --help and one command per failing exit
code must write what in-process main writes: stdout, stderr, the --out
bytes and the exit code; with stdout closed, or never open, a process
writes nothing more and keeps its exit code, and a write to a full device,
on stdout or --out, --help's text too, is refused as a usage error; with
stderr closed or full, a process keeps its exit code. All the runs of this module
are started by one module fixture, two at a time, the two largest (15.8
MB of JSON at I=60, read whole and written to a pipe with no reader) first, so the module
adds about the wall time of its runs over two.
"""

import contextlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_path, random_triangle
from runoff.cli import ingest, main
from runoff.oracle import verify_mse_components
from test_cli import rows_file

ROOT = Path(__file__).resolve().parent.parent
# COLUMNS fixes argparse's help width, in the children and in-process alike.
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80"}
TRI = bundled_path()
OUT = "<out>"  # in an argv, a file of the run's own
LARGE = "<large>"  # in an argv, the I=60 triangle file
# name -> (exit code, argv): the README quick-start commands in README order,
# --help, and a command for each failing exit code.
COMMANDS = {
    "reserves": (0, ["reserves", TRI]),
    "impact-reserve-ay": (0, ["impact", TRI, "--stat", "reserve-ay", "--year", "8"]),
    "impact-quantile-json": (0, ["impact", TRI, "--stat", "quantile", "--q", "0.995", "--format", "json"]),
    "marginal-reserve-total": (0, ["marginal", TRI, "--stat", "reserve-total"]),
    "verify-reserve-total": (0, ["verify", TRI, "--stat", "reserve-total"]),
    "heatmap-reserve-ay": (0, ["heatmap", TRI, "--stat", "reserve-ay", "--year", "8", "--out", OUT]),
    "help": (0, ["--help"]),
    "usage-error": (1, ["impact", TRI, "--stat", "reserve-ay"]),
    "data-error": (2, ["reserves", str(ROOT / "tests" / "no-such-triangle.csv")]),
    "verify-fails": (3, ["verify", TRI, "--tolerance", "0"]),
}
# A child that registers an atexit handler, then runs the CLI as -m does.
ATEXIT = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print('atexit: json', 'json' in sys.modules, file=sys.stderr)); "
    "runpy.run_module('runoff.cli', run_name='__main__', alter_sys=True)"
)
# A child whose sys.stdout is None, as Python leaves it where descriptor 1
# was never open (`runoff ... >&-`), then runs the CLI as -m does.
NO_STDOUT = "import runpy, sys; sys.stdout = None; runpy.run_module('runoff.cli', run_name='__main__', alter_sys=True)"
LARGE_JSON = ["verify", LARGE, "--stat", "mse-total", "--format", "json"]
PIPE = subprocess.PIPE
CLOSED = "<closed>"  # in place of a stream's file, a pipe whose reader is gone before the child starts
FULL = "/dev/full"  # a device every write to fails with ENOSPC, where it exists
NEEDS_FULL = pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")
CLOSED_BUFFERED = {"unbuffered": False, "stdout": CLOSED}
FULL_BUFFERED = {"stdout": FULL, "unbuffered": False}
# name -> (argv, keyword arguments of child): every run of this module, the
# two large ones first. A closed run's stdout is closed before the command
# writes, as `| head -c 10` does; the buffered one's document is still in
# stdout's buffer when the command returns, unless it is larger than that
# buffer (closed-buffered-large-json), and the unbuffered one's is written
# at once. A full run's stdout is /dev/full, buffered as a file's is unless
# it is named unbuffered: the document's write, or --help's, fails in _write
# either way, and a buffered one's again in run's flush. A closed or full
# stderr fails the error line's write in _say, and a buffered one's again in
# run's flush.
RUNS = {
    "large-json": (LARGE_JSON, {}),
    "closed-buffered-large-json": (LARGE_JSON, CLOSED_BUFFERED),
    **{name: (argv, {}) for name, (_, argv) in COMMANDS.items()},
    "closed-buffered-text": (["verify", TRI, "--tolerance", "0"], CLOSED_BUFFERED),
    "closed-unbuffered-json": (["verify", TRI, "--format", "json"], {"stdout": CLOSED}),
    "closed-buffered-help": (["--help"], CLOSED_BUFFERED),
    "closed-buffered-command-help": (["reserves", "--help"], CLOSED_BUFFERED),
    "closed-buffered-data-error": (COMMANDS["data-error"][1], CLOSED_BUFFERED),
    "no-stdout-data-error": (COMMANDS["data-error"][1], {"code": NO_STDOUT}),
    "no-stdout-reserves": (COMMANDS["reserves"][1], {"code": NO_STDOUT}),
    "no-stdout-verify-fails": (COMMANDS["verify-fails"][1], {"code": NO_STDOUT}),
    "no-stdout-help": (["--help"], {"code": NO_STDOUT}),
    "closed-stderr-data-error": (COMMANDS["data-error"][1], {"stderr": CLOSED}),
    "closed-buffered-stderr-data-error": (COMMANDS["data-error"][1], {"stderr": CLOSED, "unbuffered": False}),
    **({"full-stdout-reserves": (COMMANDS["reserves"][1], FULL_BUFFERED),
        "full-stdout-help": (["--help"], FULL_BUFFERED),
        "full-unbuffered-stdout-help": (["--help"], {"stdout": FULL}),
        "full-out-reserves": ([*COMMANDS["reserves"][1], "--out", FULL], {}),
        "full-stderr-data-error": (COMMANDS["data-error"][1], {"stderr": FULL}),
        "full-buffered-stderr-data-error": (COMMANDS["data-error"][1], {"stderr": FULL, "unbuffered": False}),
        "full-stderr-usage-error": (COMMANDS["usage-error"][1], {"stderr": FULL})} if os.path.exists(FULL) else {}),
    "atexit-csv": (["reserves", TRI], {"code": ATEXIT}),
    "atexit-json": (["reserves", TRI, "--format", "json"], {"code": ATEXIT}),
}


def child(argv, unbuffered=True, code=None, stdout=PIPE, stderr=PIPE) -> tuple:
    """(exit code, stdout, stderr) of a fresh interpreter running
    `python -m runoff.cli argv`, or `python -c code argv`. Its stdout and
    its stderr are each PIPE, read whole; CLOSED, a pipe whose reader is
    gone; or the path of a file. A stream that is not read reads b""."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"} | ({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    head = ["-m", "runoff.cli"] if code is None else ["-c", code]
    with contextlib.ExitStack() as stack:
        files = []
        for how in (stdout, stderr):
            if how == CLOSED:
                reader, how = os.pipe()
                os.close(reader)
                stack.callback(os.close, how)
            elif how != PIPE:
                how = stack.enter_context(open(how, "wb"))
            files.append(how)
        proc = subprocess.Popen([sys.executable, *head, *argv], env=env, stdout=files[0], stderr=files[1])
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out or b"", err or b""


@pytest.fixture(scope="module")
def large(tmp_path_factory) -> str:
    """A random I=60 triangle file: its MSE verification is 15.8 MB of JSON."""
    rows = random_triangle(np.random.default_rng(60), 60).to_rows()
    return rows_file(tmp_path_factory.mktemp("large"), rows, "large60.csv")


@pytest.fixture(scope="module")
def processes(tmp_path_factory, large) -> dict:
    """name -> (exit code, stdout, stderr, bytes of its --out file or None)
    of every run of RUNS, two at a time, in the order of RUNS."""
    outs = tmp_path_factory.mktemp("process-out")

    def one(name):
        argv, kwargs = RUNS[name]
        out = outs / name
        code, stdout, stderr = child([str(out) if a == OUT else large if a == LARGE else a for a in argv], **kwargs)
        return code, stdout, stderr, out.read_bytes() if out.exists() else None

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(RUNS, pool.map(one, RUNS)))


@pytest.mark.parametrize("name", COMMANDS)
def test_a_process_writes_what_main_writes(name, processes, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    code, argv = COMMANDS[name]
    out = tmp_path / "out"
    try:
        got = main([str(out) if a == OUT else a for a in argv])
    except SystemExit as exc:  # --help
        got = exc.code
    stdout, stderr = capsys.readouterr()
    assert got == code
    assert processes[name] == (code, stdout.encode(), stderr.encode(), out.read_bytes() if out.exists() else None)


def test_a_large_document_is_piped_whole(processes, large):
    """Every cell's dict and the notes after them arrive."""
    code, stdout, stderr, _ = processes["large-json"]
    assert (code, stderr) == (0, b"") and len(stdout) > 15_000_000
    report = verify_mse_components(ingest(large))
    assert stdout.count(b'"rel_error": ') == report.size
    assert stdout.startswith(b'{\n  "statistic": "mse-components",\n  "tolerance": 1e-05,\n  "max_rel_error": '
                             + repr(report.max_rel_error).encode())
    assert stdout.endswith(b"\n  }\n}\n") and b'"notes": {' in stdout[-1000:]


@pytest.mark.parametrize("name, code", [
    ("closed-buffered-text", 3), ("closed-unbuffered-json", 0), ("closed-buffered-large-json", 0),
    ("closed-buffered-help", 0), ("closed-buffered-command-help", 0),
])
def test_a_closed_stdout_exits_with_the_commands_code_and_prints_nothing(processes, name, code):
    assert processes[name] == (code, b"", b"", None)


@pytest.mark.parametrize("name", ["closed-buffered-data-error", "no-stdout-data-error"])
def test_a_failing_command_without_a_reader_writes_its_error_alone(name, processes):
    """A closed stdout, or none at all, leaves the command's exit code and
    its error on stderr as they are."""
    assert processes[name] == processes["data-error"]


@pytest.mark.parametrize("name, code", [
    ("no-stdout-reserves", 0), ("no-stdout-verify-fails", 3), ("no-stdout-help", 0),
])
def test_a_stdout_never_open_takes_nothing_and_keeps_the_commands_code(processes, name, code):
    """--help's text too, which argparse would write on stderr."""
    assert processes[name] == (code, b"", b"", None)


@pytest.mark.parametrize("name, code", [
    ("closed-stderr-data-error", 2), ("closed-buffered-stderr-data-error", 2),
    *(pytest.param(name, code, marks=NEEDS_FULL) for name, code in (
        ("full-stderr-data-error", 2), ("full-buffered-stderr-data-error", 2), ("full-stderr-usage-error", 1))),
])
def test_a_stderr_closed_or_full_takes_nothing_and_keeps_the_commands_code(processes, name, code):
    """The error line goes nowhere, and the interpreter's flush at exit
    does not turn the code into 120."""
    assert processes[name] == (code, b"", b"", None)


@NEEDS_FULL
@pytest.mark.parametrize("name, where", [
    ("full-stdout-reserves", "stdout"), ("full-stdout-help", "stdout"), ("full-unbuffered-stdout-help", "stdout"),
    ("full-out-reserves", FULL),
])
def test_a_full_device_is_refused_as_a_usage_error(processes, name, where):
    """A write that fails for another reason than a gone reader is
    refused alike on stdout and --out, --help's text as a document,
    buffered or not, once, and the interpreter's flush at exit prints
    nothing more."""
    message = f"usage error: cannot write {where}: [Errno 28] No space left on device\n"
    assert processes[name] == (1, b"", message.encode(), None)


def test_main_returns_the_commands_code_on_a_closed_stdout(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["verify", TRI, "--tolerance", "0"]) == 3


@pytest.mark.parametrize("name, loaded", [("atexit-csv", False), ("atexit-json", True)])
def test_an_atexit_handler_registered_before_the_cli_runs_still_runs(processes, name, loaded):
    """The handler also reports whether json was imported: only by a
    command that writes JSON."""
    code, stdout, stderr, _ = processes[name]
    assert code == 0 and stdout.startswith(b"i,latest" if not loaded else b"{")
    assert stderr == f"atexit: json {loaded}\n".encode()

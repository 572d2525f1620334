"""The CLI as users start it: `python -m runoff.cli` in a fresh process,
which ends through runoff.cli.run.

RUNS is the one table of the CLI's process contract: each row is an argv
and how the child's stdout and stderr are given, and one rule checks each
row's exit code, stdout, stderr and --out bytes. A process gives what
in-process main gives on the same argv, where a stream that takes nothing
(a pipe whose reader is gone, a descriptor never open, a full stderr)
reads empty and a regular file holds the stream's bytes. The one
exception: a document or --help's text on a full stdout is refused as a
usage error, exit 1, buffered or not. The rows are the README
quick-start commands, --help and a command for each failing exit code,
on pipes; for each way stdout is given, a document within stdout's
buffer, one larger than it, --help and a data error; for each way stderr
is given, a data error and a usage error; and a few more. All of them
are started by one module fixture, two at a time, the two largest (15.8
MB of JSON at I=60, read whole and written to a pipe with no reader)
first, so the module adds about the wall time of its runs over two.
"""

import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_path, random_triangle
from runoff import cli
from runoff.cli import main
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
JSON = ["verify", TRI, "--format", "json"]
LARGE_JSON = ["verify", LARGE, "--stat", "mse-total", "--format", "json"]
# A child that registers an atexit handler, which prints on stdout whether
# json was imported (only by a command that writes JSON, so one whose argv
# holds "json"), then runs the CLI as -m does.
ATEXIT = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print('atexit: json', 'json' in sys.modules)); "
    "runpy.run_module('runoff.cli', run_name='__main__', alter_sys=True)"
)
# A first interpreter that closes the descriptor sys.argv[1] names, then
# becomes `python <the rest of its argv>`: the CLI starts with that stream
# never open, as `runoff ... >&-` starts it. Unlike Popen's preexec_fn,
# exec is safe beside the fixture's threads.
NEVER_OPEN = "import os, sys; os.close(int(sys.argv[1])); os.execv(sys.executable, [sys.executable, *sys.argv[2:]])"
# How child gives a stream: a pipe, read whole; a pipe whose reader is gone
# before the child starts (`| head -c 10`); a descriptor never open; a
# device every write to fails with ENOSPC (where it exists); a regular
# file (`> file`), read whole after the child exits.
PIPE, CLOSED, NEVER, FULL, FILE = subprocess.PIPE, "<closed>", "<never open>", "/dev/full", "<file>"
# mode -> (how a stream is given, whether the child is unbuffered). A
# buffered document larger than stdout's buffer is written at once, as an
# unbuffered one is; a smaller one stays in the buffer for run's flush.
MODES = {
    "closed-buffered": (CLOSED, False), "closed-unbuffered": (CLOSED, True), "never-open": (NEVER, True),
    **({"full-buffered": (FULL, False), "full-unbuffered": (FULL, True)} if os.path.exists(FULL) else {}),
}
# kind -> argv, run for each way stdout is given: a document within
# stdout's 8 KB buffer (exit 3), one larger than it, --help and a data
# error; and for each way stderr is given, a data error and a usage error.
STDOUT_KINDS = {"text": COMMANDS["verify-fails"][1], "json": JSON, "help": ["--help"],
                "data-error": COMMANDS["data-error"][1]}
STDERR_KINDS = {"data-error": COMMANDS["data-error"][1], "usage-error": COMMANDS["usage-error"][1]}
# name -> (argv, keyword arguments of child): every run of this module, the
# two large ones first.
RUNS = {
    "large-json": (LARGE_JSON, {}),
    "closed-buffered-large-json": (LARGE_JSON, {"stdout": CLOSED, "unbuffered": False}),
    **{name: (argv, {}) for name, (_, argv) in COMMANDS.items()},
    **{f"{mode}-{kind}": (argv, {"stdout": how, "unbuffered": unbuffered})
       for mode, (how, unbuffered) in {**MODES, "file": (FILE, True)}.items() for kind, argv in STDOUT_KINDS.items()},
    **{f"{mode}-stderr-{kind}": (argv, {"stderr": how, "unbuffered": unbuffered})
       for mode, (how, unbuffered) in MODES.items() for kind, argv in STDERR_KINDS.items()},
    "closed-buffered-command-help": (["reserves", "--help"], {"stdout": CLOSED, "unbuffered": False}),
    "never-open-reserves": (COMMANDS["reserves"][1], {"stdout": NEVER}),
    **({"full-buffered-reserves": (COMMANDS["reserves"][1], {"stdout": FULL, "unbuffered": False}),
        "full-out-reserves": ([*COMMANDS["reserves"][1], "--out", FULL], {})} if os.path.exists(FULL) else {}),
    "atexit-csv": (["reserves", TRI], {"code": ATEXIT}),
    "atexit-json": (["reserves", TRI, "--format", "json"], {"code": ATEXIT}),
    # the document's failed write leaves nothing buffered, so only _write sees the reader gone
    "atexit-closed-buffered-json": (JSON, {"code": ATEXIT, "stdout": CLOSED, "unbuffered": False}),
}


def child(argv, unbuffered=True, code=None, stdout=PIPE, stderr=PIPE) -> tuple:
    """(exit code, stdout, stderr) of a fresh interpreter running
    `python -m runoff.cli argv`, or `python -c code argv`, its stdout and
    its stderr each given as PIPE, CLOSED, NEVER, FILE or the path of a
    file. A stream that is not read reads b""."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"} | ({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    head = ["-m", "runoff.cli"] if code is None else ["-c", code]
    with contextlib.ExitStack() as stack:
        files = []
        for fd, how in enumerate((stdout, stderr), 1):
            if how == CLOSED:
                reader, how = os.pipe()
                os.close(reader)
                stack.callback(os.close, how)
            elif how == NEVER:
                how, head = PIPE, ["-c", NEVER_OPEN, str(fd), *head]  # a pipe, so what is written shows
            elif how == FILE:
                how = stack.enter_context(tempfile.TemporaryFile())
            elif how != PIPE:
                how = stack.enter_context(open(how, "wb"))
            files.append(how)
        proc = subprocess.Popen([sys.executable, *head, *argv], env=env, stdout=files[0], stderr=files[1])
        out, err = proc.communicate(timeout=120)
        if stdout == FILE:
            files[0].seek(0)
            out = files[0].read()
    return proc.returncode, out or b"", err or b""


def with_files(argv, out, large) -> list:
    """argv with OUT naming the file out and LARGE the I=60 triangle file."""
    return [str(out) if a == OUT else large if a == LARGE else a for a in argv]


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
        code, stdout, stderr = child(with_files(argv, out, large), **kwargs)
        return code, stdout, stderr, out.read_bytes() if out.exists() else None

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(RUNS, pool.map(one, RUNS)))


@pytest.fixture(scope="module")
def main_gives(tmp_path_factory, large):
    """argv (a tuple) -> (exit code, stdout, stderr, bytes of its --out file
    or None) of in-process main, each argv run once, with COLUMNS as the
    children have it."""
    out = tmp_path_factory.mktemp("main-out") / "out"

    @functools.cache
    def gives(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            mp.setenv("COLUMNS", ENV["COLUMNS"])
            try:
                code = main(with_files(argv, out, large))
            except SystemExit as exc:  # --help
                code = exc.code
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout.getvalue().encode(), stderr.getvalue().encode(), written

    return gives


def test_the_commands_are_what_the_table_names(main_gives):
    """Each of COMMANDS exits with the code it names, and the text kind's
    document fits stdout's buffer, which the JSON kind's does not."""
    assert {name: main_gives(tuple(argv))[0] for name, (_, argv) in COMMANDS.items()} == {
        name: code for name, (code, _) in COMMANDS.items()}
    assert len(main_gives(tuple(STDOUT_KINDS["text"]))[1]) < io.DEFAULT_BUFFER_SIZE < len(main_gives(tuple(JSON))[1])


@pytest.mark.parametrize("name", RUNS)
def test_a_process_gives_what_main_gives(name, processes, main_gives):
    """The one rule of the table (see the module docstring). An ATEXIT
    child's handler writes its line after the document, and the
    interpreter's flush at exit neither prints nor turns the code into 120."""
    argv, kwargs = RUNS[name]
    code, stdout, stderr, written = main_gives(tuple(argv))
    if kwargs.get("code") == ATEXIT:
        stdout += f"atexit: json {'json' in argv}\n".encode()
    if kwargs.get("stdout") == FULL and stdout:
        code, stdout, stderr = 1, b"", b"usage error: cannot write stdout: [Errno 28] No space left on device\n"
    if kwargs.get("stdout") in (CLOSED, NEVER):
        stdout = b""
    if kwargs.get("stderr") in (CLOSED, NEVER, FULL):
        stderr = b""
    assert processes[name] == (code, stdout, stderr, written)


def test_main_returns_the_commands_code_on_a_closed_stdout(monkeypatch):
    """And notes the gone reader for run, which alone moves descriptor 1."""
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_stdout_gone", False)
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["verify", TRI, "--tolerance", "0"]) == 3
    assert cli._stdout_gone

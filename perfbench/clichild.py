"""One traced CLI op, run as its own process.

    python perfbench/clichild.py <spans.npz> <runoff cli arguments...>

Installs the span wrappers, calls runoff.cli.main with the arguments,
writes the spans and exits with the command's exit code.
"""

import sys

import runoff.cli

import tracing


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        with recorder.op_scope(0):
            return runoff.cli.main(args)
    finally:
        tracing.save(spans_path, recorder.arrays())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

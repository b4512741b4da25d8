"""Run one ``conc-toolkit`` command in-process with the tracer installed.

Usage: python3 bench/traced_cli.py SPANS_FILE CLI_ARG...

Exits with the command's exit code and writes the spans to SPANS_FILE.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from conc_toolkit.cli import dispatch

    try:
        return dispatch(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())

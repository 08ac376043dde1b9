"""Run one cantornormal CLI invocation with layer tracing installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON INVOCATION_ID CLI_ARG...

The CLI's stdout and exit code are unchanged; the spans and counters of the
invocation are written to SPANS_JSON when it ends. The package must be
importable (PYTHONPATH=src).
"""

import sys

from layertrace import Tracer, install


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cantornormal import cli

    tracer = Tracer(invocation)
    install(tracer)
    try:
        return tracer.timed("cli", cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

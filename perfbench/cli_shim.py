"""Traced ``coldplasma`` CLI invocation.

    python3 perfbench/cli_shim.py TRACE_FILE <coldplasma CLI arguments...>

Installs the tracer, calls ``coldplasma.cli.main`` with the remaining
arguments, writes the trace summary and spans to TRACE_FILE and exits with
the CLI's exit code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import coldplasma.cli

    tracer = Tracer()
    tracer.install()
    try:
        return coldplasma.cli.main(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.span_records()}, fh)


if __name__ == "__main__":
    raise SystemExit(main())

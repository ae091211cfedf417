"""Traced stand-in for ``python -m sloccrank.cli``.

Usage: ``python trace_child.py SPANS_FILE CLI_ARGS...``.  Times the import of
``sloccrank.cli`` as the span ``cli.import``, wraps the public functions,
runs ``cli.main`` on the arguments (stdout stays the CLI's own), writes the
spans to SPANS_FILE and exits with the CLI's exit code.
"""

from __future__ import annotations

import sys
import time

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import sloccrank.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())

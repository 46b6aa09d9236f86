"""Run one ``coves`` CLI command with spans recorded around its layers.

Usage: python3 bench/trace_cli.py SPANS_JSON -- ARG...

Records the import of ``coves.cli`` as a span, rebinds the traced names
(see tracer.TARGETS), runs ``coves.cli.main(ARG...)`` inside a
``cli.main`` span, writes the spans to SPANS_JSON and exits with the
command's exit code.
"""

import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON -- ARG...")
    tracer = Tracer()
    t0 = perf_counter()
    import coves.cli

    tracer.spans.append(("cli.import", "cli.import", t0, perf_counter(), -1, None, None))
    tracer.install()
    try:
        code = tracer.span("cli.main", "cli.main", coves.cli.main, argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one trusslab command under the tracer and write its spans out.

    python3 bench/traced_cli.py SPANS_OUT ARGS...

does what `python3 -m trusslab.cli ARGS...` does, with the same output
and exit code, and writes the spans and counters of the run as JSON to
SPANS_OUT.  The import of trusslab.cli is recorded as the span
`cli.import`.
"""

import json
import sys
import time

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import trusslab.cli

    t1 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", "cli", "cli.import", t0, t1, 0, 0, 0.0, 0.0, False])
    tracer.install()
    try:
        code = trusslab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

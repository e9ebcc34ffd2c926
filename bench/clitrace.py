"""Run one evpricing CLI command under the outside-in tracer.

Usage: python3 bench/clitrace.py TRACE_JSON OP_ID ARGS...

Equivalent to ``python -m evpricing.cli ARGS...`` (same stdout, stderr and
exit code), and additionally writes the import time of ``evpricing.cli``,
the tracer's counters and its spans to TRACE_JSON.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import evpricing.cli as cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import tracer as tracing  # noqa: E402


def main() -> int:
    trace_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tr = tracing.Tracer()
    tr.install()
    tr.op_id = op_id
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as handle:
            json.dump({"import_s": _IMPORT_S, **tr.export()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

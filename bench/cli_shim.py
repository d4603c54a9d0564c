"""Traced CLI entry: ``python3 cli_shim.py TRACE_FILE ARGS...`` runs ``cmc-annuli ARGS``.

Installs the benchmark's wrappers around the package's layers, calls
``cmc_annuli.cli.main`` and writes the span totals, the counters and the
spans to TRACE_FILE as JSON. The exit code is main's. Import time is read
from ``-X importtime`` by the caller.
"""

import json
import sys

import harness
from tracing import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    harness.import_package()
    import cmc_annuli.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cmc_annuli.cli.main(argv)
    finally:
        with open(trace_file, "w") as fh:
            json.dump({"state": tracer.state(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

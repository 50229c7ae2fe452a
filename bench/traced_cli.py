"""Run one ``kp-rankone`` command with per-layer tracing.

Usage: python3 traced_cli.py TRACE_JSON COMMAND SCENARIO [options...]

Imports ``kp_rankone.cli``, installs the tracer, runs the command through
``cli.main`` and writes the tracer's counters to TRACE_JSON. Exits with
the command's exit code.
"""

from __future__ import annotations

import json
import sys

import kp_rankone.cli as cli
import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

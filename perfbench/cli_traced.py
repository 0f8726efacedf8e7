"""Run one ``admira`` CLI command with span tracing and save the spans.

Usage: python3 perfbench/cli_traced.py SPANS.json <admira arguments...>

Installs the wrappers of ``spans.py``, runs ``admira.cli.main`` on the
remaining arguments and writes ``{"spans", "bytes"}`` to SPANS.json.
"""

import json
import sys
from pathlib import Path

import admira.cli

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return admira.cli.main(argv)
    finally:
        recorded, nbytes = tracer.take()
        Path(out).write_text(json.dumps({"spans": recorded, "bytes": nbytes}))


if __name__ == "__main__":
    sys.exit(main())

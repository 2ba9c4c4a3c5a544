"""Run ``repro-butterfly serve`` with the benchmark's span wrappers installed.

    python3 perfbench/launch_server.py SPANS_JSON serve --port 0 ...

The wrappers go in before the server starts.  The spans stay in memory
for the server's lifetime and are written to ``SPANS_JSON`` once, after
SIGTERM has drained the server and ``repro.cli.main`` has returned.
``src/`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    out, cli_args = Path(argv[0]), argv[1:]
    tracer = tracing.Tracer().install()
    try:
        code = cli_main(cli_args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

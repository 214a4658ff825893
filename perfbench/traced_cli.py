"""Run ``boxdet.cli.main`` under the tracer in a fresh interpreter.

Usage: ``python3 perfbench/traced_cli.py det N M --format json``.  The
program's output and exit code are unchanged; the span totals follow on
stderr as one line that starts with ``MARKER``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

MARKER = "perfbench-trace "


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import boxdet.cli

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        return boxdet.cli.main(argv)
    finally:
        tracer.end_op()
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.snapshot()), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

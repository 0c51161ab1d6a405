"""Start the compile server with the benchmark's wrappers installed.

    python3 perfbench/serve_launcher.py [python -m repro.serve arguments]

``PERFBENCH_SPANS`` names the file the server's spans are written to
when it exits (tracing on); ``PERFBENCH_INJECT`` holds per-call delays
as ``entry=ms,...`` (see ``tracing.py``).  The server is stopped with
SIGINT, as ``python -m repro.serve`` expects.
"""

from __future__ import annotations

import os
import sys

import tracing


def main() -> int:
    spans_file = os.environ.get("PERFBENCH_SPANS")
    tracer = tracing.Tracer() if spans_file else None
    tracing.install(
        tracer, "server", tracing.parse_inject(os.environ.get("PERFBENCH_INJECT"))
    )
    from repro.serve.__main__ import main as serve

    try:
        return serve(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())

"""Run ``python -m repro serve`` with the benchmark's layer spans installed.

Usage: ``traced_server.py OUT.json serve [serve options...]``

The spans of :mod:`tracing` are installed before the server starts,
plus a ``request`` root span around each endpoint handler on the worker
threads.  ``SIGUSR1`` discards everything recorded so far (the
benchmark sends it after warming the memo up, with no request in
flight).  When the server stops (``SIGTERM``), the per-name span
summary and the boundary counts are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from tracing import LAYER_PATCHES, SpanTracer, install_hooks  # noqa: E402

#: Worker-side roots: one span per handled request.
REQUEST_PATCHES = (
    ("repro.server.app", "ReproServer._do_rewrite", "request", False),
    ("repro.server.app", "ReproServer._do_evaluate", "request", False),
)


def main() -> int:
    out = Path(sys.argv[1])
    require_program()
    tracer = SpanTracer()
    install_hooks(tracer)
    tracer.install(LAYER_PATCHES + REQUEST_PATCHES)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli import main as repro_main
    try:
        status = repro_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"summary": tracer.summary(),
                                   "counts": dict(tracer.counts)}),
                       encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())

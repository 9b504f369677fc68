"""Run ``python -m repro.server`` with the service layers traced.

Usage::

    python3 layerbench/serve_traced.py --spans-out PATH serve [options]

Installs the span wrappers of ``tracing.SERVICE_LAYERS`` and
``tracing.WORKER_LAYERS`` in this process, hands the remaining
arguments to ``repro.server.__main__``, and writes the server's spans
to ``PATH`` as JSON lines once the server has shut down.

Explorations run in forked workers, which inherit the wrappers.  A
worker appends each job's spans to ``worker_spans_path(PATH, pid)``
before it reports the job done, so a client holding a reply knows that
job's spans are on disk.
"""

from __future__ import annotations

import functools
import os
import sys

from tracing import SERVICE_LAYERS, WORKER_LAYERS, Tracer


def worker_spans_path(spans_out: str, pid: int | str) -> str:
    """Where worker ``pid`` writes its spans (``"*"`` globs them all)."""
    root, ext = os.path.splitext(spans_out)
    return f"{root}-worker-{pid}{ext}"


def _flush_each_job(tracer: Tracer, spans_out: str) -> None:
    """Wrap the job runner so a forked worker writes out each job's spans."""
    import repro.server.jobs as jobs

    run = jobs._run_descriptor
    server_pid = os.getpid()

    @functools.wraps(run)
    def run_and_flush(*args, **kwargs):
        first = len(tracer.spans)
        try:
            return run(*args, **kwargs)
        finally:
            if os.getpid() != server_pid:
                tracer.dump(
                    worker_spans_path(spans_out, os.getpid()), first, "a"
                )
                del tracer.spans[first:]

    tracer.patch(jobs, "_run_descriptor", run_and_flush)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    from repro.server.__main__ import main as server_main

    spans_out = argv[1]
    tracer = Tracer()
    tracer.install(SERVICE_LAYERS + WORKER_LAYERS)
    tracer.trace_properties(
        "repro.server.descriptor", ("channels_property", "spec_property")
    )
    _flush_each_job(tracer, spans_out)
    try:
        return server_main(argv[2:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The ``serve_http`` system under test, in a process of its own.

    python3 perfbench/server.py --seed N --trace 0|1

Builds the benchmark model, hosts it as ``bench`` in a
``MicroBatchService`` with default ``ServeOptions`` behind a
``ServeHTTPServer`` on an ephemeral localhost port, and prints
``{"port": P}`` once it listens.  It serves until its standard input
closes, then shuts down and prints one JSON summary line: its peak RSS
and, when tracing, the in-server spans.

Tracing wraps ``MicroBatchService.predict``/``predict_stream`` (the
time spent in the service is added to each response as
``bench_service_ms``, so the client can subtract it from its own
latency), ``ForwardPlan.forward``/``__call__`` and
``MultiStreamSession.process_many``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import build_model, peak_rss_mb
from tracer import Tracer

MODEL = "bench"


def _service_ms(span, args, result):
    result["bench_service_ms"] = span.ms
    return None


def _plan_rows(span, args, result):
    return {"rows": int(result.shape[0])}


def _fleet_work(span, args, result):
    return {"rows": len(result), "steps": sum(int(v.shape[0]) for v in result.values())}


def install(tracer: Tracer) -> None:
    from repro.compile import ForwardPlan
    from repro.core import MultiStreamSession
    from repro.serve import MicroBatchService

    tracer.span(MicroBatchService, "predict", "service.predict", _service_ms)
    tracer.span(MicroBatchService, "predict_stream", "service.stream", _service_ms)
    # ``__call__`` is an alias bound when the class was created.
    tracer.span(ForwardPlan, "forward", "plan.forward", _plan_rows)
    tracer.span(ForwardPlan, "__call__", "plan.forward", _plan_rows)
    tracer.span(MultiStreamSession, "process_many", "fleet.process_many", _fleet_work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.serve import MicroBatchService, ServeHTTPServer, ServeOptions

    tracer = Tracer()
    if args.trace:
        install(tracer)
    service = MicroBatchService(ServeOptions())
    service.register(MODEL, build_model(args.seed))
    server = ServeHTTPServer(service, port=0).start_background()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.close()
        service.close()
        tracer.close()
    spans = [
        {"name": sp.name, "start": sp.start, "ms": sp.ms, **(sp.attrs or {})}
        for sp in tracer.spans
    ]
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

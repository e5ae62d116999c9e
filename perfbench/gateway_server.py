"""The server process of the ``gateway-mnist`` workload.

Boots what ``python -m repro serve`` boots with its defaults (serial
``InferenceServer``, ``batch_max=64``, ``deadline_ms=2``, admission
queue limit 1024) over the MNIST-shaped network, behind a real
``Gateway`` on an ephemeral port, with one bench tenant whose rate limit
no run can reach.  It talks to the benchmark over stdin/stdout, one JSON
object per line:

* on start it prints ``{"ready": true, "port": ..., "plan": ...}``;
* ``trace`` installs the request-path span wrappers (answers
  ``{"traced": true}``);
* ``stop`` (or EOF) shuts the gateway and server down and prints the
  server counters, plan-cache counters and span summaries, then exits.

Run as ``python3 perfbench/gateway_server.py --cache DIR [--trace 1]``;
with ``--trace 1`` the set-up is traced too.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ensure_src_on_path

BENCH_TENANT = {"name": "bench", "api_key": "bench-key",
                "rate_per_s": 1e9, "burst": 1_000_000_000, "priority": 0}


def _send(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    ensure_src_on_path()

    from serving import (
        MNIST,
        compile_cached,
        instrument_gateway,
        instrument_setup,
        stats_dict,
    )
    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        instrument_setup(tracer)

    from repro.gateway import (
        AdmissionController,
        ApiKeyAuthenticator,
        Gateway,
        Tenant,
    )
    from repro.serve import InferenceServer

    compiled, cache = compile_cached(MNIST, args.cache)
    server = InferenceServer(compiled=compiled, batch_max=64,
                             deadline_ms=2.0, workers=0).start()
    gateway = Gateway(
        server,
        authenticator=ApiKeyAuthenticator([Tenant(**BENCH_TENANT)]),
        admission=AdmissionController(server, queue_limit=1024),
    ).run_in_thread()
    tracer.uninstall()
    setup_summary = tracer.summary()
    tracer.clear()
    _send({"ready": True, "port": gateway.port,
           "plan": compiled.fingerprint})

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                instrument_gateway(tracer, gateway)
                _send({"traced": True})
            elif command == "stop":
                break
    finally:
        gateway.close()
        stats = stats_dict(server)
        server.stop()
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        _send({"stats": stats,
               "cache": {"hits": cache.hits, "misses": cache.misses},
               "setup_summary": setup_summary,
               "summary": tracer.summary()})
    return 0


if __name__ == "__main__":
    sys.exit(main())

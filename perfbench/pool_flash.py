"""Workloads ``pool-flash-small`` and ``pool-flash-mnist``: a closed loop
of flash crowds through the supervised shared-memory pool.

``InferenceServer(workers=2, batch_max=64)``.  A crowd is 64
simultaneous ``submit`` calls; the next crowd is released only when
every answer of this one is back, so every batch is a full 64-sample
block sharded over both workers.  Each request is timed from its
crowd's release.  BLAS thread variables are left as the caller set them.

``pool-flash-small`` serves 12-step trains on the 11-8-5 network: the
kernel is tiny, so the pool's own path (shm copy-in, queue hop,
copy-out, supervision) dominates.  ``pool-flash-mnist`` serves 2-step
trains on 784-512-10; with default BLAS threads its throughput flips
between two modes every few seconds (README.md), so it is runnable but
not listed in ``BENCHMARK.json``.

The pool path is CPU-bound, so latency, throughput and set-up are
reported host-normalised (:class:`common.HostSpeed`); raw figures are
in the report.
"""

from __future__ import annotations

import time
from typing import Dict

from common import (
    HostSpeed,
    ScratchDir,
    WorkloadResult,
    median,
    percentile,
    seeded,
    spans_path,
    table_rows,
    tail_percentile,
)
from serving import (
    MNIST,
    answers_match,
    instrument_server,
    oracle_layer_counts,
    reference_oracle,
    serve_layer_metrics,
    server_stat_metrics,
    setup_layer_metrics,
    small_spec,
    start_server,
    stats_dict,
)
from tracing import Tracer

#: workload -> (network spec factory, steps per train, warm-up rounds);
#: the MNIST pool needs several rounds before its first slow BLAS calls
#: are behind it.
VARIANTS = {
    "pool-flash-small": (small_spec, 12, 2),
    "pool-flash-mnist": (lambda: MNIST, 2, 4),
}
INPUTS = 256
CROWD = 64
MIN_SAMPLES = 1000
SETUP_REPEATS = 5
SERVER = {"batch_max": 64, "deadline_ms": 2.0, "workers": 2}


def _phase(server, oracle, rng, seconds, host) -> Dict:
    """Release crowds until time is up (and enough samples are in).
    Between crowds, while the server is idle and outside every timed
    interval, the answers are checked and the host is sampled."""
    trains = oracle.trains
    latencies, crowd_s, mismatches, answered = [], [], 0, 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or answered < MIN_SAMPLES:
        host.tick()
        indices = rng.integers(0, len(trains), CROWD).tolist()
        release = time.perf_counter()
        sent, futures = [], []
        for index in indices:
            sent.append(time.perf_counter())
            futures.append(server.submit(trains[index]))
        results = [f.result(timeout=60) for f in futures]
        crowd_s.append(time.perf_counter() - release)
        for t_sent, res in zip(sent, results):
            latencies.append((t_sent - release) * 1000.0 + res.latency_ms)
        mismatches += answers_match(results, indices, oracle)
        answered += len(results)
    return {"latency_ms": latencies, "answered": answered,
            "mismatches": mismatches, "crowd_s": crowd_s}


def run(name: str, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    make_spec, steps, rounds = VARIANTS[name]
    spec = make_spec()
    result = WorkloadResult()
    _, oracle = reference_oracle(spec, seed, stream=3, count=INPUTS,
                                 steps=steps)
    host = HostSpeed()
    tracer = Tracer() if trace else None
    warm_indices = list(range(CROWD))
    with ScratchDir("pool-flash-") as scratch:
        server, setup_times, warm, record = start_server(
            spec, scratch / "plans", SETUP_REPEATS,
            [oracle.trains[i] for i in warm_indices], host, tracer,
            rounds=rounds, **SERVER)
        try:
            phase_s = seconds / 2 if trace else seconds
            plain = _phase(server, oracle, seeded(seed, 3, 0), phase_s,
                           host)
            traced = None
            if trace:
                instrument_server(tracer, server)
                traced = _phase(server, oracle, seeded(seed, 3, 1),
                                phase_s, host)
                tracer.uninstall()
            stats = stats_dict(server)
        finally:
            server.stop()

    result.check("warm-up answers equal forward_rows",
                 sum(answers_match(a, warm_indices, oracle)
                     for a in warm) == 0)
    result.check("server resolved every accepted request",
                 stats["requests"] == stats["completed"])
    result.check("the pool served every batch (no serial fallback)",
                 stats["pool_failures"] == 0
                 and stats["poison_batches"] == 0
                 and stats["workers_alive"] == SERVER["workers"])
    phases = [plain] + ([traced] if traced else [])
    result.attempted = sum(p["answered"] for p in phases)
    result.failed = sum(p["mismatches"] for p in phases)
    result.counts["latency_samples"] = len(plain["latency_ms"])
    raw = {
        "setup_s": median(setup_times),
        "latency_p50_ms": percentile(plain["latency_ms"], 50),
        "throughput_rps": CROWD / median(plain["crowd_s"]),
    }
    result.e2e = {
        "setup_s": host.time(raw["setup_s"]),
        "latency_p50_ms": host.time(raw["latency_p50_ms"]),
        "throughput_rps": host.rate(raw["throughput_rps"]),
    }
    result.report = {
        "latency_p99_ms": tail_percentile(plain["latency_ms"]),
        "failed_share": result.failed / result.attempted,
        "bench.host_calib_ms": host.ms,
        **{f"{k}.raw": v for k, v in raw.items()},
    }
    if trace:
        summary = tracer.summary()
        tracer.write(spans_path(name))
        layer = serve_layer_metrics(summary, sum(traced["crowd_s"]))
        layer.update(server_stat_metrics(stats))
        layer.update(setup_layer_metrics(record["summary"], record["hits"],
                                         record["misses"]))
        layer.update(oracle_layer_counts(oracle))
        layer["bench.host_calib_ms"] = host.ms
        traced_p50 = percentile(traced["latency_ms"], 50)
        base = raw["latency_p50_ms"]
        layer["bench.trace_overhead_ms"] = traced_p50 - base
        layer["bench.trace_overhead_share"] = (traced_p50 - base) / base
        result.layer = layer
        result.self_table = (
            table_rows(summary, "latency_p50_ms", traced_p50)
            + table_rows(record["summary"], "setup_ms",
                         raw["setup_s"] * 1000.0))
    return result

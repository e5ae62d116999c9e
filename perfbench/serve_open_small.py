"""Workload ``serve-open-small``: open loop on ``InferenceServer.submit``.

No HTTP.  One generator thread sends Poisson arrivals of 12-step trains
for the 11-8-5 loadgen network to a serial server (``batch_max=64``,
``deadline_ms=2``), first at a nominal rung of 1,000 req/s, then at a
heavy rung of 4,000 req/s.  Each request is timed from the instant it
was due, so a stalled generator charges its delay to the requests
behind it; the generator's own lag is reported beside.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import Dict, List

import numpy as np

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

NAME = "serve-open-small"
STEPS = 12
INPUTS = 512
#: (rung, offered rate in req/s, share of the run's seconds)
RUNGS = (("nominal", 1000.0, 0.5), ("heavy", 4000.0, 0.5))
MIN_SAMPLES = 1000
WARMUP = 64
SETUP_REPEATS = 7
SERVER = {"batch_max": 64, "deadline_ms": 2.0, "workers": 0}


def _rung(server, oracle, rng, rate, seconds) -> Dict:
    """Send one rung's Poisson schedule.

    While ahead of schedule the generator takes the answers of resolved
    futures and drops the futures, so the harness holds only requests in
    flight and adds little collector work of its own; answers are
    checked after the rung.
    """
    count = max(MIN_SAMPLES, int(rate * seconds))
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    indices = rng.integers(0, len(oracle.trains), count).tolist()
    trains = oracle.trains
    sent_s = [0.0] * count
    served_ms = [0.0] * count
    answers = [None] * count
    pending: deque = deque()

    def collect(block: bool) -> None:
        while pending and (block or pending[0][1].done()):
            i, future = pending.popleft()
            answers[i] = future.result(timeout=60)
            served_ms[i] = answers[i].latency_ms

    gc.collect()
    start = time.perf_counter() + 0.002
    due = start + offsets
    for i, at in enumerate(due.tolist()):
        collect(block=False)
        wait = at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent_s[i] = time.perf_counter()
        pending.append((i, server.submit(trains[indices[i]])))
    collect(block=True)
    lag_ms = (np.asarray(sent_s) - due) * 1000.0
    latency = lag_ms + np.asarray(served_ms)
    return {
        "latency_ms": latency.tolist(),
        "lag_ms": lag_ms.tolist(),
        "wall_s": float((due + latency / 1000.0).max() - start),
        "answered": count,
        "mismatches": answers_match(answers, indices, oracle),
    }


def _phase(server, oracle, seed, phase, seconds) -> Dict[str, Dict]:
    return {
        rung: _rung(server, oracle, seeded(seed, 2, phase, i), rate,
                    seconds * share)
        for i, (rung, rate, share) in enumerate(RUNGS)
    }


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    spec = small_spec()
    _, oracle = reference_oracle(spec, seed, stream=2, count=INPUTS,
                                 steps=STEPS)
    host = HostSpeed()
    tracer = Tracer() if trace else None
    warm_indices = list(range(WARMUP))
    with ScratchDir("serve-open-") as scratch:
        server, setup_times, warm, record = start_server(
            spec, scratch / "plans", SETUP_REPEATS,
            [oracle.trains[i] for i in warm_indices], host, tracer,
            **SERVER)
        try:
            phase_s = seconds / 2 if trace else seconds
            plain = _phase(server, oracle, seed, 0, phase_s)
            host.sample()
            traced = None
            if trace:
                instrument_server(tracer, server)
                traced = _phase(server, oracle, seed, 1, phase_s)
                tracer.uninstall()
            stats = stats_dict(server)
        finally:
            server.stop()

    result.check("warm-up answers equal forward_rows",
                 sum(answers_match(a, warm_indices, oracle)
                     for a in warm) == 0)
    result.check("server resolved every accepted request",
                 stats["requests"] == stats["completed"])
    phases = [plain] + ([traced] if traced else [])
    result.attempted = sum(r["answered"] for p in phases
                           for r in p.values())
    result.failed = sum(r["mismatches"] for p in phases
                        for r in p.values())
    nominal, heavy = plain["nominal"], plain["heavy"]
    result.counts["latency_samples"] = len(nominal["latency_ms"])
    result.counts["latency_samples.heavy"] = len(heavy["latency_ms"])
    # Latency is dominated by the 2 ms coalescing window and throughput
    # follows the offered rate, neither of which scales with host speed:
    # they stay raw.  Set-up is CPU work and is host-normalised.
    result.e2e = {
        "setup_s": host.time(median(setup_times)),
        "latency_p50_ms": percentile(nominal["latency_ms"], 50),
        "throughput_rps": heavy["answered"] / heavy["wall_s"],
    }
    result.report = {
        "latency_p99_ms": tail_percentile(nominal["latency_ms"]),
        "failed_share": result.failed / result.attempted,
        "latency_p50_ms.heavy": percentile(heavy["latency_ms"], 50),
        "latency_p99_ms.heavy": tail_percentile(heavy["latency_ms"]),
        "bench.generator_lag_p99_ms": tail_percentile(
            nominal["lag_ms"] + heavy["lag_ms"]),
        "bench.host_calib_ms": host.ms,
        "setup_s.raw": median(setup_times),
    }
    if trace:
        summary = tracer.summary()
        tracer.write(spans_path(NAME))
        wall = sum(r["wall_s"] for r in traced.values())
        layer = serve_layer_metrics(summary, wall)
        layer.update(server_stat_metrics(stats))
        layer.update(setup_layer_metrics(record["summary"], record["hits"],
                                         record["misses"]))
        layer.update(oracle_layer_counts(oracle))
        layer["bench.host_calib_ms"] = host.ms
        lags: List[float] = traced["nominal"]["lag_ms"] + \
            traced["heavy"]["lag_ms"]
        layer["bench.generator_lag_p99_ms"] = tail_percentile(lags)
        traced_p50 = percentile(traced["nominal"]["latency_ms"], 50)
        base = result.e2e["latency_p50_ms"]
        layer["bench.trace_overhead_ms"] = traced_p50 - base
        layer["bench.trace_overhead_share"] = (traced_p50 - base) / base
        result.layer = layer
        result.self_table = (
            table_rows(summary, "latency_p50_ms", traced_p50)
            + table_rows(record["summary"], "setup_ms",
                         median(setup_times) * 1000.0))
    return result

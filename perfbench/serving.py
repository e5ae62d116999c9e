"""Serving-side pieces shared by the three serving workloads and the
gateway server process: the two networks, seeded inputs with their
serial ``forward_rows`` answers, tracing wrappers and the per-layer
metrics derived from their spans."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from common import (
    BATCH_BUCKETS,
    layer_time_stats,
    median,
    seeded,
)

#: The MNIST-shaped serving network of ``benchmarks/legacy_runtime.py``
#: ``make_serving_workload`` (same generator seed, sizes and SC count),
#: compiled for the serving stack's default 16x16 chip.
MNIST = {"seed": 2024, "sizes": (784, 512, 10), "sc_per_npe": 10,
         "chip_n": 16}


def small_spec() -> Dict:
    """The 11-8-5 network ``python -m repro loadtest`` serves."""
    from repro.gateway.loadgen import WORKLOAD

    return {"seed": WORKLOAD["seed"], "sizes": tuple(WORKLOAD["sizes"]),
            "sc_per_npe": WORKLOAD["sc_per_npe"],
            "chip_n": WORKLOAD["chip_n"]}


def build_network(spec: Dict):
    from repro.harness import random_binarized_network

    rng = np.random.default_rng(spec["seed"])
    return random_binarized_network(rng, sizes=spec["sizes"],
                                    sc_per_npe=spec["sc_per_npe"])


def compile_cached(spec: Dict, cache_dir):
    """Build the network and fetch its plan through a ``PlanCache``
    rooted at ``cache_dir`` -- the serving start-up path."""
    from repro.ssnn.compile import PlanCache

    cache = PlanCache(cache_dir)
    compiled = cache.get_or_compile(build_network(spec), spec["chip_n"],
                                    spec["sc_per_npe"])
    return compiled, cache


@dataclass
class Oracle:
    """Seeded request inputs and their serial answers.

    ``rasters[i]`` is ``forward_rows(trains[i])`` reshaped to
    ``(steps, classes)``; ``rates``/``predictions`` follow the serving
    layer's definition.  ``synops``/``spurious``/``reload_events`` total
    one pass over the inputs, in the paper's units.
    """

    trains: np.ndarray  # (count, steps, in_features)
    rasters: np.ndarray  # (count, steps, classes)
    rates: np.ndarray  # (count, classes)
    predictions: np.ndarray  # (count,)
    synops: int
    spurious: int
    reload_events: int


def make_oracle(compiled, seed: int, stream: int, count: int,
                steps: int, rate: float = 0.4) -> Oracle:
    """``count`` seeded ``(steps, in_features)`` Bernoulli trains (input
    stream ``stream`` of ``seed``) and their serial answers."""
    rng = seeded(seed, stream)
    trains = (rng.random((count, steps, compiled.in_features)) < rate
              ).astype(np.float64)
    rasters, synops, spurious = [], 0, 0
    for train in trains:
        decisions, spur, syn = compiled.forward_rows(train)
        rasters.append(decisions)
        synops += syn
        spurious += spur
    rasters = np.stack(rasters)
    rates = rasters.mean(axis=1)
    return Oracle(
        trains=trains, rasters=rasters, rates=rates,
        predictions=rates.argmax(axis=1), synops=int(synops),
        spurious=int(spurious),
        reload_events=int(compiled.reload_events) * steps * count,
    )


def reference_oracle(spec: Dict, seed: int, stream: int, count: int,
                     steps: int):
    """Compile ``spec`` without any cache (the reference plan) and build
    the oracle on it; returns ``(reference, oracle)``."""
    from repro.ssnn import compile_network

    reference = compile_network(build_network(spec), spec["chip_n"],
                                spec["sc_per_npe"])
    return reference, make_oracle(reference, seed, stream, count, steps)


def oracle_layer_counts(oracle: Oracle) -> Dict[str, float]:
    return {"ssnn.synops": oracle.synops,
            "ssnn.spurious": oracle.spurious,
            "ssnn.reload_events": oracle.reload_events}


# -- tracing -----------------------------------------------------------------


def _rows(*args) -> Dict:
    return {"rows": int(len(args[-1]))}


def _batch_attrs(batch) -> Dict:
    latencies = []
    for request in batch:
        future = request.future
        if future.done() and not future.cancelled() \
                and future.exception() is None:
            latencies.append(future.result().latency_ms)
    return {"size": len(batch), "latency_ms": latencies}


def instrument_setup(tracer) -> None:
    """Spans around plan compile and plan-cache lookup."""
    import repro.ssnn.compile as compile_module

    tracer.wrap(compile_module, "compile_network", "ssnn.plan.compile")
    tracer.wrap(compile_module.PlanCache, "get_or_compile",
                "ssnn.plan_cache.get")


def instrument_server(tracer, server) -> None:
    """Spans around submit, each coalesced batch, its backend call and
    the ``ssnn`` kernels underneath (serial and pool)."""
    from repro.ssnn.compile import CompiledNetwork
    from repro.ssnn.pool import InferencePool

    batch_ids = itertools.count()
    tracer.wrap(server, "submit", "serve.submit")
    tracer.wrap(server, "_run_batch", "serve.batch",
                key=lambda batch: f"batch-{next(batch_ids)}",
                attrs=_batch_attrs)
    tracer.wrap(server, "_forward", "serve.backend", attrs=_rows)
    tracer.wrap(CompiledNetwork, "forward_rows", "ssnn.forward",
                attrs=_rows)
    tracer.wrap(InferencePool, "infer_rows", "ssnn.pool.infer",
                attrs=_rows)


def instrument_gateway(tracer, gateway) -> None:
    """Spans around the gateway's per-request hops.  The request id is
    the client's ``X-Bench-Request-Id`` header."""
    import repro.gateway.server as server_module

    tracer.wrap(gateway, "_handle_infer", "gateway.request",
                key=lambda request: request.headers.get(
                    "x-bench-request-id"))
    tracer.wrap(server_module, "parse_infer_request", "gateway.parse")
    tracer.wrap(server_module, "infer_response_body", "gateway.encode")
    tracer.wrap(gateway.authenticator, "authenticate", "gateway.auth")
    tracer.wrap(gateway.rate_limiter, "allow", "gateway.rate")
    tracer.wrap(gateway.admission, "check", "gateway.admission")
    instrument_server(tracer, gateway.server)


# -- per-layer metrics -------------------------------------------------------


def _per_row_us(entry) -> float:
    rows = sum(a["rows"] for a in entry["attrs"])
    return 1000.0 * sum(entry["total_ms"]) / rows if rows else 0.0


def serve_layer_metrics(summary: Dict, wall_s: float) -> Dict[str, float]:
    """``serve.*`` and ``ssnn`` kernel metrics from a traced phase."""
    out: Dict[str, float] = {}
    batch = summary.get("serve.batch")
    backend = summary.get("serve.backend", {"key": [], "total_ms": []})
    if batch:
        backend_ms = dict(zip(backend["key"], backend["total_ms"]))
        latencies, waits, sizes = [], [], []
        for key, attrs in zip(batch["key"], batch["attrs"]):
            sizes.append(attrs["size"])
            for latency in attrs["latency_ms"]:
                latencies.append(latency)
                waits.append(latency - backend_ms.get(key, 0.0))
        out["serve.latency_ms"] = median(latencies)
        out["serve.wait_ms"] = median(waits)
        out["serve.batch_size.mean"] = float(np.mean(sizes))
        for bound in BATCH_BUCKETS:
            out[f"serve.batch_size.le{bound}"] = float(
                np.mean([s <= bound for s in sizes]))
        out["serve.busy_share"] = (
            sum(backend["total_ms"]) / (1000.0 * wall_s))
    for span, call_metric, row_metric in (
            ("ssnn.forward", "ssnn.forward_ms", "ssnn.forward_us_per_row"),
            ("ssnn.pool.infer", "ssnn.pool.infer_ms",
             "ssnn.pool.us_per_row")):
        stats = layer_time_stats(summary, span)
        if stats is not None:
            out[call_metric] = stats["self_ms"]
            out[row_metric] = _per_row_us(summary[span])
    return out


def server_stat_metrics(stats: Dict) -> Dict[str, float]:
    """Failure counters and pool gauges from ``ServerStats``."""
    return {
        "serve.expired": stats["expired"],
        "serve.cancelled": stats["cancelled"],
        "serve.failed": stats["failed"],
        "serve.pool_failures": stats["pool_failures"],
        "serve.poison_batches": stats["poison_batches"],
        "ssnn.pool.restarts": stats["worker_restarts"],
        "ssnn.pool.alive_workers": stats["workers_alive"],
    }


def stats_dict(server) -> Dict:
    s = server.stats()
    return {"requests": s.requests, "completed": s.completed,
            "failed": s.failed, "expired": s.expired,
            "cancelled": s.cancelled, "pool_failures": s.pool_failures,
            "poison_batches": s.poison_batches,
            "worker_restarts": s.worker_restarts,
            "workers_alive": s.workers_alive, "batches": s.batches}


def setup_layer_metrics(summary: Dict, hits: int,
                        misses: int) -> Dict[str, float]:
    stats = layer_time_stats(summary, "ssnn.plan.compile")
    return {
        "ssnn.plan.compile_s": (stats["total_ms"] / 1000.0
                                if stats else 0.0),
        "ssnn.plan_cache.hits": hits,
        "ssnn.plan_cache.misses": misses,
    }


def start_server(spec: Dict, cache_dir, repeats: int, warmup, host,
                 tracer=None, rounds: int = 1, **server_kwargs):
    """Set up an ``InferenceServer`` ``repeats`` times (network build,
    plan-cache lookup, start, ``rounds`` warm-up rounds each submitting
    all of ``warmup`` at once); keep the last one running.  ``host`` is
    sampled before each set-up.

    Returns ``(server, setup seconds per repeat, warm-up answers of
    every round, setup record)``; the record holds the plan-cache
    counters and, when ``tracer`` is given, the set-up span summary.
    """
    from repro.serve import InferenceServer

    if tracer is not None:
        instrument_setup(tracer)
    times, answers, hits, misses, server = [], [], 0, 0, None
    try:
        for repeat in range(repeats):
            host.sample()
            start = time.perf_counter()
            compiled, cache = compile_cached(spec, cache_dir)
            server = InferenceServer(compiled=compiled,
                                     **server_kwargs).start()
            for _ in range(rounds):
                futures = [server.submit(train) for train in warmup]
                answers.append([f.result(timeout=60) for f in futures])
            times.append(time.perf_counter() - start)
            hits += cache.hits
            misses += cache.misses
            if repeat < repeats - 1:
                server.stop()
                server = None
    except BaseException:
        if server is not None:
            server.stop(drain=False)
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"hits": hits, "misses": misses,
              "summary": tracer.summary() if tracer is not None else {}}
    if tracer is not None:
        tracer.clear()
    return server, times, answers, record


def answers_match(results, indices, oracle) -> int:
    """Mismatches between ``ServeResult``s and the oracle's rasters."""
    return sum(
        1 for result, index in zip(results, indices)
        if not (np.array_equal(result.output_raster, oracle.rasters[index])
                and result.prediction == int(oracle.predictions[index]))
    )

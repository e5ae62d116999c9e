"""Benchmark: unloaded serving latency vs the bare kernel.

With busy-driven batching an idle backend runs a lone request at once,
so the serving layer may add only a small, fixed host cost on top of
the compiled kernel.  The gate measures both in the same run, on the
11-8-5 loadgen network with 12-step trains:

* ``server.infer`` p50 over sequential requests (one in flight, the
  backend idle each time) must stay within ``OVERHEAD_MS`` of the
  serial ``forward_rows`` p50 on the same trains;
* every served answer must equal the serial kernel's, bit for bit.

A fixed coalescing window holds every request for the window's length
(2 ms at the server default), which fails this gate.
"""

import time

import numpy as np

from conftest import emit
from repro.gateway.loadgen import _compile_workload, _make_trains
from repro.serve import InferenceServer

REQUESTS = 240
WARMUP = 20
STEPS = 12
OVERHEAD_MS = 1.0


def test_unloaded_infer_p50_within_1ms_of_forward_rows():
    compiled = _compile_workload()
    rng = np.random.default_rng(12)
    trains = _make_trains(rng, 16, STEPS, compiled.in_features)
    serve_ms, kernel_ms = [], []
    with InferenceServer(compiled=compiled, deadline_ms=2.0,
                         batch_max=64) as server:
        for i in range(WARMUP + REQUESTS):
            train = trains[i % len(trains)]
            start = time.perf_counter()
            result = server.infer(train, timeout=30.0)
            served = time.perf_counter() - start
            start = time.perf_counter()
            decisions, _, _ = compiled.forward_rows(train)
            computed = time.perf_counter() - start
            assert np.array_equal(result.output_raster, decisions)
            if i >= WARMUP:
                serve_ms.append(served * 1000.0)
                kernel_ms.append(computed * 1000.0)
    serve_p50 = float(np.median(serve_ms))
    kernel_p50 = float(np.median(kernel_ms))
    emit(
        f"unloaded 11-8-5 ({REQUESTS} sequential requests): "
        f"server.infer p50 {serve_p50:.3f} ms, "
        f"forward_rows p50 {kernel_p50:.3f} ms, "
        f"overhead {serve_p50 - kernel_p50:.3f} ms "
        f"(ceiling {OVERHEAD_MS} ms)"
    )
    assert serve_p50 <= kernel_p50 + OVERHEAD_MS

"""One row-block failure policy, three owners.

:class:`~repro.serve.server.InferenceServer`,
:class:`~repro.cluster.node.PoolNode` and
:class:`~repro.ssnn.runtime.SushiRuntime` all run pool row blocks
through a :class:`~repro.serve.backend.PoolBackend`.  A scripted stub
pool (``fail, fail, poison, ok``) must meet the same policy through each
owner: every answer is bit-identical to serial ``forward_rows``, the
breaker opens at ``failure_threshold``, a poison block counts as a
breaker success, and the pool is kept, never closed.
"""

import numpy as np
import pytest

from repro.cluster import PoolNode
from repro.harness import random_binarized_network, random_spike_trains
from repro.serve import CircuitBreaker, InferenceServer
from repro.serve.backend import PoolBackend
from repro.ssnn import SushiRuntime, compile_network
from tests.serve.test_server import CHIP_N, SC, _StepClock, _StubPool

THRESHOLD = 2
COOL_DOWN_S = 5.0


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(43)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    compiled = compile_network(network, CHIP_N, SC)
    # (T=4, batch=1, 11): 4 rows, enough for the runtime's 2-worker gate.
    trains = random_spike_trains(rng, 4, 1, 11)
    return network, compiled, trains


# Each owner factory returns (run, backend, close): ``run(trains)`` is
# the owner's answer as a (T, out) decision raster.

def _server(network, compiled, breaker):
    server = InferenceServer(
        compiled=compiled, deadline_ms=0.0, breaker=breaker
    ).start()

    def run(trains):
        return server.infer(trains[:, 0, :], timeout=30.0).output_raster

    return run, server._backend, server.stop


def _node(network, compiled, breaker):
    node = PoolNode("n0", compiled, workers=0, breaker=breaker)

    def run(trains):
        return node.infer_rows(trains[:, 0, :])[0]

    return run, node._backend, node.retire


def _runtime(network, compiled, breaker):
    runtime = SushiRuntime(
        chip_n=CHIP_N, sc_per_npe=SC, max_workers=2, plan_cache=None
    )
    runtime._backend = PoolBackend(
        runtime._compiled_for(network), 2, breaker=breaker
    )

    def run(trains):
        return runtime.infer(network, trains).output_raster[:, 0, :]

    return run, runtime._backend, runtime.close


@pytest.mark.parametrize(
    "owner", [_server, _node, _runtime], ids=["server", "node", "runtime"]
)
def test_fail_fail_poison_ok(workload, owner):
    network, compiled, trains = workload
    want = compiled.forward_rows(trains[:, 0, :])[0]
    clock = _StepClock()
    breaker = CircuitBreaker(
        failure_threshold=THRESHOLD, reset_timeout_s=COOL_DOWN_S,
        clock=clock,
    )
    run, backend, close = owner(network, compiled, breaker)
    stub = _StubPool(compiled, ["fail", "fail", "poison", "ok"])
    backend.pool = stub
    try:
        assert np.array_equal(run(trains), want)  # fail 1: serial
        assert breaker.state == "closed"
        assert np.array_equal(run(trains), want)  # fail 2: opens
        assert breaker.state == "open"
        assert backend.metrics.pool_failures == THRESHOLD
        assert np.array_equal(run(trains), want)  # open: pool skipped
        assert stub.calls == THRESHOLD
        clock.now += COOL_DOWN_S + 1.0
        assert breaker.state == "half-open"
        assert np.array_equal(run(trains), want)  # probe meets poison
        assert breaker.state == "closed"  # poison is a breaker success
        assert backend.metrics.poison_batches == 1
        assert np.array_equal(run(trains), want)  # ok: the pool answers
        assert stub.calls == 4
        assert backend.metrics.pool_failures == THRESHOLD
        assert backend.pool is stub and not stub.closed
    finally:
        close()

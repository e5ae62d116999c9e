"""Tests for the micro-batching inference server (:mod:`repro.serve`).

Serving is a latency/throughput transform only: every request's answer
must be bit-identical to running its spike train alone through
:class:`~repro.ssnn.runtime.SushiRuntime`.  The tests pin that, plus the
coalescing behaviour (batch_max, shape isolation), the lifecycle
(start/stop/drain), validation, metrics and the pool-backed path.
"""

import queue
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.harness import random_binarized_network, random_spike_trains
from repro.serve import CircuitBreaker, InferenceServer, ServerStats
from repro.ssnn import PoisonBatchError, SushiRuntime, compile_network

CHIP_N = 4
SC = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(41)
    network = random_binarized_network(rng, sizes=(11, 8, 5), sc_per_npe=SC)
    trains = random_spike_trains(rng, 4, 24, 11)
    return network, trains


def expected_results(network, trains):
    runtime = SushiRuntime(chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None)
    return runtime.infer(network, trains)


class TestServingEquivalence:
    def test_answers_match_the_runtime(self, workload):
        network, trains = workload
        want = expected_results(network, trains)
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=5.0,
        ) as server:
            futures = [
                server.submit(trains[:, b, :])
                for b in range(trains.shape[1])
            ]
            results = [f.result(timeout=30.0) for f in futures]
        for b, res in enumerate(results):
            assert np.array_equal(
                res.output_raster, want.output_raster[:, b, :]
            )
            assert np.array_equal(res.rates, want.rates[b])
            assert res.prediction == int(want.predictions[b])
            assert res.steps == trains.shape[0]
            assert res.latency_ms >= 0.0
            assert 1 <= res.batch_size <= trains.shape[1]

    def test_accepts_precompiled_artifact(self, workload):
        network, trains = workload
        compiled = compile_network(network, CHIP_N, SC)
        with InferenceServer(compiled=compiled, deadline_ms=0.0) as server:
            res = server.infer(trains[:, 0, :])
        want = expected_results(network, trains[:, :1, :])
        assert np.array_equal(res.output_raster, want.output_raster[:, 0, :])

    def test_three_dim_single_sample_train_is_squeezed(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        ) as server:
            a = server.infer(trains[:, 0, :])
            b = server.infer(trains[:, 0:1, :])
        assert np.array_equal(a.output_raster, b.output_raster)

    def test_pool_backed_serving_matches(self, workload):
        network, trains = workload
        want = expected_results(network, trains)
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            workers=2, deadline_ms=20.0, batch_max=trains.shape[1],
        ) as server:
            futures = [
                server.submit(trains[:, b, :])
                for b in range(trains.shape[1])
            ]
            results = [f.result(timeout=30.0) for f in futures]
        for b, res in enumerate(results):
            assert np.array_equal(
                res.output_raster, want.output_raster[:, b, :]
            )


class TestCoalescing:
    def test_batch_max_bounds_coalescing(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            batch_max=4, deadline_ms=50.0,
        ) as server:
            futures = [
                server.submit(trains[:, b % trains.shape[1], :])
                for b in range(12)
            ]
            results = [f.result(timeout=30.0) for f in futures]
            stats = server.stats()
        assert all(r.batch_size <= 4 for r in results)
        assert stats.samples == 12
        assert stats.batches >= 3

    def test_mixed_shapes_never_share_a_batch(self, workload):
        network, trains = workload
        short = trains[:2, 0, :]
        long = trains[:, 1, :]
        want_short = expected_results(network, trains[:2, 1:2, :])
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            batch_max=64, deadline_ms=30.0,
        ) as server:
            futures = [
                server.submit(short), server.submit(long),
                server.submit(short), server.submit(long),
            ]
            results = [f.result(timeout=30.0) for f in futures]
        assert results[0].steps == 2 and results[1].steps == trains.shape[0]
        # A short and a long request can never ride together.
        for res in results:
            assert res.batch_size <= 2
        check = expected_results(network, short[:, None, :])
        assert np.array_equal(
            results[2].output_raster, check.output_raster[:, 0, :]
        )
        del want_short


class TestBusyDrivenBatching:
    """Batches form from what queued while the backend was busy; no
    timer ever holds a request while the backend is idle."""

    def test_idle_backend_answers_at_once(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=10_000.0,
        ) as server:
            start = time.monotonic()
            res = server.infer(trains[:, 0, :], timeout=30.0)
            elapsed = time.monotonic() - start
        assert res.batch_size == 1
        assert elapsed < 1.0

    @pytest.mark.parametrize("crowd, sizes", [
        (1, [1]),
        (3, [3] * 3),
        (4, [4] * 4),
        (6, [4] * 4 + [2] * 2),
        (9, [4] * 8 + [1]),
    ])
    def test_requests_queued_behind_a_busy_backend_leave_together(
            self, workload, crowd, sizes):
        network, trains = workload
        want = expected_results(network, trains)
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            batch_max=4, deadline_ms=2.0,
        ) as server:
            original = server._forward
            entered = threading.Event()
            release = threading.Event()

            def gated_forward(rows):
                entered.set()
                assert release.wait(timeout=30.0)
                return original(rows)

            server._forward = gated_forward
            blocker = server.submit(trains[:, 0, :])
            assert entered.wait(timeout=30.0)
            futures = [server.submit(trains[:, b % 4, :])
                       for b in range(crowd)]
            release.set()
            assert blocker.result(timeout=30.0).batch_size == 1
            results = [f.result(timeout=30.0) for f in futures]
        assert [r.batch_size for r in results] == sizes
        for b, res in enumerate(results):
            assert np.array_equal(
                res.output_raster, want.output_raster[:, b % 4, :]
            )


class TestLifecycleAndValidation:
    def test_constructor_validation(self, workload):
        network, _ = workload
        compiled = compile_network(network, CHIP_N, SC)
        with pytest.raises(ConfigurationError):
            InferenceServer()
        with pytest.raises(ConfigurationError):
            InferenceServer(network, compiled=compiled)
        with pytest.raises(ConfigurationError):
            InferenceServer(network, batch_max=0, plan_cache=None)
        with pytest.raises(ConfigurationError):
            InferenceServer(network, deadline_ms=-1.0, plan_cache=None)
        with pytest.raises(ConfigurationError):
            InferenceServer(network, workers=-1, plan_cache=None)

    def test_submit_requires_running_server(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        )
        with pytest.raises(ConfigurationError):
            server.submit(trains[:, 0, :])

    def test_rejects_wrong_width(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ) as server:
            with pytest.raises(ConfigurationError):
                server.submit(np.zeros((3, network.in_features + 1)))
            with pytest.raises(ConfigurationError):
                server.submit(np.zeros(network.in_features))

    def test_stop_drains_queued_requests(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=1.0,
        ).start()
        futures = [server.submit(trains[:, b, :]) for b in range(6)]
        server.stop(drain=True)
        for future in futures:
            assert future.result(timeout=5.0).steps == trains.shape[0]

    def test_stop_without_drain_fails_pending(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=200.0, batch_max=4096,
        ).start()
        futures = [server.submit(trains[:, b, :]) for b in range(8)]
        server.stop(drain=False)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=10.0)
                outcomes.append("ok")
            except ConfigurationError:
                outcomes.append("failed")
        # Every request resolved one way or the other; none hang.
        assert len(outcomes) == 8

    def test_restart_after_stop(self, workload):
        self._restart_after_stop(workload, workers=0)

    def test_restart_after_stop_with_pool(self, workload):
        self._restart_after_stop(workload, workers=2)

    @staticmethod
    def _restart_after_stop(workload, workers):
        network, trains = workload
        want = expected_results(network, trains[:, :1, :])
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            workers=workers, deadline_ms=0.0,
        )
        server.start()
        server.stop()
        server.start()
        try:
            if workers and server._backend.pool is None:
                pytest.skip("pool unavailable on this platform")
            res = server.infer(trains[:, 0, :])
            assert res.steps == trains.shape[0]
            assert np.array_equal(
                res.output_raster, want.output_raster[:, 0, :]
            )
            if workers:
                assert server.health()["mode"] == "pool"
                assert server.stats().workers_alive == 2
        finally:
            server.stop()


class TestMetrics:
    def test_stats_accumulate(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=2.0,
        ) as server:
            for b in range(5):
                server.infer(trains[:, b, :])
            stats = server.stats()
        assert isinstance(stats, ServerStats)
        assert stats.requests == 5
        assert stats.completed == 5
        assert stats.samples == 5
        assert stats.failed == 0
        assert stats.batches >= 1
        assert stats.mean_batch > 0
        assert stats.latency_ms_p50 >= 0.0
        assert stats.latency_ms_max >= stats.latency_ms_p95 >= 0.0
        assert stats.fps > 0
        assert stats.synaptic_ops > 0
        assert stats.sops > 0
        payload = stats.to_dict()
        assert payload["requests"] == 5
        assert set(payload) >= {
            "fps", "sops", "latency_ms_p50", "mean_batch",
        }

    def test_answer_is_counted_before_it_resolves(self, workload):
        """A caller holding its answer must already see it in stats():
        the batch is recorded before any future in it resolves."""
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
        ) as server:
            original = server._forward
            release = threading.Event()

            def gated_forward(rows):
                assert release.wait(timeout=30.0)
                return original(rows)

            server._forward = gated_forward
            future = server.submit(trains[:, 0, :])
            completed_at_resolve = []
            future.add_done_callback(lambda _: completed_at_resolve.append(
                server.stats().completed))
            release.set()
            future.result(timeout=30.0)
        assert completed_at_resolve == [1]

    def test_repr_shows_mode(self, workload):
        network, _ = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        )
        assert "stopped" in repr(server)
        with server:
            assert "running" in repr(server)


class _StubPool:
    """Pool-shaped stand-in: a scripted sequence of behaviours per call
    (``"fail"`` raises RuntimeError, ``"poison"`` raises
    PoisonBatchError, ``"ok"`` computes serially)."""

    def __init__(self, compiled, script):
        self.compiled = compiled
        self.script = list(script)
        self.calls = 0
        self.closed = False
        self.workers = 2
        self.restarts = 0

    def infer_rows(self, rows):
        self.calls += 1
        action = self.script.pop(0) if self.script else "ok"
        if action == "fail":
            raise RuntimeError("stub: injected pool failure")
        if action == "poison":
            raise PoisonBatchError("stub: quarantined row block")
        return self.compiled.forward_rows(rows)

    def alive_workers(self):
        return self.workers

    def close(self):
        self.closed = True


class _StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRobustness:
    def test_deadline_expired_request_fails_at_dispatch(self, workload):
        network, trains = workload
        train = trains[:, 0, :]
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        ) as server:
            original = server._forward
            entered = threading.Event()

            def slow_forward(rows):
                entered.set()
                time.sleep(0.15)
                return original(rows)

            server._forward = slow_forward
            blocker = server.submit(train)
            # Submit only once the blocker's batch is running, so the
            # doomed request cannot ride along with it.
            assert entered.wait(timeout=30.0)
            doomed = server.submit(train, deadline_ms=1.0)
            assert blocker.result(timeout=30.0).steps == trains.shape[0]
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
            stats = server.stats()
        assert stats.expired == 1
        assert stats.completed == 1
        assert stats.pending == 0

    def test_rejects_nonpositive_deadline(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
        ) as server:
            with pytest.raises(ConfigurationError):
                server.submit(trains[:, 0, :], deadline_ms=0.0)

    def test_infer_timeout_cancels_the_orphan(self, workload):
        """A timed-out infer() must not leave its request executing
        later: the future is cancelled and skipped at dispatch."""
        network, trains = workload
        train = trains[:, 0, :]
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        ) as server:
            original = server._forward
            entered = threading.Event()

            def slow_forward(rows):
                entered.set()
                time.sleep(0.15)
                return original(rows)

            server._forward = slow_forward
            blocker = server.submit(train)
            assert entered.wait(timeout=30.0)
            with pytest.raises(FutureTimeoutError):
                server.infer(train, timeout=0.02)
            blocker.result(timeout=30.0)
            server._forward = original
            # Give the dispatcher a beat to skip the cancelled orphan.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = server.stats()
                if stats.cancelled == 1:
                    break
                time.sleep(0.01)
        assert stats.cancelled == 1
        assert stats.completed == 1  # only the blocker ever executed
        assert stats.pending == 0

    def test_pool_failure_counts_toward_breaker_then_opens(self, workload):
        """Consecutive pool failures open the breaker; answers stay
        correct (serial fallback) and the pool is kept, not released."""
        network, trains = workload
        train = trains[:, 0, :]
        want = expected_results(network, trains[:, :1, :])
        clock = _StepClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout_s=5.0, clock=clock
        )
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0, breaker=breaker,
        )
        server.start()
        try:
            stub = _StubPool(
                server.compiled, ["fail", "fail", "ok"]
            )
            server._backend.pool = stub
            for _ in range(2):
                res = server.infer(train, timeout=30.0)
                assert np.array_equal(
                    res.output_raster, want.output_raster[:, 0, :]
                )
            assert breaker.state == "open"
            assert server._backend.pool is stub  # kept, not released
            # While open the pool is skipped entirely.
            server.infer(train, timeout=30.0)
            assert stub.calls == 2
            stats = server.stats()
            assert stats.pool_failures == 2
            assert stats.breaker_state == "open"
            # Cool-down: the half-open probe closes the breaker.
            clock.now += 6.0
            res = server.infer(train, timeout=30.0)
            assert np.array_equal(
                res.output_raster, want.output_raster[:, 0, :]
            )
            assert breaker.state == "closed"
            assert stub.calls == 3
        finally:
            server.stop()

    def test_poison_batch_is_breaker_success(self, workload):
        network, trains = workload
        train = trains[:, 0, :]
        want = expected_results(network, trains[:, :1, :])
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
            breaker=CircuitBreaker(failure_threshold=1),
        )
        server.start()
        try:
            stub = _StubPool(server.compiled, ["poison", "ok"])
            server._backend.pool = stub
            res = server.infer(train, timeout=30.0)
            assert np.array_equal(
                res.output_raster, want.output_raster[:, 0, :]
            )
            # threshold=1: a single *failure* would have opened it.
            assert server.breaker.state == "closed"
            stats = server.stats()
            assert stats.poison_batches == 1
            assert stats.pool_failures == 0
            server.infer(train, timeout=30.0)
            assert stub.calls == 2  # the pool is still in rotation
        finally:
            server.stop()

    def test_health_readiness_and_stats_gauges(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        )
        assert not server.readiness()
        server.start()
        try:
            assert server.readiness()
            server.infer(trains[:, 0, :], timeout=30.0)
            health = server.health()
            assert health["schema"] == "repro.serve.health/v1"
            assert health["running"] and health["ready"]
            assert health["mode"] == "serial"
            assert health["breaker"]["state"] == "closed"
            assert health["stats"]["completed"] == 1
            stats = server.stats()
            assert stats.breaker_state == "closed"
            assert stats.workers_alive == 0  # serial mode
            assert stats.queue_depth == 0
        finally:
            server.stop()
        assert not server.readiness()

    def test_pool_backed_health_reports_workers(self, workload):
        network, trains = workload
        with InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            workers=2, deadline_ms=0.0,
        ) as server:
            if server._backend.pool is None:
                pytest.skip("pool unavailable on this platform")
            server.infer(trains[:, 0, :], timeout=30.0)
            stats = server.stats()
            assert stats.workers_configured == 2
            assert stats.workers_alive == 2
            assert stats.worker_restarts == 0

    def test_drain_stops_intake_and_settles(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=1.0,
        ).start()
        futures = [server.submit(trains[:, b, :]) for b in range(6)]
        assert server.drain(timeout=30.0)
        for future in futures:
            assert future.result(timeout=5.0).steps == trains.shape[0]
        assert server.stats().pending == 0
        with pytest.raises(ConfigurationError):
            server.submit(trains[:, 0, :])
        assert not server.readiness()
        server.stop()

    def test_drain_is_idempotent(self, workload):
        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        ).start()
        future = server.submit(trains[:, 0, :])
        assert server.drain(timeout=30.0)
        assert future.result(timeout=5.0).steps == trains.shape[0]
        # Repeated drains settle instantly and stay True.
        for _ in range(3):
            start = time.monotonic()
            assert server.drain(timeout=30.0)
            assert time.monotonic() - start < 1.0
        with pytest.raises(ConfigurationError):
            server.submit(trains[:, 0, :])
        server.stop()

    def test_concurrent_drains_with_inflight_infer(self, workload):
        """Several threads drain while requests are still executing:
        every drain must report True and every accepted request must
        resolve -- no strands, no crashes."""
        import threading

        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=1.0,
        ).start()
        original = server._forward

        def slow_forward(rows):
            time.sleep(0.05)
            return original(rows)

        server._forward = slow_forward
        try:
            futures = [server.submit(trains[:, b % 4, :])
                       for b in range(8)]
            verdicts = []

            def drainer():
                verdicts.append(server.drain(timeout=30.0))

            threads = [threading.Thread(target=drainer)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert verdicts == [True] * 4
            for future in futures:
                assert future.result(timeout=5.0).steps == trains.shape[0]
            assert server.stats().pending == 0
        finally:
            server._forward = original
            server.stop()

    def test_drain_waits_for_a_submit_caught_mid_admission(self, workload):
        """Regression: a submit that passed the accepting-check but has
        not yet enqueued its request must not be stranded by a
        concurrent drain().  The enqueue is stalled deterministically;
        drain must block on the in-flight admission, then both resolve."""
        import threading

        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0,
        ).start()
        entered = threading.Event()
        release = threading.Event()
        # Stall inside submit's accept-and-enqueue critical section.
        original_record = server._metrics.record_submit

        def stalled_record(n=1):
            entered.set()
            assert release.wait(timeout=10.0)
            return original_record(n)

        server._metrics.record_submit = stalled_record
        try:
            holder: dict = {}

            def submitter():
                holder["future"] = server.submit(trains[:, 0, :])

            submit_thread = threading.Thread(target=submitter)
            submit_thread.start()
            assert entered.wait(timeout=10.0)

            drain_verdict: dict = {}

            def drainer():
                drain_verdict["settled"] = server.drain(timeout=30.0)

            drain_thread = threading.Thread(target=drainer)
            drain_thread.start()
            # The admission is mid-handshake: drain must NOT settle.
            drain_thread.join(timeout=0.3)
            assert drain_thread.is_alive(), \
                "drain returned while a submit was mid-admission"

            release.set()
            submit_thread.join(timeout=10.0)
            drain_thread.join(timeout=30.0)
            assert drain_verdict["settled"] is True
            result = holder["future"].result(timeout=10.0)
            assert result.steps == trains.shape[0]
            assert server.stats().pending == 0
        finally:
            server._metrics.record_submit = original_record
            server.stop()

    def test_backpressure_rejects_and_drain_never_strands(self, workload):
        """``queue_max`` bounds the queue: a timed submit beyond it
        raises ``queue.Full`` and is not counted, every accepted request
        still resolves, and a drain racing a submit blocked on the full
        queue either rejects that submit or waits for its answer."""
        network, trains = workload
        want = expected_results(network, trains)
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            deadline_ms=0.0, queue_max=2,
        ).start()
        entered = threading.Event()
        gate = threading.Event()
        original = server._forward

        def held_forward(rows):
            entered.set()
            assert gate.wait(timeout=10.0)
            return original(rows)

        server._forward = held_forward
        try:
            # The first request occupies the (held) backend; two more
            # fill the queue to its bound.
            accepted = [server.submit(trains[:, 0, :])]
            assert entered.wait(timeout=10.0)
            accepted += [server.submit(trains[:, b, :]) for b in (1, 2)]
            with pytest.raises(queue.Full):
                server.submit(trains[:, 3, :], timeout=0.05)

            outcome: dict = {}

            def blocked_submitter():
                try:
                    outcome["future"] = server.submit(trains[:, 3, :])
                except ConfigurationError as exc:
                    outcome["rejected"] = exc

            submit_thread = threading.Thread(target=blocked_submitter)
            submit_thread.start()
            submit_thread.join(timeout=0.2)
            assert submit_thread.is_alive(), \
                "submit(timeout=None) returned on a full queue"

            verdict: dict = {}
            drain_thread = threading.Thread(
                target=lambda: verdict.update(settled=server.drain(30.0)))
            drain_thread.start()
            drain_thread.join(timeout=0.2)
            assert drain_thread.is_alive(), \
                "drain settled while the backend still held requests"

            gate.set()
            drain_thread.join(timeout=30.0)
            submit_thread.join(timeout=30.0)
            assert verdict["settled"] is True
            assert not submit_thread.is_alive()
            if "future" in outcome:
                accepted.append(outcome["future"])
            for b, future in enumerate(accepted):
                result = future.result(timeout=10.0)
                assert np.array_equal(result.output_raster,
                                      want.output_raster[:, b, :])
            stats = server.stats()
            assert stats.requests == len(accepted)
            assert stats.completed == len(accepted)
            assert stats.pending == 0
        finally:
            gate.set()
            server._forward = original
            server.stop()

    def test_concurrent_submitters_under_backpressure(self, workload):
        """Stress: more submitting threads than cores, a tiny queue bound,
        two train shapes and a short switch interval.  Every submit waits
        for room and is accepted, every request is answered exactly once
        and bit-identically, and the counters balance."""
        import sys

        network, trains = workload
        server = InferenceServer(
            network, chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None,
            batch_max=4, queue_max=3,
        ).start()
        samples = ([trains[:, b, :] for b in range(trains.shape[1])]
                   + [trains[:2, b, :] for b in range(4)])
        want = [server.compiled.forward_rows(s)[0] for s in samples]
        accepted: list = []
        errors: list = []

        def submitter(offset):
            try:
                for i in range(offset, offset + 40):
                    index = i % len(samples)
                    accepted.append(
                        (index, server.submit(samples[index], timeout=30.0)))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=submitter, args=(7 * k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(accepted) == 6 * 40
            for index, future in accepted:
                result = future.result(timeout=30.0)
                assert np.array_equal(result.output_raster, want[index])
            stats = server.stats()
            assert stats.requests == stats.completed == len(accepted)
            assert stats.pending == 0
        finally:
            sys.setswitchinterval(interval)
            server.stop()

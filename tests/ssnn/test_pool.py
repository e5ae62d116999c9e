"""Tests for the supervised shared-memory pool (:mod:`repro.ssnn.pool`).

The pool is a pure performance transform: every test here pins
``InferencePool.infer_rows`` bit-for-bit against the serial
``CompiledNetwork.forward_rows``, across shard counts, row-block sizes
and buffer growth -- including under supervision events (worker death,
freezes, poison quarantine), which must never change an answer, only
the wall-clock and the ``restarts`` counter.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import random_binarized_network, random_spike_trains
from repro.harness.chaos import ChaosHook, FreezeHook, KillHook
from repro.serve.backend import PoolBackend
from repro.ssnn import (
    InferencePool,
    InferencePoolError,
    PoisonBatchError,
    SushiRuntime,
    compile_network,
)

CHIP_N = 4
SC = 8


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(21)
    network = random_binarized_network(rng, sizes=(12, 9, 5), sc_per_npe=SC)
    return compile_network(network, CHIP_N, SC)


def rows_for(compiled, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, compiled.in_features)) < 0.4).astype(np.float64)


class TestShards:
    def test_shards_cover_and_balance(self):
        for n_rows in (0, 1, 2, 7, 16):
            for parts in (1, 2, 5):
                shards = InferencePool._shards(n_rows, parts)
                flat = [i for s, e in shards for i in range(s, e)]
                assert flat == list(range(n_rows))
                sizes = [e - s for s, e in shards]
                if sizes:
                    assert max(sizes) - min(sizes) <= 1


class TestPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_serial(self, compiled, workers):
        rows = rows_for(compiled, 17, seed=workers)
        want_dec, want_spur, want_syn = compiled.forward_rows(rows)
        with InferencePool(compiled, workers=workers) as pool:
            got_dec, got_spur, got_syn = pool.infer_rows(rows)
        assert np.array_equal(got_dec, want_dec)
        assert got_spur == want_spur
        assert got_syn == want_syn

    def test_empty_and_single_row_blocks(self, compiled):
        with InferencePool(compiled, workers=2) as pool:
            dec, spur, syn = pool.infer_rows(rows_for(compiled, 0))
            assert dec.shape == (0, compiled.out_features)
            assert (spur, syn) == (0, 0)
            rows = rows_for(compiled, 1, seed=5)
            want = compiled.forward_rows(rows)
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_buffers_grow_and_results_stay_exact(self, compiled):
        with InferencePool(compiled, workers=2) as pool:
            for n in (2, 8, 64, 3, 128):
                rows = rows_for(compiled, n, seed=n)
                want = compiled.forward_rows(rows)
                got = pool.infer_rows(rows)
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    def test_rejects_bad_row_shapes(self, compiled):
        with InferencePool(compiled, workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.infer_rows(
                    np.zeros((3, compiled.in_features + 2))
                )


class RaiseOnShardZeroHook(ChaosHook):
    """Raise inside the worker running shard 0 (within the permit
    budget), so that shard reports ``"error"``; shard 1 of the first
    job is held briefly, so it is still in flight when the call
    aborts."""

    def __call__(self, slot, job, epoch, shard, in_name, out_name):
        if shard == 0:
            super().__call__(slot, job, epoch, shard, in_name, out_name)
        elif job == 0:
            time.sleep(0.1)

    def fire(self, slot, job, epoch, shard, in_name, out_name):
        raise RuntimeError("chaos: injected worker exception")


class TestPoolLifecycle:
    def test_close_is_idempotent_and_rejects_work(self, compiled):
        pool = InferencePool(compiled, workers=1)
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        with pytest.raises(InferencePoolError):
            pool.infer_rows(rows_for(compiled, 2))

    def test_dead_worker_is_resurrected(self, compiled):
        """A worker that died while idle is respawned at call start and
        the call answers bit-identically (the old pool failed here)."""
        rows = rows_for(compiled, 6, seed=3)
        want = compiled.forward_rows(rows)
        pool = InferencePool(
            compiled, workers=2, result_timeout_s=30.0
        )
        try:
            pool._procs[0].terminate()
            pool._procs[0].join(timeout=5.0)
            assert pool.alive_workers() == 1
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == 2
            assert pool.restarts >= 1
        finally:
            pool.close()

    def test_ensure_workers_heals_between_calls(self, compiled):
        pool = InferencePool(compiled, workers=2)
        try:
            for proc in pool._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            assert pool.alive_workers() == 0
            assert pool.ensure_workers() == 2
            assert pool.restarts == 2
        finally:
            pool.close()
        assert pool.ensure_workers() == 0  # closed pool stays down

    def test_close_races_in_flight_infer(self, compiled):
        """close() concurrent with an in-flight infer_rows: the call
        completes (bit-identically) and the pool ends up closed."""
        rows = rows_for(compiled, 96, seed=9)
        want = compiled.forward_rows(rows)
        pool = InferencePool(compiled, workers=2)
        results = {}

        def work():
            try:
                results["got"] = pool.infer_rows(rows)
            except InferencePoolError as exc:
                results["error"] = exc

        thread = threading.Thread(target=work)
        thread.start()
        pool.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert pool.closed
        if "got" in results:  # the call won the race
            assert np.array_equal(results["got"][0], want[0])
            assert results["got"][1:] == want[1:]
        else:  # close() won: the call failed loudly, never silently
            assert isinstance(results["error"], InferencePoolError)

    def test_validates_construction(self, compiled):
        with pytest.raises(ConfigurationError):
            InferencePool(compiled, workers=0)
        with pytest.raises(ConfigurationError):
            InferencePool(compiled, workers=1, result_timeout_s=0)

    def test_repr_mentions_plan(self, compiled):
        with InferencePool(compiled, workers=1) as pool:
            assert compiled.fingerprint[:12] in repr(pool)
        assert "closed" in repr(pool)


class TestPoolSupervision:
    """Mid-batch chaos: supervision may only change wall-clock and the
    restart counter, never an answer (see repro.harness.chaos for the
    full campaign; these are the fast in-suite checks)."""

    def test_kill_mid_batch_recovers_bit_identical(
        self, compiled, tmp_path
    ):
        rows = rows_for(compiled, 24, seed=41)
        want = compiled.forward_rows(rows)
        hook = KillHook(str(tmp_path), budget=1)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=30.0
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert hook.fired() == 1
            assert pool.restarts >= 1
            assert pool.alive_workers() == 2

    def test_frozen_worker_is_force_killed(self, compiled, tmp_path):
        rows = rows_for(compiled, 12, seed=42)
        want = compiled.forward_rows(rows)
        hook = FreezeHook(str(tmp_path), budget=1, sleep_s=30.0)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=0.5
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.restarts >= 1
            assert pool.alive_workers() == 2

    def test_poison_batch_quarantined_and_pool_survives(
        self, compiled, tmp_path
    ):
        rows = rows_for(compiled, 10, seed=43)
        want = compiled.forward_rows(rows)
        hook = KillHook(str(tmp_path), budget=4)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=30.0
        ) as pool:
            with pytest.raises(PoisonBatchError):
                pool.infer_rows(rows)
            # Quarantine healed the pool before raising.
            assert pool.alive_workers() == 2
            # PoisonBatchError is an InferencePoolError: every existing
            # degrade path already catches it.
            assert issubclass(PoisonBatchError, InferencePoolError)
            # Once the chaos budget is spent the same block serves fine
            # (at most one stray permit survives the quarantined call).
            for _ in range(3):
                try:
                    got = pool.infer_rows(rows)
                    break
                except PoisonBatchError:
                    continue
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == 2

    def test_aborted_call_leftovers_are_drained_before_reuse(
        self, compiled, tmp_path
    ):
        """A shard that fails inside its worker aborts the call while
        its sibling shard is still in flight; that leftover must be
        resolved before the segments are reused, and the pool serves
        the next blocks exactly, without respawning anything."""
        # Same shape every call (the segments are reused), different
        # rows: a leftover answer taken for a new call's shard would
        # show as a wrong result.
        aborted, *blocks = [rows_for(compiled, 16, seed=s)
                            for s in (44, 45, 46)]
        hook = RaiseOnShardZeroHook(str(tmp_path), budget=1)
        with InferencePool(
            compiled, workers=2, chaos_hook=hook, result_timeout_s=30.0
        ) as pool:
            with pytest.raises(InferencePoolError) as raised:
                pool.infer_rows(aborted)
            assert not isinstance(raised.value, PoisonBatchError)
            assert "injected worker exception" in str(raised.value)
            assert hook.fired() == 1
            for rows in blocks:
                want = compiled.forward_rows(rows)
                got = pool.infer_rows(rows)
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]
            assert pool.restarts == 0
            assert pool._stale_tasks == 0
            assert pool.alive_workers() == 2

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        workers=st.integers(min_value=1, max_value=3),
        kills=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_shard_retry_recovery_is_bit_identical(
        self, compiled, tmp_path_factory, n_rows, workers, kills, seed
    ):
        """Property: for random batch shapes and kill points, recovery
        returns exactly the serial answer."""
        rows = rows_for(compiled, n_rows, seed=seed)
        want = compiled.forward_rows(rows)
        marker_dir = tmp_path_factory.mktemp("chaos")
        hook = KillHook(str(marker_dir), budget=kills)
        with InferencePool(
            compiled, workers=workers, chaos_hook=hook,
            result_timeout_s=30.0,
        ) as pool:
            got = pool.infer_rows(rows)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            assert pool.alive_workers() == workers


class TestRuntimeIntegration:
    def test_persistent_pool_runtime_matches_serial(self):
        rng = np.random.default_rng(31)
        network = random_binarized_network(
            rng, sizes=(10, 7, 4), sc_per_npe=SC
        )
        trains = random_spike_trains(rng, 3, 8, 10)
        serial = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ).infer(network, trains)
        with SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2,
            plan_cache=None,
        ) as runtime:
            pooled = runtime.infer(network, trains)
            # The pool persists across calls on the same runtime.
            again = runtime.infer(network, trains)
        assert np.array_equal(pooled.output_raster, serial.output_raster)
        assert pooled.spurious_decisions == serial.spurious_decisions
        assert pooled.synaptic_ops == serial.synaptic_ops
        assert pooled.reload_events == serial.reload_events
        assert np.array_equal(again.output_raster, serial.output_raster)

    def test_runtime_keeps_pool_on_poison_batch(self):
        """PoisonBatchError routes the block serially *without* tearing
        the pool down."""
        rng = np.random.default_rng(33)
        network = random_binarized_network(
            rng, sizes=(10, 7, 4), sc_per_npe=SC
        )
        trains = random_spike_trains(rng, 3, 8, 10)
        serial = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ).infer(network, trains)

        class _QuarantiningPool:
            calls = 0
            closed = False

            def infer_rows(self, rows):
                type(self).calls += 1
                raise PoisonBatchError("chaos: quarantined")

        runtime = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2,
            plan_cache=None,
        )
        closes = []
        original_close = runtime.close
        backend = PoolBackend(runtime._compiled_for(network), workers=2)
        backend.pool = _QuarantiningPool()
        runtime._backend_for = lambda compiled: backend
        runtime.close = lambda: closes.append(True)
        try:
            poisoned = runtime.infer(network, trains)
        finally:
            runtime.close = original_close
            runtime.close()
        assert _QuarantiningPool.calls >= 1
        assert not closes  # the pool was NOT dropped
        assert np.array_equal(
            poisoned.output_raster, serial.output_raster
        )
        assert poisoned.synaptic_ops == serial.synaptic_ops

    def test_runtime_degrades_to_serial_when_pool_dies(self):
        rng = np.random.default_rng(32)
        network = random_binarized_network(
            rng, sizes=(10, 7, 4), sc_per_npe=SC
        )
        trains = random_spike_trains(rng, 3, 8, 10)
        serial = SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, plan_cache=None
        ).infer(network, trains)
        with SushiRuntime(
            chip_n=CHIP_N, sc_per_npe=SC, max_workers=2,
            plan_cache=None,
        ) as runtime:
            first = runtime.infer(network, trains)
            # Kill the pool workers behind the runtime's back.
            for proc in runtime._backend.pool._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            healed = runtime.infer(network, trains)
        assert np.array_equal(first.output_raster, serial.output_raster)
        assert np.array_equal(healed.output_raster, serial.output_raster)
        assert healed.synaptic_ops == serial.synaptic_ops

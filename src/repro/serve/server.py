"""The adaptive micro-batching inference server.

One dispatcher thread drains a request queue with busy-driven
batching: it takes the first queued request, adds whatever else is
already queued (up to ``batch_max`` samples) without waiting, and runs
the batch at once as a single row block through the compiled plan
(serially or on the persistent shared-memory pool).  No timer ever holds
a request while the backend is idle.  The backend call is synchronous,
so requests that arrive while a batch runs queue up and leave together
in the next batch: light load gets singleton latency, heavy load gets
hardware-sized batches.

Requests whose spike trains disagree in shape are never mixed into one
batch; a shape change simply closes the current batch (the mismatched
request leads the next one).

Failure semantics (see ``docs/SERVING.md``): every batch runs through a
:class:`~repro.serve.backend.PoolBackend`, the one place the
pool -> breaker -> serial policy lives.  The pool resurrects its own
workers, so transient chaos heals *inside* a call; a pool call that
still fails counts against the
:class:`~repro.serve.breaker.CircuitBreaker` and the batch re-runs
serially (identical answers).  The pool is never discarded on failure.

Per-request ``deadline_ms`` bounds let callers cap queueing delay:
requests whose deadline lapsed while queued fail with
:class:`~repro.errors.DeadlineExceededError` at dispatch time, and
futures cancelled by the caller (e.g. an :meth:`InferenceServer.infer`
timeout) are skipped instead of burning a batch slot.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.snn.binarize import BinarizedNetwork
from repro.serve.backend import PoolBackend
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import MetricsRecorder, ServerStats
from repro.ssnn.compile import (
    CompiledNetwork,
    compile_network,
    resolve_plan_cache,
)


@dataclass(frozen=True)
class ServeResult:
    """Answer to one serving request (one sample).

    Attributes:
        rates: (classes,) mean output spike rates.
        prediction: argmax class label.
        output_raster: (T, classes) per-step output spikes.
        latency_ms: Submit-to-answer wall-clock latency, queueing included.
        batch_size: Samples in the batch this request rode in.
        steps: Time steps of the request's spike train.
    """

    rates: np.ndarray
    prediction: int
    output_raster: np.ndarray
    latency_ms: float
    batch_size: int
    steps: int


class _Request:
    __slots__ = ("train", "future", "enqueued", "deadline")

    def __init__(self, train: np.ndarray, future: Future, enqueued: float,
                 deadline: Optional[float] = None):
        self.train = train  # (T, in_features)
        self.future = future
        self.enqueued = enqueued
        self.deadline = deadline  # monotonic instant, None = no bound


class InferenceServer:
    """Micro-batching server over one compiled network.

    Args:
        network: The :class:`~repro.snn.binarize.BinarizedNetwork` to
            serve, compiled on construction (through the plan cache), OR
            pass an already-compiled artifact via ``compiled=``.
        chip_n / sc_per_npe / reorder: Chip configuration (ignored when
            ``compiled`` is given).
        batch_max: Batch ceiling in samples.
        deadline_ms: Validated (``>= 0``) but no longer delays dispatch:
            a batch leaves as soon as the backend is free.
        workers: ``> 1`` shards batches across a persistent supervised
            :class:`~repro.ssnn.pool.InferencePool`; ``0``/``1`` run
            in the dispatcher thread.  Pool failures fall back to serial
            for that batch (served results are identical) and count
            against the circuit breaker.
        plan_cache: See :func:`repro.ssnn.compile.resolve_plan_cache`.
        queue_max: Backpressure bound (``<= 0`` = unbounded); beyond it
            :meth:`submit` blocks, up to its ``timeout``, then raises
            ``queue.Full``.
        breaker: Circuit breaker guarding the pool path; a default
            :class:`~repro.serve.breaker.CircuitBreaker` is constructed
            when omitted.  Inject one with custom thresholds (or a fake
            clock) for tests and chaos scenarios.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        network: Optional[BinarizedNetwork] = None,
        *,
        compiled: Optional[CompiledNetwork] = None,
        chip_n: int = 16,
        sc_per_npe: int = 10,
        reorder: bool = True,
        batch_max: int = 512,
        deadline_ms: float = 2.0,
        workers: int = 0,
        plan_cache="default",
        queue_max: int = 65536,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if (network is None) == (compiled is None):
            raise ConfigurationError(
                "pass exactly one of `network` or `compiled`"
            )
        if batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if deadline_ms < 0:
            raise ConfigurationError("deadline_ms must be >= 0")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if compiled is None:
            cache = resolve_plan_cache(plan_cache)
            if cache is not None:
                compiled = cache.get_or_compile(
                    network, chip_n, sc_per_npe, reorder
                )
            else:
                compiled = compile_network(
                    network, chip_n, sc_per_npe, reorder
                )
        self.compiled = compiled
        self.batch_max = batch_max
        self.deadline_ms = deadline_ms
        self.workers = workers
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # One lock over the queue and the accepting flag: a submit checks
        # acceptance, enqueues and is counted in one critical section, so
        # drain() can never see an accepted request outside the queue
        # and the stats.  Waiters are the dispatcher (queue empty) and
        # submitters blocked by backpressure (queue full).
        self._cond = threading.Condition(threading.Lock())
        self._pending: Deque[_Request] = deque()
        self._queue_max = queue_max if queue_max > 0 else math.inf
        self._metrics = MetricsRecorder()
        self._backend = PoolBackend(
            compiled, workers, breaker=self.breaker, metrics=self._metrics
        )
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._accepting = False
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "InferenceServer":
        if self._running:
            return self
        self._open_backend()
        self._stopping.clear()
        self._running = True
        self._accepting = True
        self._thread = threading.Thread(
            target=self._serve_loop, name="sushi-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the dispatcher.  With ``drain=True`` (default) queued
        requests are answered first; otherwise they fail fast with a
        :class:`ConfigurationError`."""
        if not self._running:
            self._backend.close()
            return
        self._stop_accepting()
        if not drain:
            self._fail_pending("server stopped before this request ran")
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()  # an idle dispatcher exits at once
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._running = False
        self._thread = None
        self._fail_pending("server stopped before this request ran")
        self._backend.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting new requests and wait until every accepted
        request has been resolved (answered, failed, expired or
        cancelled).  The dispatcher keeps running -- call :meth:`stop`
        afterwards to shut down, or flip :meth:`start` semantics back by
        restarting.  Returns ``True`` once fully drained, ``False`` on
        timeout (remaining work keeps draining in the background).

        Idempotent and safe to call concurrently -- with other
        :meth:`drain` calls (each independently waits for quiescence)
        and with in-flight :meth:`submit` / :meth:`infer`: a submit
        either enqueued before the flip (drain waits for its
        resolution) or is rejected with :class:`ConfigurationError` --
        including one blocked by backpressure -- so ``True`` never
        strands an accepted request."""
        self._stop_accepting()
        deadline = time.monotonic() + timeout
        while not self._settled():
            if time.monotonic() >= deadline:
                return self._settled()
            time.sleep(0.005)
        return True

    def _stop_accepting(self) -> None:
        """Flip intake off and wake submitters blocked by backpressure,
        so they are rejected instead of enqueued."""
        with self._cond:
            self._accepting = False
            self._cond.notify_all()

    def _settled(self) -> bool:
        """Nothing queued and every accepted request resolved."""
        return not self._pending and self.stats().pending == 0

    def _open_backend(self) -> None:
        """Spawn the pool (when configured) before dispatch starts."""
        self._backend.open()

    def _fail_pending(self, reason: str) -> None:
        with self._cond:
            pending = list(self._pending)
            self._pending.clear()
            self._cond.notify_all()
        failed = 0
        for request in pending:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ConfigurationError(reason))
                failed += 1
            else:
                self._metrics.record_cancelled()
        if failed:
            self._metrics.record_failure(failed)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(
        self,
        spike_train: np.ndarray,
        timeout: Optional[float] = None,
        *,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        """Enqueue one sample; returns a future of :class:`ServeResult`.

        ``spike_train`` is ``(T, in_features)`` (or ``(T, 1,
        in_features)``, squeezed).  Raises immediately on shape errors.
        Under backpressure (``queue_max`` requests queued) it blocks
        until there is room: indefinitely with ``timeout=None``,
        otherwise up to ``timeout`` seconds before raising
        ``queue.Full``.  With ``deadline_ms`` the
        request fails with :class:`DeadlineExceededError` instead of
        executing if it is still queued when the deadline lapses.
        """
        if not self._running or not self._accepting:
            raise ConfigurationError("server is not accepting requests; "
                                     "call start()")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be > 0")
        train = np.asarray(spike_train, dtype=np.float64)
        if train.ndim == 3 and train.shape[1] == 1:
            train = train[:, 0, :]
        if train.ndim != 2:
            raise ConfigurationError(
                "spike_train must be (T, in_features) for one sample"
            )
        if train.shape[1] != self.compiled.in_features:
            raise ConfigurationError(
                f"spike width {train.shape[1]} != compiled input "
                f"{self.compiled.in_features}"
            )
        now = time.monotonic()
        request = _Request(
            train, Future(), now,
            now + deadline_ms / 1000.0 if deadline_ms is not None else None,
        )
        pending = self._pending
        with self._cond:
            if len(pending) >= self._queue_max and not self._cond.wait_for(
                lambda: not self._accepting or len(pending) < self._queue_max,
                timeout,
            ):
                raise queue.Full
            if not self._running or not self._accepting:
                raise ConfigurationError(
                    "server is not accepting requests; call start()"
                )
            pending.append(request)
            self._metrics.record_submit()
            self._cond.notify()
        return request.future

    def infer(
        self,
        spike_train: np.ndarray,
        timeout: float = 30.0,
        *,
        deadline_ms: Optional[float] = None,
    ) -> ServeResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        On timeout the underlying future is *cancelled* so the orphaned
        request never burns a batch slot (it is skipped at dispatch and
        counted as ``cancelled`` in :meth:`stats`).
        """
        future = self.submit(spike_train, deadline_ms=deadline_ms)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def queue_depth(self) -> int:
        """Requests waiting in the batching queue right now.  Cheap
        (no lock, no percentile sort) -- the per-request admission
        probe for gateways, unlike the full :meth:`stats` snapshot."""
        return len(self._pending)

    def stats(self) -> ServerStats:
        configured, alive, restarts = self._backend.gauges()
        return self._metrics.snapshot(
            breaker_state=self.breaker.state,
            workers_configured=configured,
            workers_alive=alive,
            worker_restarts=restarts,
            queue_depth=self.queue_depth(),
        )

    def health(self) -> Dict:
        """Point-in-time health snapshot (schema ``repro.serve.health/v1``)."""
        stats = self.stats()
        return {
            "schema": "repro.serve.health/v1",
            "running": self._running,
            "accepting": self._accepting,
            "ready": self.readiness(),
            "mode": "pool" if stats.workers_configured else "serial",
            "breaker": self.breaker.snapshot().to_dict(),
            "stats": stats.to_dict(),
        }

    def readiness(self) -> bool:
        """``True`` when the server is running, accepting requests, and
        not shutting down -- the load-balancer admission check."""
        return (self._running and self._accepting
                and not self._stopping.is_set())

    # -- dispatcher ----------------------------------------------------------

    def _admit(self, request: _Request) -> bool:
        """Dispatch-time admission: skip cancelled futures and expire
        requests whose per-request deadline lapsed while queued."""
        if request.deadline is not None \
                and time.monotonic() >= request.deadline:
            if request.future.set_running_or_notify_cancel():
                self._metrics.record_expired()
                request.future.set_exception(DeadlineExceededError(
                    "request deadline_ms lapsed while queued"
                ))
            else:
                self._metrics.record_cancelled()
            return False
        if not request.future.set_running_or_notify_cancel():
            self._metrics.record_cancelled()
            return False
        return True

    def _take(self, shape, limit: int) -> Optional[List[_Request]]:
        """In one lock hold, pop up to ``limit`` queued requests whose
        trains have ``shape`` (``None`` = the head's shape, waiting for
        a head if the queue is empty).  A shape change stops the take;
        the straggler stays at the head.  ``None`` once stopping with
        nothing queued."""
        pending = self._pending
        with self._cond:
            if shape is None:
                while not pending:
                    if self._stopping.is_set():
                        return None
                    self._cond.wait(0.05)
                shape = pending[0].train.shape
            taken = []
            while (pending and len(taken) < limit
                   and pending[0].train.shape == shape):
                taken.append(pending.popleft())
            self._cond.notify_all()  # room for submitters under backpressure
        return taken

    def _serve_loop(self) -> None:
        while True:
            batch: List[_Request] = []
            while len(batch) < self.batch_max:
                taken = self._take(batch[0].train.shape if batch else None,
                                   self.batch_max - len(batch))
                if taken is None:
                    return
                if not taken:
                    break
                batch.extend(r for r in taken if self._admit(r))
            self._run_batch(batch)

    def _run_batch(self, batch: List[_Request]) -> None:
        try:
            steps, n_in = batch[0].train.shape
            n_out = self.compiled.out_features
            stacked = np.stack([r.train for r in batch], axis=1)
            rows = stacked.reshape(steps * len(batch), n_in)
            decisions, _spurious, synops = self._forward(rows)
            raster = decisions.reshape(steps, len(batch), n_out)
            rates = (raster.mean(axis=0) if steps
                     else raster.sum(axis=0))  # (batch, out)
            predictions = rates.argmax(axis=1).tolist()
            now = time.monotonic()
            latencies = [(now - r.enqueued) * 1000.0 for r in batch]
            # Count the batch before resolving it: a caller holding its
            # answer must already see it in stats().
            self._metrics.record_batch(len(batch), synops, latencies)
            for i, request in enumerate(batch):
                request.future.set_result(ServeResult(
                    rates=rates[i],
                    prediction=predictions[i],
                    output_raster=raster[:, i, :],
                    latency_ms=latencies[i],
                    batch_size=len(batch),
                    steps=steps,
                ))
        except Exception as exc:  # pragma: no cover - defensive
            self._metrics.record_failure(len(batch))
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _forward(self, rows: np.ndarray):
        return self._backend.forward(rows)

    def __repr__(self) -> str:
        workers = self._backend.gauges()[0]
        mode = f"pool[{workers}]" if workers else "serial"
        state = "running" if self._running else "stopped"
        return (f"<InferenceServer {state} {mode} "
                f"breaker={self.breaker.state} "
                f"batch_max={self.batch_max} "
                f"deadline_ms={self.deadline_ms} "
                f"plan={self.compiled.fingerprint[:12]}>")

"""One cluster node: lifecycle around a private :class:`PoolBackend`.

A :class:`PoolNode` is the unit the cluster scales and kills: an
independent :class:`~repro.ssnn.pool.InferencePool` process group (its
shared-memory segment names embed the pool instance, so namespaces
never collide across nodes) run through the node's *own*
:class:`~repro.serve.backend.PoolBackend` -- the same pool -> breaker
-> serial policy :class:`~repro.serve.server.InferenceServer` uses,
with the node's own :class:`~repro.serve.breaker.CircuitBreaker` and
:class:`~repro.serve.metrics.MetricsRecorder`.  The node adds only
lifecycle: state, in-flight count, drain, kill and partition.

Execution contract: :meth:`PoolNode.infer_rows` is bit-identical to
serial :meth:`CompiledNetwork.forward_rows` in every reachable state --
the pool path inherits the PR 5 exactly-once shard ledger, breaker-open
and poison-quarantined blocks run serially on the node, and a node that
cannot answer **raises** :class:`NodeUnavailableError` instead of ever
returning a degraded answer.  The router's retry logic
(:mod:`repro.cluster.router`) leans on that: an unavailable node loses
the request, never corrupts it.

Lifecycle::

    active --drain()--> draining --retire()--> retired
       \\--kill()--> dead (chaos: abrupt host death, answers lost)

``draining`` stops *new* dispatches (the router checks
:attr:`dispatchable`) while in-flight calls finish; :meth:`drain`
blocks until the last one resolves -- the scale-down handshake.
:meth:`kill` models a dead host: the worker processes are SIGKILLed,
the node flag flips immediately, and any in-flight call raises (its
answer died with the host) so the router re-dispatches it.
:meth:`partition` models a network split: the node is healthy but
unreachable -- probes fail and dispatches raise -- until
:meth:`heal_partition`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.backend import PoolBackend
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import MetricsRecorder, ServerStats
from repro.ssnn.compile import CompiledNetwork

ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"
DEAD = "dead"


class NodeUnavailableError(RuntimeError):
    """The node cannot answer (dead, partitioned, retired).

    The request itself is intact -- the router re-dispatches it to a
    healthy node exactly once (see
    :meth:`repro.cluster.router.ClusterRouter.dispatch`).
    """


class PoolNode:
    """One independent pool "machine" behind the cluster router.

    Args:
        node_id: Stable identity on the consistent-hash ring.
        compiled: The plan this node serves (all nodes of a cluster
            share one plan object in-process; each pool worker gets its
            own pickled copy).
        workers: Pool worker processes; ``0``/``1`` serve serially in
            the caller's process (cheap nodes for routing-only tests).
        breaker: Node-local circuit breaker (default thresholds when
            omitted; inject a fake-clock breaker in tests).
        start_method / result_timeout_s / chaos_hook: Forwarded to the
            node's :class:`~repro.ssnn.pool.InferencePool`.
    """

    def __init__(
        self,
        node_id: str,
        compiled: CompiledNetwork,
        *,
        workers: int = 2,
        breaker: Optional[CircuitBreaker] = None,
        start_method: Optional[str] = None,
        result_timeout_s: float = 60.0,
        chaos_hook: Optional[Callable] = None,
    ):
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        self.node_id = node_id
        self.compiled = compiled
        self.workers = workers
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.metrics = MetricsRecorder()
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._state = ACTIVE
        self._partitioned = False
        self._inflight = 0
        self._backend = PoolBackend(
            compiled,
            workers,
            breaker=self.breaker,
            metrics=self.metrics,
            start_method=start_method,
            result_timeout_s=result_timeout_s,
            chaos_hook=chaos_hook,
        ).open()

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    @property
    def dispatchable(self) -> bool:
        """May the router send *new* work here right now?"""
        return (self._state == ACTIVE and not self._partitioned)

    @property
    def healthy(self) -> bool:
        """Dispatchable and not degraded (breaker not open) -- the
        router's first-choice filter; a node with an open breaker still
        answers correctly (serial fallback) but should shed affinity to
        nodes whose pools are whole."""
        return self.dispatchable and self.breaker.state != "open"

    def load(self) -> int:
        """Row blocks currently executing here (least-loaded metric)."""
        return self._inflight

    def probe(self) -> bool:
        """Reachability probe: can the router still talk to this node?

        ``False`` for dead, retired and partitioned nodes.  Pool worker
        deaths do *not* fail the probe -- the pool resurrects its own
        workers on the next call (PR 5), and breaker state is reported
        separately through :meth:`stats`.
        """
        return self._state in (ACTIVE, DRAINING) and not self._partitioned

    # -- execution -----------------------------------------------------------

    def infer_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Serve one row block, bit-identical to serial
        ``compiled.forward_rows`` -- or raise
        :class:`NodeUnavailableError` without consuming the request."""
        with self._lock:
            self._check_available()
            self._inflight += 1
        self.metrics.record_submit()
        start = time.monotonic()
        try:
            result = self._forward(rows)
            # A node that died mid-call lost its answer with the host:
            # report unavailable so the router re-dispatches, rather
            # than returning a result "from" a dead machine.
            self._check_available()
            self.metrics.record_batch(
                rows.shape[0], result[2],
                [(time.monotonic() - start) * 1000.0],
            )
            return result
        except NodeUnavailableError:
            self.metrics.record_failure()
            raise
        finally:
            with self._lock:
                self._inflight -= 1
                self._drained.notify_all()

    def _check_available(self) -> None:
        if self._state == DEAD:
            raise NodeUnavailableError(f"node {self.node_id} is dead")
        if self._state == RETIRED:
            raise NodeUnavailableError(f"node {self.node_id} is retired")
        if self._partitioned:
            raise NodeUnavailableError(
                f"node {self.node_id} is partitioned from the router"
            )

    def _forward(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        return self._backend.forward(rows)

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting new dispatches and wait for in-flight calls.
        Idempotent; returns ``True`` once the node is quiescent."""
        with self._lock:
            if self._state == ACTIVE:
                self._state = DRAINING
            deadline = time.monotonic() + timeout
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._drained.wait(timeout=remaining)
            return True

    def retire(self) -> None:
        """Shut the node down cleanly (drain first for zero loss).
        Idempotent; a dead node can also be retired (reaps the pool)."""
        with self._lock:
            if self._state == RETIRED:
                return
            if self._state != DEAD:
                self._state = RETIRED
        self._backend.close()

    def kill(self) -> None:
        """Chaos: abrupt whole-node death (host power-off).  Worker
        processes are SIGKILLed, in-flight answers are lost (their
        calls raise :class:`NodeUnavailableError`), and the node never
        serves again.  Call :meth:`retire` afterwards to reap the pool
        resources."""
        self._state = DEAD
        pool = self._backend.pool
        if pool is not None:
            for proc in list(pool._procs):
                try:
                    proc.kill()
                except (ValueError, OSError):
                    pass  # handle already closed, or process already gone

    def partition(self) -> None:
        """Chaos: the node becomes unreachable (probes and dispatches
        fail) while its processes stay healthy."""
        self._partitioned = True

    def heal_partition(self) -> None:
        self._partitioned = False

    # -- observability -------------------------------------------------------

    def alive_workers(self) -> int:
        return self._backend.gauges()[1]

    def restarts(self) -> int:
        return self._backend.gauges()[2]

    def stats(self) -> ServerStats:
        configured, alive, restarts = self._backend.gauges()
        return self.metrics.snapshot(
            breaker_state=self.breaker.state,
            workers_configured=configured,
            workers_alive=alive,
            worker_restarts=restarts,
            queue_depth=self._inflight,
        )

    def health(self) -> Dict:
        """Point-in-time node health (``repro.cluster.node/v1``)."""
        return {
            "schema": "repro.cluster.node/v1",
            "node_id": self.node_id,
            "state": self._state,
            "partitioned": self._partitioned,
            "dispatchable": self.dispatchable,
            "healthy": self.healthy,
            "inflight": self._inflight,
            "breaker": self.breaker.snapshot().to_dict(),
            "stats": self.stats().to_dict(),
        }

    def __enter__(self) -> "PoolNode":
        return self

    def __exit__(self, *exc) -> None:
        self.retire()

    def __repr__(self) -> str:
        mode = (f"pool[{self.workers}]" if self._backend.pool is not None
                else "serial")
        return (f"<PoolNode {self.node_id} {self._state} {mode} "
                f"breaker={self.breaker.state} "
                f"inflight={self._inflight}>")

"""The one row-block failure policy: pool, then breaker, then serial.

:class:`~repro.serve.server.InferenceServer`, each cluster
:class:`~repro.cluster.node.PoolNode` and
:class:`~repro.ssnn.runtime.SushiRuntime` run their pool row blocks
through a :class:`PoolBackend`:

* the pool runs the block while the breaker allows it;
* a :class:`~repro.ssnn.pool.PoisonBatchError` is a breaker *success*
  (the pool healed itself and fingered the block), and the block runs
  serially;
* any other failure in :data:`DEGRADE_ERRORS` counts toward the breaker,
  and the block runs serially;
* the pool is never discarded on failure -- the breaker decides when to
  try it again.

Rows are independent, so the serial ``forward_rows`` answer is
bit-identical to the pool's in every state.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import MetricsRecorder
from repro.ssnn.compile import CompiledNetwork
from repro.ssnn.pool import InferencePool, PoisonBatchError

#: Pool failures that degrade a block to serial: a missing or forbidden
#: multiprocessing stack (ImportError/OSError/PermissionError) and
#: mid-run pool failures (InferencePoolError and bad spawn contexts both
#: derive from RuntimeError).
DEGRADE_ERRORS = (ImportError, OSError, PermissionError, RuntimeError)


class PoolBackend:
    """Breaker-guarded pool execution with serial fallback.

    Args:
        compiled: The plan every block runs through (also the serial
            fallback).
        workers: Pool worker processes; ``0``/``1`` never spawn a pool.
        breaker: Guards the pool path (default thresholds when omitted).
        metrics: Counts poison blocks and pool failures (a private
            recorder when omitted).
        **pool_options: Forwarded to :class:`InferencePool`.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        workers: int,
        *,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRecorder] = None,
        **pool_options,
    ):
        self.compiled = compiled
        self.workers = workers
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self.pool_options = pool_options
        self.pool: Optional[InferencePool] = None

    def open(self) -> "PoolBackend":
        """Spawn the pool if one is configured and none is held."""
        if self.workers > 1 and self.pool is None:
            try:
                self.pool = InferencePool(
                    self.compiled, workers=self.workers, **self.pool_options
                )
            except DEGRADE_ERRORS:
                self.pool = None  # serve serially
        return self

    def forward(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Run one row block: ``(decisions, spurious, synops)``."""
        pool = self.pool
        if pool is not None and not pool.closed and self.breaker.allow():
            try:
                result = pool.infer_rows(rows)
            except PoisonBatchError:
                self.breaker.record_success()
                self.metrics.record_poison()
            except DEGRADE_ERRORS:
                self.breaker.record_failure()
                self.metrics.record_pool_failure()
            else:
                self.breaker.record_success()
                return result
        return self.compiled.forward_rows(rows)

    def gauges(self) -> Tuple[int, int, int]:
        """Pool gauges ``(configured, alive, restarts)``; zeros when no
        pool is held."""
        pool = self.pool
        if pool is None:
            return 0, 0, 0
        return pool.workers, pool.alive_workers(), pool.restarts

    def close(self) -> None:
        """Release the pool (idempotent); :meth:`forward` keeps
        answering serially and :meth:`open` may spawn a fresh pool."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

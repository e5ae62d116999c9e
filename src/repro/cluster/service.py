"""Cluster-backed inference server: the gateway-compatible facade.

:class:`ClusterServer` subclasses
:class:`~repro.serve.server.InferenceServer` and installs a
:class:`~repro.cluster.router.ClusterRouter` over N
:class:`~repro.cluster.node.PoolNode` process groups as its row
backend in place of the single pool.  Everything above the backend --
request batching, deadlines, futures, admission control, the HTTP
gateway -- is inherited unchanged, so ``python -m repro serve --nodes
4`` is the one-machine stack scaled out with zero gateway changes:

* :meth:`readiness` additionally requires at least one routable node
  (the gateway's ``/readyz`` flips 503 when the whole cluster is gone,
  even though the router could still answer serially).
* :meth:`health` grows a ``"cluster"`` section (router counters,
  per-node states) and, when autoscaling is on, an ``"autoscaler"``
  section with the decision trajectory.
* :meth:`cluster_families` exposes the cluster-wide Prometheus gauges
  (nodes by state, per-node breaker one-hot, rebalance count); the
  gateway appends them to ``/metrics`` by duck-typing this hook.

A background supervisor thread (``supervise_interval_s``) runs the
router's health sweep -- quarantining partitioned nodes, rejoining
healed ones, evicting the dead -- and, when an
:class:`~repro.cluster.autoscaler.AutoscalerConfig` is supplied, the
autoscaler's :meth:`~repro.cluster.autoscaler.Autoscaler.tick`.  Chaos
scenarios and tests set ``supervise_interval_s=0`` and drive both
explicitly for determinism.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.node import PoolNode
from repro.cluster.router import ClusterRouter
from repro.serve.metrics import MetricFamily
from repro.serve.server import InferenceServer


class ClusterServer(InferenceServer):
    """Micro-batching server whose forward path is a node cluster.

    Args:
        network / compiled / chip_n / sc_per_npe / reorder / batch_max /
            deadline_ms / plan_cache / queue_max / breaker: As for
            :class:`InferenceServer` (``deadline_ms`` is validated but
            no longer delays dispatch: the router call is synchronous,
            so batches form from what queues while it runs).  The
            inherited breaker guards nothing here (each node carries
            its own); it stays closed so admission control keeps
            working unmodified.
        nodes: Initial cluster size (spawned on :meth:`start`).
        node_workers: Pool worker processes **per node**; ``0``/``1``
            makes serial nodes (cheap, still exercises routing).
        replicas: Virtual points per node on the consistent-hash ring.
        autoscaler_config: Enable autoscaling with this policy; the
            default ``None`` keeps cluster size manual.
        supervise_interval_s: Period of the background probe/autoscale
            sweep; ``0`` disables the thread (tests drive
            ``router.probe_all()`` / ``autoscaler.tick()`` directly).
    """

    def __init__(
        self,
        network=None,
        *,
        compiled=None,
        chip_n: int = 16,
        sc_per_npe: int = 10,
        reorder: bool = True,
        batch_max: int = 512,
        deadline_ms: float = 2.0,
        nodes: int = 2,
        node_workers: int = 2,
        replicas: int = 64,
        autoscaler_config: Optional[AutoscalerConfig] = None,
        supervise_interval_s: float = 0.25,
        plan_cache="default",
        queue_max: int = 65536,
        breaker=None,
    ):
        if nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if node_workers < 0:
            raise ConfigurationError("node_workers must be >= 0")
        if supervise_interval_s < 0:
            raise ConfigurationError("supervise_interval_s must be >= 0")
        super().__init__(
            network,
            compiled=compiled,
            chip_n=chip_n,
            sc_per_npe=sc_per_npe,
            reorder=reorder,
            batch_max=batch_max,
            deadline_ms=deadline_ms,
            workers=0,  # no server-level pool; nodes own the pools
            plan_cache=plan_cache,
            queue_max=queue_max,
            breaker=breaker,
        )
        self.initial_nodes = nodes
        self.node_workers = node_workers
        self.supervise_interval_s = supervise_interval_s
        self.router = ClusterRouter(self.compiled, replicas=replicas)
        self._backend = self.router
        self._node_seq = 0
        self.autoscaler: Optional[Autoscaler] = None
        if autoscaler_config is not None:
            self.autoscaler = Autoscaler(
                self.router, self.spawn_node, config=autoscaler_config
            )
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        # Sweeps that raised and were survived, and the last such
        # exception's type name -- reported by health().
        self.supervisor_errors = 0
        self.supervisor_last_error: Optional[str] = None

    # -- topology ------------------------------------------------------------

    def spawn_node(self, node_id: Optional[str] = None) -> PoolNode:
        """Build (but do not join) one node with this server's pool
        configuration -- also the autoscaler's node factory."""
        if node_id is None:
            node_id = f"node-{self._node_seq}"
        self._node_seq += 1
        return PoolNode(
            node_id, self.compiled, workers=self.node_workers
        )

    def add_node(self, node_id: Optional[str] = None) -> PoolNode:
        """Spawn and join one node (manual scale-up)."""
        return self.router.join(self.spawn_node(node_id))

    def remove_node(self, node_id: str, timeout: float = 30.0) -> bool:
        """Drain-then-retire one node (manual scale-down)."""
        return self.router.leave(node_id, timeout=timeout)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterServer":
        if self._running:
            return self
        super().start()
        if self.supervise_interval_s > 0:
            self._supervisor_stop.clear()
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="sushi-cluster-supervisor",
                daemon=True,
            )
            self._supervisor.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._supervisor_stop.set()
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.join(timeout=timeout)
        super().stop(drain=drain, timeout=timeout)  # retires every node

    def _open_backend(self) -> None:
        """Spawn and join nodes up to the initial cluster size."""
        while self.router.alive_count() < self.initial_nodes:
            self.add_node()

    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self.supervise_interval_s):
            try:
                self.router.probe_all()
                if self.autoscaler is not None:
                    self.autoscaler.tick()
            except Exception as exc:
                # One bad sweep must not kill supervision; count it so
                # the failure is visible in health().
                self.supervisor_errors += 1
                self.supervisor_last_error = type(exc).__name__

    # -- observability -------------------------------------------------------

    def readiness(self) -> bool:
        """Ready only while the dispatcher accepts *and* at least one
        node is routable -- losing the whole cluster flips ``/readyz``
        even though dispatch would still answer serially."""
        return super().readiness() and self.router.alive_count() >= 1

    def health(self) -> Dict:
        health = super().health()
        health["mode"] = f"cluster[{self.router.alive_count()}]"
        health["cluster"] = self.router.stats()
        health["supervisor"] = {
            "errors": self.supervisor_errors,
            "last_error": self.supervisor_last_error,
        }
        if self.autoscaler is not None:
            health["autoscaler"] = self.autoscaler.stats()
        return health

    def cluster_families(self, namespace: str = "sushi"
                         ) -> List[MetricFamily]:
        """Cluster-wide metric families -- the gateway appends these to
        ``/metrics`` when its backend exposes this hook."""
        families = self.router.metric_families(namespace)
        if self.autoscaler is not None:
            families.extend([
                (f"{namespace}_cluster_scale_ups_total", "counter",
                 "Autoscaler scale-up actions",
                 [(None, self.autoscaler.scale_ups)]),
                (f"{namespace}_cluster_scale_downs_total", "counter",
                 "Autoscaler scale-down actions",
                 [(None, self.autoscaler.scale_downs)]),
            ])
        return families

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return (f"<ClusterServer {state} "
                f"nodes={self.router.alive_count()} "
                f"node_workers={self.node_workers} "
                f"autoscaler={'on' if self.autoscaler else 'off'} "
                f"plan={self.compiled.fingerprint[:12]}>")

"""Failure-aware request routing across pool nodes.

:class:`ClusterRouter` owns the node roster and the consistent-hash
ring, and turns "run this row block somewhere" into a concrete node
choice with three guarantees:

1. **Plan affinity.**  The default affinity key is the compiled plan's
   :func:`~repro.ssnn.compile.network_fingerprint` combined with a
   content digest of the row block, so identical requests route to the
   same node (warm caches, stable shard behaviour) while the key
   population spreads evenly (see :mod:`repro.cluster.ring`).
2. **Failure-aware selection.**  The affinity owner is used only while
   *healthy* (reachable and breaker not open); otherwise the dispatch
   falls through the ring's preference order, and when no healthy node
   exists, to the **least-loaded** reachable node (an open-breaker node
   still answers bit-identically via its serial path).
3. **Exactly-once re-dispatch.**  A node that fails *during* execution
   (dead or partitioned mid-call -- :class:`NodeUnavailableError`) is
   evicted or quarantined and the request is re-dispatched **once** to
   the next healthy node.  If that also fails -- or no node is left --
   the router answers serially from its own plan reference.  Every
   path returns exactly ``compiled.forward_rows(rows)``; node failure
   can add latency, never wrong answers.

Membership lifecycle: :meth:`join` (ring insert), :meth:`leave`
(drain-before-retire: ring removal first so no new work arrives, then
wait for in-flight, then retire), :meth:`evict` (abrupt removal for
dead nodes, pool reaped in the background) and :meth:`probe_all`
(health sweep: partitioned nodes are *quarantined* -- out of the ring
but kept on the roster so a healed partition rejoins; dead nodes are
evicted).  Every ring change increments the ``rebalances`` counter
exported on ``/metrics``.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.cluster.node import ACTIVE, DEAD, NodeUnavailableError, PoolNode
from repro.cluster.ring import ConsistentHashRing
from repro.serve.metrics import MetricFamily
from repro.ssnn.compile import CompiledNetwork

CLUSTER_SCHEMA = "repro.cluster/v1"


class ClusterUnavailableError(RuntimeError):
    """No node answered and the router has no serial fallback plan."""


class ClusterRouter:
    """Consistent-hash dispatch with health-based fallback and retry.

    Args:
        compiled: The plan the cluster serves; also the router's serial
            last-resort executor, so answers survive total node loss.
        replicas: Virtual points per node on the hash ring.
    """

    def __init__(self, compiled: CompiledNetwork, *, replicas: int = 64):
        self.compiled = compiled
        self._ring = ConsistentHashRing(replicas=replicas)
        self._nodes: Dict[str, PoolNode] = {}
        self._lock = threading.Lock()
        # Dispatch counters (all monotonic).
        self.dispatches = 0
        self.affinity_hits = 0
        self.fallbacks = 0
        self.retries = 0
        self.serial_fallbacks = 0
        # Membership counters.
        self.rebalances = 0
        self.evictions = 0
        self.quarantines = 0
        self.rejoins = 0

    # -- membership ----------------------------------------------------------

    def join(self, node: PoolNode) -> PoolNode:
        """Add ``node`` to the roster and the ring (idempotent)."""
        with self._lock:
            if node.node_id in self._nodes:
                return node
            self._nodes[node.node_id] = node
            self._ring.add(node.node_id)
            self.rebalances += 1
        return node

    def leave(self, node_id: str, timeout: float = 30.0) -> bool:
        """Graceful removal: de-ring first (no new work), drain
        in-flight calls, retire the pool, drop from the roster.
        Returns ``True`` when the drain completed inside ``timeout``."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                return True
            if node_id in self._ring:
                self._ring.remove(node_id)
                self.rebalances += 1
        drained = node.drain(timeout=timeout)
        node.retire()
        with self._lock:
            self._nodes.pop(node_id, None)
        return drained

    def evict(self, node_id: str) -> None:
        """Abrupt removal of a dead node: out of the ring immediately;
        the node object stays on the roster (state ``dead``) for
        observability and its pool is reaped in the background."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                return
            if node_id in self._ring:
                self._ring.remove(node_id)
                self.rebalances += 1
            self.evictions += 1
        threading.Thread(
            target=node.retire, name=f"reap-{node_id}", daemon=True
        ).start()

    def probe_all(self) -> Dict[str, bool]:
        """Health sweep: quarantine unreachable nodes (out of the ring,
        kept on the roster), rejoin healed ones, evict the dead.
        Returns ``{node_id: reachable}``."""
        with self._lock:
            roster = list(self._nodes.items())
        verdicts: Dict[str, bool] = {}
        for node_id, node in roster:
            reachable = node.probe()
            verdicts[node_id] = reachable
            with self._lock:
                in_ring = node_id in self._ring
                if reachable and not in_ring and node.state == ACTIVE:
                    self._ring.add(node_id)
                    self.rebalances += 1
                    self.rejoins += 1
                elif not reachable and in_ring:
                    self._ring.remove(node_id)
                    self.rebalances += 1
                    if node.state == DEAD:
                        self.evictions += 1
                    else:
                        self.quarantines += 1
            if node.state == DEAD:
                threading.Thread(
                    target=node.retire, name=f"reap-{node_id}", daemon=True,
                ).start()
        return verdicts

    def shutdown(self) -> None:
        """Retire every node (test/CLI teardown)."""
        with self._lock:
            roster = list(self._nodes.values())
            self._nodes.clear()
            for node_id in self._ring.node_ids:
                self._ring.remove(node_id)
        for node in roster:
            node.retire()

    close = shutdown  # row-backend interface (see ClusterServer)

    # -- accessors -----------------------------------------------------------

    def node(self, node_id: str) -> Optional[PoolNode]:
        with self._lock:
            return self._nodes.get(node_id)

    def node_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._nodes))

    def routable_nodes(self) -> List[PoolNode]:
        """Nodes currently accepting new dispatches."""
        with self._lock:
            return [n for n in self._nodes.values() if n.dispatchable]

    def alive_count(self) -> int:
        return len(self.routable_nodes())

    # -- dispatch ------------------------------------------------------------

    def affinity_key(self, rows: np.ndarray) -> str:
        """Plan-affine content key: fingerprint + row-block digest."""
        digest = hashlib.sha256(
            np.ascontiguousarray(rows, dtype=np.float64).tobytes()
        ).hexdigest()[:16]
        return f"{self.compiled.fingerprint}:{digest}"

    def _select(
        self, key: str, exclude: Tuple[str, ...] = ()
    ) -> Tuple[Optional[PoolNode], bool]:
        """Pick the execution node for ``key``.

        Returns ``(node, affine)``: the first *healthy* node in ring
        preference order (``affine`` when it is the key's owner), else
        the least-loaded merely-*dispatchable* node, else ``None``
        (caller answers serially).
        """
        with self._lock:
            preference = self._ring.preference(key)
            candidates = [
                self._nodes[node_id]
                for node_id in preference
                if node_id in self._nodes and node_id not in exclude
            ]
            healthy = [n for n in candidates if n.healthy]
            if healthy:
                node = healthy[0]
                return node, bool(preference) and (
                    node.node_id == preference[0]
                )
            dispatchable = [
                n for n in self._nodes.values()
                if n.dispatchable and n.node_id not in exclude
            ]
            if dispatchable:
                return min(dispatchable, key=lambda n: n.load()), False
            return None, False

    def dispatch(
        self, rows: np.ndarray, key: Optional[str] = None
    ) -> Tuple[np.ndarray, int, int]:
        """Execute ``rows`` on the cluster; bit-identical to serial
        ``compiled.forward_rows`` in every failure combination."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.compiled.in_features:
            raise ConfigurationError(
                f"expected (batch, {self.compiled.in_features}) rows, "
                f"got {rows.shape}"
            )
        if key is None:
            key = self.affinity_key(rows)
        with self._lock:
            self.dispatches += 1
        failed: List[str] = []
        # First choice + exactly one re-dispatch, then serial.
        for attempt in range(2):
            node, affine = self._select(key, exclude=tuple(failed))
            if node is None:
                break
            try:
                result = node.infer_rows(rows)
            except NodeUnavailableError:
                failed.append(node.node_id)
                self._note_unavailable(node)
                with self._lock:
                    self.retries += 1
                continue
            with self._lock:
                if affine:
                    self.affinity_hits += 1
                else:
                    self.fallbacks += 1
            return result
        with self._lock:
            self.serial_fallbacks += 1
        return self.compiled.forward_rows(rows)

    def forward(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Row-backend interface: :meth:`dispatch` under the default
        affinity key."""
        return self.dispatch(rows)

    @staticmethod
    def gauges() -> Tuple[int, int, int]:
        """Row-backend pool gauges ``(configured, alive, restarts)``:
        the router holds no pool itself (each node reports its own in
        :meth:`stats`), so all zero."""
        return 0, 0, 0

    def _note_unavailable(self, node: PoolNode) -> None:
        """A node failed during execution: take it out of rotation --
        quarantine if partitioned (it may heal), evict if dead."""
        with self._lock:
            in_ring = node.node_id in self._ring
            if in_ring:
                self._ring.remove(node.node_id)
                self.rebalances += 1
            if node.state == DEAD:
                self.evictions += 1
            elif in_ring:
                self.quarantines += 1
        if node.state == DEAD:
            threading.Thread(
                target=node.retire, name=f"reap-{node.node_id}", daemon=True,
            ).start()

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict:
        """Cluster-wide snapshot (schema ``repro.cluster/v1``)."""
        with self._lock:
            nodes = dict(self._nodes)
            counters = {
                "dispatches": self.dispatches,
                "affinity_hits": self.affinity_hits,
                "fallbacks": self.fallbacks,
                "retries": self.retries,
                "serial_fallbacks": self.serial_fallbacks,
                "rebalances": self.rebalances,
                "evictions": self.evictions,
                "quarantines": self.quarantines,
                "rejoins": self.rejoins,
            }
            ring_ids = set(self._ring.node_ids)
        states: Dict[str, int] = {}
        per_node = {}
        for node_id, node in sorted(nodes.items()):
            states[node.state] = states.get(node.state, 0) + 1
            per_node[node_id] = {
                "state": node.state,
                "partitioned": node.partitioned,
                "in_ring": node_id in ring_ids,
                "breaker": node.breaker.state,
                "workers_alive": node.alive_workers(),
                "restarts": node.restarts(),
                "inflight": node.load(),
                "dispatches": node.metrics.requests,
            }
        return {
            "schema": CLUSTER_SCHEMA,
            "plan": self.compiled.fingerprint,
            "nodes_total": len(nodes),
            "nodes_routable": sum(
                1 for n in nodes.values() if n.dispatchable
            ),
            "node_states": states,
            "counters": counters,
            "per_node": per_node,
        }

    def metric_families(self, namespace: str = "sushi") -> List[MetricFamily]:
        """Cluster gauges/counters for Prometheus text exposition --
        appended to the gateway's ``/metrics`` (see docs/CLUSTER.md)."""
        from repro.serve.metrics import BREAKER_STATES

        snap = self.stats()
        n = namespace
        state_samples = [
            ({"state": state}, snap["node_states"].get(state, 0))
            for state in (ACTIVE, "draining", "retired", DEAD)
        ]
        breaker_samples = []
        workers_samples = []
        inflight_samples = []
        dispatch_samples = []
        for node_id, entry in snap["per_node"].items():
            for state in BREAKER_STATES:
                breaker_samples.append((
                    {"node": node_id, "state": state},
                    1.0 if entry["breaker"] == state else 0.0,
                ))
            workers_samples.append(({"node": node_id},
                                    entry["workers_alive"]))
            inflight_samples.append(({"node": node_id}, entry["inflight"]))
            dispatch_samples.append(({"node": node_id},
                                     entry["dispatches"]))
        counters = snap["counters"]
        return [
            (f"{n}_cluster_nodes", "gauge",
             "Cluster nodes by lifecycle state", state_samples),
            (f"{n}_cluster_nodes_routable", "gauge",
             "Nodes currently accepting dispatches",
             [(None, snap["nodes_routable"])]),
            (f"{n}_cluster_node_breaker_state", "gauge",
             "Per-node circuit breaker state (one-hot)",
             breaker_samples or [(None, 0)]),
            (f"{n}_cluster_node_workers_alive", "gauge",
             "Per-node live pool workers",
             workers_samples or [(None, 0)]),
            (f"{n}_cluster_node_inflight", "gauge",
             "Per-node row blocks executing now",
             inflight_samples or [(None, 0)]),
            (f"{n}_cluster_node_dispatches_total", "counter",
             "Per-node row blocks dispatched",
             dispatch_samples or [(None, 0)]),
            (f"{n}_cluster_dispatches_total", "counter",
             "Row blocks dispatched through the router",
             [(None, counters["dispatches"])]),
            (f"{n}_cluster_affinity_hits_total", "counter",
             "Dispatches served by the consistent-hash owner",
             [(None, counters["affinity_hits"])]),
            (f"{n}_cluster_fallbacks_total", "counter",
             "Dispatches routed around an unhealthy affinity owner",
             [(None, counters["fallbacks"])]),
            (f"{n}_cluster_retries_total", "counter",
             "Requests re-dispatched after a node failed mid-call",
             [(None, counters["retries"])]),
            (f"{n}_cluster_serial_fallbacks_total", "counter",
             "Row blocks answered serially by the router itself",
             [(None, counters["serial_fallbacks"])]),
            (f"{n}_cluster_rebalances_total", "counter",
             "Consistent-hash ring membership changes",
             [(None, counters["rebalances"])]),
            (f"{n}_cluster_evictions_total", "counter",
             "Dead nodes removed from rotation",
             [(None, counters["evictions"])]),
            (f"{n}_cluster_quarantines_total", "counter",
             "Partitioned nodes taken out of the ring",
             [(None, counters["quarantines"])]),
            (f"{n}_cluster_rejoins_total", "counter",
             "Healed nodes re-inserted into the ring",
             [(None, counters["rejoins"])]),
        ]

    def __repr__(self) -> str:
        with self._lock:
            total = len(self._nodes)
        return (f"<ClusterRouter nodes={total} "
                f"routable={self.alive_count()} "
                f"dispatches={self.dispatches} retries={self.retries} "
                f"plan={self.compiled.fingerprint[:12]}>")

"""The asyncio HTTP/JSON gateway in front of :class:`InferenceServer`.

This is the repo's network edge: a stdlib-only (``asyncio`` streams +
hand-rolled HTTP/1.1, see :mod:`repro.gateway.protocol`) service that
turns the in-process micro-batching server into something a load
balancer can front.  One event loop accepts connections; ``/infer``
requests flow auth -> rate limit -> admission -> validate -> submit,
and the resulting :class:`concurrent.futures.Future` is awaited via
``asyncio.wrap_future`` so thousands of in-flight requests cost one
coroutine each, never a thread.

Endpoints:

========  ======  ====================================================
path      method  behaviour
========  ======  ====================================================
/infer    POST    authenticated inference; 200 / 400 / 401 / 413 /
                  429 (rate limit) / 503 (admission) / 504 (deadline)
/healthz  GET     full :meth:`InferenceServer.health` JSON (always
                  200 while the gateway is up -- liveness)
/readyz   GET     200 when ready, 503 (``not_ready``) otherwise --
                  the load-balancer admission check
/metrics  GET     Prometheus text exposition: backend ``ServerStats``
                  families + gateway HTTP counters
/drain    POST    authenticated: stop intake, wait for queued work
                  (runs in an executor; the loop stays responsive)
========  ======  ====================================================

Error mapping (the contract the acceptance tests pin): over-limit
tenants get **429** ``rate_limited``; an open pool breaker or an
over-deep queue gets **503** ``breaker_open`` / ``queue_full``; a
low-priority tenant past the soft queue watermark gets **503**
``overloaded`` (shed-before-queue); a request whose ``deadline_ms``
lapses while queued gets **504** ``deadline_exceeded``.  Every 429/503
carries a ``Retry-After`` header derived from the bucket refill or
breaker cooldown.  Every rejection increments a labelled
``sushi_gateway_rejections_total`` counter (sheds additionally land in
``sushi_shed_requests_total`` by code and priority), so ``/metrics``
tells the same story the status codes do.

Exactly-once retries: an ``Idempotency-Key`` request header scopes the
request into the per-tenant :class:`IdempotencyLedger`.  A retried or
hedged request whose original was already *accepted* (submitted to the
backend) awaits / replays the recorded outcome instead of computing
twice, and the response is marked ``X-Idempotent-Replay: true``.
Pre-admission rejections (401/429/503) are never recorded, so a
retry after a shed gets a fresh chance.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import queue as queue_module
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.gateway.auth import ApiKeyAuthenticator, demo_tenants
from repro.gateway.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    IDEMPOTENCY_KEY_HEADER,
    REPLAY_HEADER,
    HttpRequest,
    ProtocolError,
    error_body,
    infer_response_body,
    json_body,
    parse_infer_request,
    read_request,
    render_response,
)
from repro.gateway.ratelimit import AdmissionController, RateLimiter
from repro.serve.metrics import (
    MetricFamily,
    client_counter_families,
    render_prometheus,
    server_stats_families,
    shed_families,
)

GATEWAY_SCHEMA = "repro.gateway/v1"

#: Paths the router knows, with their allowed methods.
ROUTES = {
    "/infer": ("POST",),
    "/healthz": ("GET",),
    "/readyz": ("GET",),
    "/metrics": ("GET",),
    "/drain": ("POST",),
}


class GatewayMetrics:
    """Thread-safe HTTP-layer counters behind ``/metrics``.

    ``requests`` counts by ``(path, status)``; ``rejections`` counts by
    typed error code (the load-shedding story); ``tenant_requests``
    counts authenticated ``/infer`` calls by ``(tenant, status)`` so
    per-tenant skew is observable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.requests: Dict[Tuple[str, int], int] = {}
        self.rejections: Dict[str, int] = {}
        self.tenant_requests: Dict[Tuple[str, int], int] = {}
        self.sheds: Dict[Tuple[str, int], int] = {}
        self.idempotent_replays: Dict[str, int] = {}
        self.connections = 0
        self.in_flight = 0

    def record(self, path: str, status: int,
               code: Optional[str] = None,
               tenant: Optional[str] = None) -> None:
        key = (path if path in ROUTES else "other", status)
        with self._lock:
            self.requests[key] = self.requests.get(key, 0) + 1
            if code is not None and status >= 400:
                self.rejections[code] = self.rejections.get(code, 0) + 1
            if tenant is not None:
                tkey = (tenant, status)
                self.tenant_requests[tkey] = (
                    self.tenant_requests.get(tkey, 0) + 1
                )

    def record_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def record_shed(self, code: str, priority: int) -> None:
        key = (code, int(priority))
        with self._lock:
            self.sheds[key] = self.sheds.get(key, 0) + 1

    def record_replay(self, tenant: str) -> None:
        with self._lock:
            self.idempotent_replays[tenant] = (
                self.idempotent_replays.get(tenant, 0) + 1
            )

    def adjust_in_flight(self, delta: int) -> None:
        with self._lock:
            self.in_flight += delta

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "rejections": dict(self.rejections),
                "tenant_requests": dict(self.tenant_requests),
                "sheds": dict(self.sheds),
                "idempotent_replays": dict(self.idempotent_replays),
                "connections": self.connections,
                "in_flight": self.in_flight,
            }

    def families(self, namespace: str = "sushi") -> List[MetricFamily]:
        snap = self.snapshot()
        n = namespace
        return [
            (f"{n}_gateway_requests_total", "counter",
             "HTTP requests served, by path and status",
             [({"path": path, "status": str(status)}, count)
              for (path, status), count in sorted(snap["requests"].items())]
             or [(None, 0)]),
            (f"{n}_gateway_rejections_total", "counter",
             "Requests rejected, by typed error code",
             [({"code": code}, count)
              for code, count in sorted(snap["rejections"].items())]
             or [(None, 0)]),
            (f"{n}_gateway_tenant_requests_total", "counter",
             "Authenticated /infer requests, by tenant and status",
             [({"tenant": tenant, "status": str(status)}, count)
              for (tenant, status), count
              in sorted(snap["tenant_requests"].items())]
             or [(None, 0)]),
            (f"{n}_gateway_connections_total", "counter",
             "TCP connections accepted", [(None, snap["connections"])]),
            (f"{n}_gateway_in_flight", "gauge",
             "Requests currently being handled",
             [(None, snap["in_flight"])]),
            (f"{n}_gateway_idempotent_replays_total", "counter",
             "Responses replayed from the idempotency ledger, by tenant",
             [({"tenant": tenant}, count)
              for tenant, count
              in sorted(snap["idempotent_replays"].items())]
             or [(None, 0)]),
        ] + shed_families(snap["sheds"], namespace=n)


class IdempotencyLedger:
    """Per-tenant exactly-once bookkeeping for accepted ``/infer`` work.

    Keys are ``"<tenant>:<Idempotency-Key>"``; values are asyncio
    futures resolving to the recorded ``(status, body)``.  All access
    happens on the gateway's single event loop, so plain dict
    operations are race-free; the only concurrency is multiple
    handlers awaiting the same pending future (a hedge racing its
    primary), which is exactly the asyncio future contract.

    Lifecycle: an entry is created the moment the backend *accepts* a
    submit (``begin``), resolved in place on success (kept, LRU
    bounded by ``capacity``), and resolved-then-dropped on failure so
    a later retry gets a fresh compute instead of a replayed 5xx.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, asyncio.Future]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[asyncio.Future]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def begin(self, key: str) -> asyncio.Future:
        entry = asyncio.get_running_loop().create_future()
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._evict()
        return entry

    def resolve_success(self, key: str, outcome: Tuple[int, bytes]) -> None:
        entry = self._entries.get(key)
        if entry is not None and not entry.done():
            entry.set_result(outcome)

    def resolve_failure(self, key: str, outcome: Tuple[int, bytes]) -> None:
        """Wake waiters with the failure, then forget the key: the
        request never produced an answer worth replaying, so the next
        retry earns a fresh compute."""
        entry = self._entries.pop(key, None)
        if entry is not None and not entry.done():
            entry.set_result(outcome)

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            for key, entry in self._entries.items():
                if entry.done():
                    del self._entries[key]
                    break
            else:  # every entry still in flight: nothing evictable
                break


class Gateway:
    """The HTTP edge over one :class:`InferenceServer`.

    Args:
        server: A *started* :class:`~repro.serve.server.InferenceServer`
            (the gateway never starts or stops the backend except via
            ``/drain``).
        authenticator: Tenant credential store; defaults to the
            :func:`~repro.gateway.auth.demo_tenants` roster (CI smoke,
            quickstarts) -- production callers pass their own.
        rate_limiter: Per-tenant token buckets; a default
            :class:`RateLimiter` is built when omitted (inject one with
            a fake clock for tests).
        admission: Queue-depth/breaker admission; a default
            :class:`AdmissionController` over ``server`` when omitted.
        host / port: Bind address; port 0 picks an ephemeral port
            (read :attr:`port` after start).
        max_body_bytes: ``413`` bound on request bodies.
        submit_timeout_s: Bound on the (normally instant) backend
            enqueue; hitting it means the queue raced past admission
            control and is shed as ``queue_full``.

    Use :meth:`run_in_thread` / :meth:`close` (or the context manager)
    to drive the gateway from synchronous code -- tests, the load
    harness, the CI smoke; ``asyncio.run(gateway.serve_forever())``
    for the CLI.
    """

    def __init__(
        self,
        server,
        *,
        authenticator: Optional[ApiKeyAuthenticator] = None,
        rate_limiter: Optional[RateLimiter] = None,
        admission: Optional[AdmissionController] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        submit_timeout_s: float = 1.0,
        idempotency_capacity: int = 4096,
    ):
        self.server = server
        self.authenticator = (
            authenticator if authenticator is not None
            else ApiKeyAuthenticator(demo_tenants())
        )
        self.rate_limiter = (rate_limiter if rate_limiter is not None
                             else RateLimiter())
        self.admission = (admission if admission is not None
                          else AdmissionController(server))
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.submit_timeout_s = submit_timeout_s
        self.metrics = GatewayMetrics()
        self.idempotency = IdempotencyLedger(capacity=idempotency_capacity)
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._started = threading.Event()
        # writer -> request-in-flight; all mutations happen on the
        # event loop, so plain dict ops are race-free.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._draining = False

    # -- asyncio lifecycle ---------------------------------------------------

    async def start(self) -> "Gateway":
        """Bind the listener on the current event loop."""
        self._loop = asyncio.get_running_loop()
        self._draining = False
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        server, self._asyncio_server = self._asyncio_server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Hang up idle keep-alive connections so their handlers exit
        # now; a handler mid-request keeps its socket, finishes
        # writing the response, then sees the drain flag and closes.
        self._draining = True
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled -- the CLI path."""
        if self._asyncio_server is None:
            await self.start()
        try:
            await self._asyncio_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- thread-hosted lifecycle (tests, loadgen, CI smoke) ------------------

    def run_in_thread(self) -> "Gateway":
        """Boot the gateway on a dedicated event-loop thread and block
        until the listener is bound (or startup failed)."""
        if self._thread is not None:
            return self

        def _runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # startup failed: surface it
                self._startup_error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_forever()
                loop.run_until_complete(self.stop())
                # Let in-flight handler tasks unwind before closing.
                pending = asyncio.all_tasks(loop)
                if pending:
                    loop.run_until_complete(asyncio.wait(pending, timeout=5))
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_runner, name="sushi-gateway", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        if not self._started.is_set():
            raise ConfigurationError("gateway failed to start within 30s")
        return self

    def close(self) -> None:
        """Stop the thread-hosted gateway (idempotent)."""
        thread, self._thread = self._thread, None
        loop = self._loop
        if thread is None or loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        self._started.clear()

    def __enter__(self) -> "Gateway":
        return self.run_in_thread()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.metrics.record_connection()
        self._connections[writer] = False
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except ProtocolError as exc:
                    # Framing is broken: answer once and hang up.
                    self.metrics.record("other", exc.status, code=exc.code)
                    writer.write(render_response(
                        exc.status, error_body(exc.code, exc.message),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:  # clean EOF between requests
                    break
                self._connections[writer] = True
                status, body, content_type, extra = \
                    await self._dispatch(request)
                writer.write(render_response(
                    status, body,
                    content_type=content_type,
                    keep_alive=request.keep_alive,
                    extra_headers=extra,
                ))
                await writer.drain()
                self._connections[writer] = False
                if not request.keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away; nothing to answer
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        """Route one request; returns (status, body, content-type,
        extra response headers)."""
        self.metrics.adjust_in_flight(+1)
        try:
            path, method = request.path, request.method
            if path not in ROUTES:
                return self._reject(path, ProtocolError(
                    404, "not_found", f"no such endpoint {path!r}"
                ))
            if method not in ROUTES[path]:
                return self._reject(path, ProtocolError(
                    405, "method_not_allowed",
                    f"{path} accepts {'/'.join(ROUTES[path])}, not {method}",
                ))
            try:
                if path == "/healthz":
                    return self._handle_healthz()
                if path == "/readyz":
                    return self._handle_readyz()
                if path == "/metrics":
                    return self._handle_metrics()
                if path == "/drain":
                    return await self._handle_drain(request)
                return await self._handle_infer(request)
            except ProtocolError as exc:
                tenant = getattr(exc, "tenant_name", None)
                return self._reject(path, exc, tenant=tenant)
        finally:
            self.metrics.adjust_in_flight(-1)

    def _reject(
        self,
        path: str,
        exc: ProtocolError,
        tenant: Optional[str] = None,
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        self.metrics.record(path, exc.status, code=exc.code, tenant=tenant)
        extra: Tuple[Tuple[str, str], ...] = ()
        if exc.retry_after_s is not None:
            seconds = max(1, int(math.ceil(exc.retry_after_s)))
            extra = (("Retry-After", str(seconds)),)
        return (exc.status, error_body(exc.code, exc.message),
                "application/json", extra)

    # -- endpoints -----------------------------------------------------------

    def _handle_healthz(self) -> Tuple[int, bytes, str, Tuple]:
        payload = {
            "schema": GATEWAY_SCHEMA,
            "gateway": {
                "host": self.host,
                "port": self.port,
                "in_flight": self.metrics.snapshot()["in_flight"],
            },
            "backend": self.server.health(),
        }
        self.metrics.record("/healthz", 200)
        return 200, json_body(payload), "application/json", ()

    def _handle_readyz(self) -> Tuple[int, bytes, str, Tuple]:
        if self.server.readiness():
            self.metrics.record("/readyz", 200)
            return 200, json_body({"ready": True}), "application/json", ()
        self.metrics.record("/readyz", 503, code="not_ready")
        return (503, error_body("not_ready", "backend is not accepting "
                                "requests"), "application/json",
                (("Retry-After", "1"),))

    def _handle_metrics(self) -> Tuple[int, bytes, str, Tuple]:
        from repro.explore.driver import explore_counter_families
        from repro.gateway.client import GLOBAL_CLIENT_COUNTERS
        from repro.rsfq.trace import trace_counter_families

        families = server_stats_families(self.server.stats())
        families.extend(self.metrics.families())
        families.extend(
            client_counter_families(GLOBAL_CLIENT_COUNTERS.snapshot())
        )
        # Cluster backends (ClusterServer) expose cluster-wide gauges
        # (nodes alive, per-node breaker state, rebalance count) via a
        # duck-typed hook; single-node backends simply lack it.
        cluster_families = getattr(self.server, "cluster_families", None)
        if callable(cluster_families):
            families.extend(cluster_families())
        families.extend(trace_counter_families())
        families.extend(explore_counter_families())
        text = render_prometheus(families)
        self.metrics.record("/metrics", 200)
        return (200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8", ())

    async def _handle_drain(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple]:
        tenant = self.authenticator.authenticate(request.headers)
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.server.drain(timeout=30.0)
        )
        self.metrics.record("/drain", 200, tenant=tenant.name)
        return (200, json_body({"drained": bool(drained)}),
                "application/json", ())

    async def _handle_infer(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple]:
        tenant = self.authenticator.authenticate(request.headers)
        try:
            raw_key = request.headers.get(IDEMPOTENCY_KEY_HEADER)
            idem_key = f"{tenant.name}:{raw_key}" if raw_key else None
            if idem_key is not None:
                recorded = self.idempotency.lookup(idem_key)
                if recorded is not None:
                    # Exactly-once: the original was accepted; await /
                    # replay its outcome rather than computing again.
                    status, body = await asyncio.shield(recorded)
                    self.metrics.record_replay(tenant.name)
                    self.metrics.record("/infer", status,
                                        tenant=tenant.name)
                    return (status, body, "application/json",
                            ((REPLAY_HEADER, "true"),))
            if not self.rate_limiter.allow(tenant):
                self.metrics.record_shed("rate_limited", tenant.priority)
                raise ProtocolError(
                    429, "rate_limited",
                    f"tenant {tenant.name!r} is over its rate limit "
                    f"({tenant.rate_per_s}/s, burst {tenant.burst})",
                    retry_after_s=self.rate_limiter.retry_after_s(tenant),
                )
            reason = self.admission.check(priority=tenant.priority)
            if reason is not None:
                self.metrics.record_shed(reason, tenant.priority)
                raise ProtocolError(
                    503, reason,
                    f"request shed by admission control ({reason})",
                    retry_after_s=self.admission.retry_after_s(reason),
                )
            parsed = parse_infer_request(
                request.body, self.server.compiled.in_features
            )
            try:
                future = self.server.submit(
                    parsed.spike_train,
                    timeout=self.submit_timeout_s,
                    deadline_ms=parsed.deadline_ms,
                )
            except queue_module.Full:
                self.metrics.record_shed("queue_full", tenant.priority)
                raise ProtocolError(
                    503, "queue_full",
                    "backend queue filled while admitting this request",
                    retry_after_s=1.0,
                )
            except ConfigurationError as exc:
                # Post-admission validation inside submit() (e.g. the
                # backend stopped accepting between check and submit).
                if not self.server.readiness():
                    raise ProtocolError(503, "not_ready", str(exc),
                                        retry_after_s=1.0)
                raise ProtocolError(400, "bad_request", str(exc))
            # The backend accepted the work: from here on a retry with
            # the same key must *not* compute twice.  No await sits
            # between submit and begin, so the entry is visible before
            # any other handler can run.
            entry = (self.idempotency.begin(idem_key)
                     if idem_key is not None else None)
            try:
                result = await asyncio.wrap_future(future)
            except BaseException as exc:
                if isinstance(exc, DeadlineExceededError):
                    perr = ProtocolError(504, "deadline_exceeded",
                                         str(exc))
                elif isinstance(exc, concurrent.futures.CancelledError):
                    perr = ProtocolError(503, "not_ready",
                                         "request cancelled during "
                                         "shutdown", retry_after_s=1.0)
                elif isinstance(exc, Exception):
                    perr = ProtocolError(500, "internal",
                                         f"backend failure: {exc}")
                else:
                    raise
                if entry is not None:
                    # Wake hedges with the failure, then forget the key
                    # so a later retry earns a fresh compute.
                    self.idempotency.resolve_failure(
                        idem_key,
                        (perr.status,
                         error_body(perr.code, perr.message)),
                    )
                raise perr
            body = infer_response_body(result, tenant.name)
            if entry is not None:
                self.idempotency.resolve_success(idem_key, (200, body))
            self.metrics.record("/infer", 200, tenant=tenant.name)
            return 200, body, "application/json", ()
        except ProtocolError as exc:
            # Tag the rejection with the (authenticated) tenant so the
            # per-tenant counters tell the skew story.
            exc.tenant_name = tenant.name
            raise

    def __repr__(self) -> str:
        state = "bound" if self._asyncio_server is not None else "stopped"
        return (f"<Gateway {state} {self.host}:{self.port} "
                f"tenants={len(self.authenticator.tenants)}>")


def main(argv=None) -> int:
    """``python -m repro serve``: boot a gateway over the demo workload
    (or a tenants file of your own) and serve until interrupted."""
    import argparse

    from repro.gateway.ratelimit import AdmissionController

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve the compiled demo network over HTTP/JSON "
                    "(see docs/GATEWAY.md for the endpoint contract).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="0 picks an ephemeral port")
    parser.add_argument("--workers", type=int, default=0,
                        help="shared-memory pool workers (0 = serial)")
    parser.add_argument("--nodes", type=int, default=0,
                        help="cluster pool nodes; > 0 serves through a "
                             "ClusterServer with --workers pool workers "
                             "per node (see docs/CLUSTER.md)")
    parser.add_argument("--autoscale", action="store_true",
                        help="with --nodes: let the autoscaler resize "
                             "the cluster between --nodes and "
                             "--max-nodes from the serving gauges")
    parser.add_argument("--max-nodes", type=int, default=8,
                        help="autoscaler ceiling (default 8)")
    parser.add_argument("--batch-max", type=int, default=64)
    parser.add_argument("--deadline-ms", type=float, default=2.0,
                        help="accepted for compatibility; batches "
                             "dispatch as soon as the backend is free "
                             "and this no longer delays them")
    parser.add_argument("--queue-limit", type=int, default=1024,
                        help="admission-control queue-depth bound")
    parser.add_argument("--tenants", default=None,
                        help="JSON tenants file (default: the demo "
                             "tenant set with well-known keys)")
    args = parser.parse_args(argv)

    import sys

    from repro.gateway.loadgen import _compile_workload
    from repro.serve import InferenceServer

    authenticator = (
        ApiKeyAuthenticator.from_json_file(args.tenants)
        if args.tenants else ApiKeyAuthenticator(demo_tenants())
    )
    if args.nodes > 0:
        from repro.cluster import AutoscalerConfig, ClusterServer

        autoscaler_config = None
        if args.autoscale:
            autoscaler_config = AutoscalerConfig(
                min_nodes=args.nodes, max_nodes=args.max_nodes
            )
        server = ClusterServer(
            compiled=_compile_workload(),
            batch_max=args.batch_max,
            deadline_ms=args.deadline_ms,
            nodes=args.nodes,
            node_workers=args.workers,
            autoscaler_config=autoscaler_config,
        )
    else:
        server = InferenceServer(
            compiled=_compile_workload(),
            batch_max=args.batch_max,
            deadline_ms=args.deadline_ms,
            workers=args.workers,
        )
    server.start()
    gateway = Gateway(
        server,
        authenticator=authenticator,
        admission=AdmissionController(server, queue_limit=args.queue_limit),
        host=args.host,
        port=args.port,
    )

    async def _serve() -> None:
        await gateway.start()
        print(f"gateway listening on http://{gateway.host}:{gateway.port} "
              f"(plan {server.compiled.fingerprint[:12]}, "
              f"{len(authenticator.tenants)} tenants)")
        sys.stdout.flush()
        await gateway.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0

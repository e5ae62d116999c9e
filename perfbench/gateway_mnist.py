"""Workload ``gateway-mnist``: closed loop over HTTP.

Two keep-alive connections (one per core), driven from one client
thread, each send their next ``POST /infer`` as soon as the previous
answer is back.  The gateway and its ``InferenceServer`` run in a
separate process (:mod:`gateway_server`), so client and server do not
share a GIL.
Requests carry 2-step trains for the 784-512-10 network (~4.7 KB JSON
bodies); every answer is compared with serial ``forward_rows`` on the
same train after the timed region.
"""

from __future__ import annotations

import json
import queue
import selectors
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    HostSpeed,
    ROOT,
    ScratchDir,
    WorkloadResult,
    layer_time_stats,
    median,
    percentile,
    spans_path,
    table_rows,
    tail_percentile,
)
from serving import (
    MNIST,
    oracle_layer_counts,
    reference_oracle,
    serve_layer_metrics,
    server_stat_metrics,
    setup_layer_metrics,
)
from tracing import merge_summaries

NAME = "gateway-mnist"
CONNECTIONS = 2
STEPS = 2
INPUTS = 256
#: Warm-up answers per connection, sent concurrently like the measured
#: phase: the first multi-row BLAS calls of a process are slow
#: (tens of ms each), and that belongs to set-up.
WARMUP = 64
#: Server processes started per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A phase runs until its time is up *and* it holds this many answers,
#: so the reported p99 has at least ten samples beyond it.
MIN_SAMPLES = 1000
API_KEY = "bench-key"


class ServerProcess:
    """One :mod:`gateway_server` child, spoken to line by line."""

    def __init__(self, cache_dir, trace: bool, spans=None):
        command = [sys.executable, str(BENCH_DIR / "gateway_server.py"),
                   "--cache", str(cache_dir), "--trace", str(int(trace))]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.ready = self.recv()
        except BaseException:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise
        self.port = self.ready["port"]
        self.final: Dict = {}

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def recv(self, timeout: float = 120.0) -> Dict:
        line = self._lines.get(timeout=timeout)
        if not line:
            raise RuntimeError("gateway server process exited early")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def stop(self) -> Dict:
        """Ask for shutdown, collect the final report, reap the child."""
        if self.proc.poll() is None:
            try:
                self.send("stop")
                self.final = self.recv()
            finally:
                self.proc.stdin.close()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        self.proc.stdout.close()
        return self.final


class Lane:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, port: int, lane: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lane = lane
        self.answered = 0
        self.buffer = b""
        self.input = 0
        self.sent = 0.0
        #: ms from each send to the next on this connection, this phase
        self.cycles: List[float] = []

    def send(self, bodies, phase: str, index: int) -> None:
        self.input = index % len(bodies)
        body = bodies[self.input]
        head = (f"POST /infer HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"X-API-Key: {API_KEY}\r\n"
                f"Content-Type: application/json\r\n"
                f"X-Bench-Request-Id: {phase}-{self.lane}-{self.answered}"
                f"\r\nContent-Length: {len(body)}\r\n\r\n")
        now = time.perf_counter()
        if self.answered:
            self.cycles.append((now - self.sent) * 1000.0)
        self.sent = now
        self.sock.sendall(head.encode("latin-1") + body)

    def receive(self) -> Optional[tuple]:
        """Read what arrived; ``(status, body)`` once a whole response
        is buffered, else None."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("gateway closed a keep-alive connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in head[1:]
                      if line.lower().startswith("content-length:"))
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body, self.buffer = self.buffer[head_end + 4:end], self.buffer[end:]
        return int(head[0].split()[1]), body

    def close(self) -> None:
        self.sock.close()


def _run_phase(lanes, bodies, phase, seconds, quota) -> tuple:
    """Every lane in closed loop, driven from one thread, for
    ``seconds`` and at least ``quota`` answers each.  Returns the
    records ``(input, sent, answered, status, body)`` in send order, the
    phase's wall seconds and every connection's send-to-send cycles
    (ms)."""
    start = time.perf_counter()
    deadline = start + seconds
    records = []
    with selectors.DefaultSelector() as selector:
        for lane in lanes:
            lane.answered = 0
            lane.cycles = []
            selector.register(lane.sock, selectors.EVENT_READ, lane)
            lane.send(bodies, phase, lane.lane)
        active = len(lanes)
        while active:
            events = selector.select(timeout=30)
            if not events:
                raise TimeoutError("no gateway answer within 30 s")
            for key, _ in events:
                lane = key.data
                answer = lane.receive()
                if answer is None:
                    continue
                now = time.perf_counter()
                records.append((lane.input, lane.sent, now, *answer))
                lane.answered += 1
                if now < deadline or lane.answered < quota:
                    lane.send(bodies, phase,
                              lane.lane + lane.answered * len(lanes))
                else:
                    selector.unregister(lane.sock)
                    active -= 1
    records.sort(key=lambda r: r[1])
    cycles = [c for lane in lanes for c in lane.cycles]
    return records, max(r[2] for r in records) - start, cycles


def _verify(records, oracle) -> tuple:
    """(ok latencies ms, edge ms, failures) for one phase's answers."""
    latencies, edges, failures = [], [], 0
    for index, sent, answered, status, body in records:
        ok = status == 200
        if ok:
            payload = json.loads(body)
            ok = (payload["prediction"] == int(oracle.predictions[index])
                  and payload["rates"] == oracle.rates[index].tolist()
                  and payload["steps"] == STEPS)
        if not ok:
            failures += 1
            continue
        rtt = (answered - sent) * 1000.0
        latencies.append(rtt)
        edges.append(rtt - payload["latency_ms"])
    return latencies, edges, failures


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    reference, oracle = reference_oracle(MNIST, seed, stream=1,
                                         count=INPUTS, steps=STEPS)
    bodies = [json.dumps({"spike_train": train.astype(int).tolist()}
                         ).encode() for train in oracle.trains]

    host = HostSpeed()
    with ScratchDir("gateway-") as scratch:
        setup_times, finals, server, lanes = [], [], None, []
        plans_ok, warm_failures = [], 0
        try:
            for repeat in range(SETUP_REPEATS):
                last = repeat == SETUP_REPEATS - 1
                host.sample()
                start = time.perf_counter()
                server = ServerProcess(
                    scratch / "plans", trace,
                    spans=spans_path(NAME) if last and trace else None)
                lanes = [Lane(server.port, i) for i in range(CONNECTIONS)]
                warm, _, _ = _run_phase(lanes, bodies, "warm", 0.0, WARMUP)
                setup_times.append(time.perf_counter() - start)
                plans_ok.append(server.ready["plan"] == reference.fingerprint)
                warm_failures += _verify(warm, oracle)[2]
                if not last:
                    for lane in lanes:
                        lane.close()
                    finals.append(server.stop())

            phase_s = seconds / 2 if trace else seconds
            quota = MIN_SAMPLES // CONNECTIONS
            plain, plain_wall, cycles = _run_phase(lanes, bodies, "plain",
                                                   phase_s, quota)
            host.sample()
            traced = traced_wall = None
            if trace:
                server.send("trace")
                server.recv()
                traced, traced_wall, _ = _run_phase(lanes, bodies, "traced",
                                                 phase_s, quota)
        finally:
            for lane in lanes:
                lane.close()
            if server is not None:
                finals.append(server.stop())

    result.check("served plan fingerprint equals the reference compile",
                 all(plans_ok))
    result.check("warm-up answers equal forward_rows", warm_failures == 0,
                 f"{warm_failures} mismatches")
    latencies, edges, failures = _verify(plain, oracle)
    result.attempted = len(plain)
    result.failed = failures
    p50 = percentile(latencies, 50)
    result.counts["latency_samples"] = len(latencies)
    # Latency and throughput are dominated by the 2 ms coalescing window
    # and the socket round trip, which do not scale with host speed:
    # they stay raw.  Set-up is CPU work and is host-normalised.
    # Throughput is the connections over the median send-to-send cycle
    # (as pool-flash divides a crowd by its median time): answers over
    # wall time also carry every host stall, so it is only reported.
    result.e2e = {
        "setup_s": host.time(median(setup_times)),
        "latency_p50_ms": p50,
        "throughput_rps": CONNECTIONS * 1000.0 / median(cycles),
    }
    result.report = {"latency_p99_ms": tail_percentile(latencies),
                     "failed_share": failures / max(1, len(plain)),
                     "throughput_rps.wall": len(latencies) / plain_wall,
                     "gateway.edge_ms": median(edges),
                     "bench.host_calib_ms": host.ms,
                     "setup_s.raw": median(setup_times)}
    final = finals[-1]
    result.check("server resolved every accepted request",
                 final["stats"]["requests"] == final["stats"]["completed"])

    if trace:
        t_lat, t_edges, t_fail = _verify(traced, oracle)
        result.attempted += len(traced)
        result.failed += t_fail
        summary = final["summary"]
        layer = serve_layer_metrics(summary, traced_wall)
        for span, metric in (("gateway.parse", "gateway.parse_ms"),
                             ("gateway.encode", "gateway.encode_ms")):
            stats = layer_time_stats(summary, span)
            layer[metric] = stats["self_ms"] if stats else 0.0
        admit: Dict[str, float] = {}
        for span in ("gateway.auth", "gateway.rate", "gateway.admission"):
            entry = summary.get(span, {"key": [], "total_ms": []})
            for key, ms in zip(entry["key"], entry["total_ms"]):
                admit[key] = admit.get(key, 0.0) + ms
        layer["gateway.admit_ms"] = median(list(admit.values()))
        layer["gateway.edge_ms"] = median(t_edges)
        layer.update(server_stat_metrics(final["stats"]))
        layer.update(setup_layer_metrics(
            merge_summaries(*(f["setup_summary"] for f in finals)),
            hits=sum(f["cache"]["hits"] for f in finals),
            misses=sum(f["cache"]["misses"] for f in finals)))
        layer.update(oracle_layer_counts(oracle))
        layer["bench.host_calib_ms"] = host.ms
        traced_p50 = percentile(t_lat, 50)
        layer["bench.trace_overhead_ms"] = traced_p50 - p50
        layer["bench.trace_overhead_share"] = (traced_p50 - p50) / p50
        result.layer = layer
        result.self_table = table_rows(summary, "latency_p50_ms",
                                       traced_p50)
        result.self_table += table_rows(
            merge_summaries(*(f["setup_summary"] for f in finals)),
            "setup_ms", median(setup_times) * 1000.0)
    return result

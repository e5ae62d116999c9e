"""Shared pieces of the benchmark: metric registry, statistics, host
fingerprint and the per-workload result record."""

from __future__ import annotations

import heapq
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


#: Every end-to-end metric, printed by every workload with tracing off.
#: Each workload defines them for its own unit of work (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
)

#: End-to-end figures printed in the report but left out of the result
#: line: they are workload-specific, or too noisy on a shared host to
#: hold any bound (README.md, "Steadiness").
REPORT_ONLY = (
    ("latency_p99_ms", "ms"),
    ("failed_share", "share"),
    ("latency_p50_ms.heavy", "ms"),
    ("latency_p99_ms.heavy", "ms"),
    ("events_per_s", "1/s"),
    ("replays_per_s", "1/s"),
    ("replay_ms", "ms"),
    ("gateway.edge_ms", "ms"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.host_calib_ms", "ms"),
    ("setup_s.raw", "s"),
    ("latency_p50_ms.raw", "ms"),
    ("throughput_rps.raw", "1/s"),
    ("throughput_rps.wall", "1/s"),
)

BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: Every per-layer metric, printed by every workload with tracing on; a
#: layer the workload never enters reads 0.
PER_LAYER = (
    ("gateway.parse_ms", "ms"),
    ("gateway.encode_ms", "ms"),
    ("gateway.admit_ms", "ms"),
    ("gateway.edge_ms", "ms"),
    ("serve.latency_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.batch_size.mean", "count"),
) + tuple(
    (f"serve.batch_size.le{b}", "share") for b in BATCH_BUCKETS
) + (
    ("serve.busy_share", "share"),
    ("serve.expired", "count"),
    ("serve.cancelled", "count"),
    ("serve.failed", "count"),
    ("serve.pool_failures", "count"),
    ("serve.poison_batches", "count"),
    ("ssnn.forward_ms", "ms"),
    ("ssnn.forward_us_per_row", "us"),
    ("ssnn.pool.infer_ms", "ms"),
    ("ssnn.pool.us_per_row", "us"),
    ("ssnn.pool.restarts", "count"),
    ("ssnn.pool.alive_workers", "count"),
    ("ssnn.plan.compile_s", "s"),
    ("ssnn.plan_cache.hits", "count"),
    ("ssnn.plan_cache.misses", "count"),
    ("ssnn.synops", "count"),
    ("ssnn.spurious", "count"),
    ("ssnn.reload_events", "count"),
    ("neuro.pass_ms", "ms"),
    ("rsfq.run_ms", "ms"),
    ("rsfq.trace.record_s", "s"),
    ("rsfq.trace.replay_ms", "ms"),
    ("rsfq.events", "count"),
    ("rsfq.violations", "count"),
    ("rsfq.sim_ps", "ps"),
    ("rsfq.trace.fallbacks", "count"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.host_calib_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation) of ``values``."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Samples per window of a tail percentile: 1,000 puts ten samples
#: beyond a p99.
TAIL_WINDOW = 1000


def tail_percentile(values: Sequence[float], q: float = 99.0) -> float:
    """Median over consecutive windows of ``TAIL_WINDOW`` or more
    samples (in arrival order) of each window's ``q``-th percentile.

    One scheduler hiccup on the shared host then moves one window's
    tail, not the run's; with fewer than two windows' worth of samples
    this is the plain percentile.
    """
    windows = max(1, len(values) // TAIL_WINDOW)
    chunks = np.array_split(np.asarray(values, dtype=np.float64), windows)
    return median([percentile(chunk, q) for chunk in chunks])


def tail_samples(n: int, q: float = 99.0) -> float:
    """Samples beyond the ``q``-th percentile in the smallest window
    :func:`tail_percentile` uses for ``n`` samples."""
    windows = max(1, n // TAIL_WINDOW)
    return (n // windows) * (100.0 - q) / 100.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


#: Scale of host-normalised figures: the calibration kernel's median time
#: in ms on the host the benchmark was tuned on, in its fast state.
CALIBRATION_REF_MS = 2.2


def _calibration_kernel() -> None:
    """Fixed CPU work that calls no program code: heap and dict traffic,
    like an event loop's."""
    heap, counts = [], {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
    while heap:
        heapq.heappop(heap)


class HostSpeed:
    """How fast the host runs right now, as the median time of a fixed
    calibration kernel.

    The shared host's speed drifts by tens of percent over minutes (the
    same kernel measured 2.2-3.6 ms within one quarter hour), which no
    run-level statistic of CPU-bound work survives.  Workloads sample
    the kernel between units of work, while the measured system is
    idle, and report CPU-bound figures scaled to
    ``CALIBRATION_REF_MS``: times times ``REF / host``, rates times
    ``host / REF``.  The kernel runs no program code, so a program
    change cannot move it.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples_ms: List[float] = []
        self._last = float("-inf")

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            _calibration_kernel()
            self.samples_ms.append((time.perf_counter() - start) * 1000.0)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if the last sample is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    @property
    def ms(self) -> float:
        return median(self.samples_ms)

    def time(self, value: float) -> float:
        return value * CALIBRATION_REF_MS / self.ms

    def rate(self, value: float) -> float:
        return value * self.ms / CALIBRATION_REF_MS


def host_fingerprint() -> Dict:
    """Cores, Python, numpy, BLAS vendor/version and the thread
    environment.  Read only: the benchmark sets no thread variable."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = {"name": "unknown"}
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS")}
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
    }


@dataclass
class Check:
    """One correctness check made outside the timed region."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one workload run reports back to :mod:`run`."""

    e2e: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    self_table: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks) and self.failed == 0


class ScratchDir:
    """A per-run directory under ``perfbench/out`` (the plan cache),
    removed on exit, so every run starts with a cold cache."""

    def __init__(self, prefix: str):
        OUT_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def seeded(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one seed."""
    return np.random.default_rng([seed, *stream])


def layer_time_stats(summary: Dict, name: str) -> Optional[Dict]:
    """Median self/total ms and call count of one span name."""
    entry = summary.get(name)
    if not entry or not entry["self_ms"]:
        return None
    return {
        "calls": len(entry["self_ms"]),
        "self_ms": median(entry["self_ms"]),
        "total_ms": median(entry["total_ms"]),
        "self_sum_ms": float(sum(entry["self_ms"])),
    }


def table_rows(summary: Dict, base_name: str, base_value: float,
               spans: Optional[Sequence[str]] = None) -> List[tuple]:
    """Self-time table rows ``(span, calls, self p50 ms, self total ms,
    base name, base value, self p50 / base)`` for the traced report."""
    rows = []
    for name in (spans if spans is not None else sorted(summary)):
        stats = layer_time_stats(summary, name)
        if stats is None:
            continue
        share = stats["self_ms"] / base_value if base_value else 0.0
        rows.append((name, stats["calls"], stats["self_ms"],
                     stats["self_sum_ms"], base_name, base_value, share))
    return rows


def spans_path(workload: str) -> Path:
    """Where a traced run writes its spans (one JSON object a line)."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"spans-{workload}.jsonl"


def ensure_src_on_path() -> None:
    """Make ``repro`` importable from the checkout; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro; run from a "
              "full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def stop_child_processes(timeout_s: float = 5.0) -> None:
    """Stop every process ``multiprocessing`` started in this run and
    wait for each to end, so none outlives the benchmark.

    Besides pool workers left behind by a failed run, that is the
    helpers ``multiprocessing`` starts on demand: the resource tracker
    (started by the first shared-memory segment) and the fork server.
    Both otherwise exit only after this process has, so they would
    still be running when the run is over.  Their ``_stop`` methods are
    private but are the only way to end and reap them from the parent.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=timeout_s)
        if child.is_alive():
            child.kill()
            child.join(timeout=timeout_s)
    for helper in (resource_tracker._resource_tracker,
                   forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()

"""Benchmark: memoized parallel explorer vs naive serial cold sweep.

Asserts the explorer PR's headline claims on this interpreter, back to
back:

* a parallel warm-cache sweep of the full default grid completes >= 3x
  faster than the naive serial cold sweep it repeats (every point must
  come back from the content-addressed explore-point cache: the hit
  rate is asserted at 100%);
* serial and process-pool sweeps produce *bit-identical* pinned views
  (the determinism contract across worker counts);
* the committed ``BENCH_explore.json`` baseline still matches the
  deterministic pinned fields (the same gate CI runs via
  ``bench.py --check explore``).
"""

import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from conftest import emit
from repro.explore import (
    ExploreConfig,
    ExploreCounters,
    pinned_digest,
    pinned_view,
    run_explore,
)
from repro.ssnn import PlanCache

WARM_SPEEDUP_FLOOR = 3.0
WORKERS = 2
BASELINE = Path(__file__).resolve().parent / "BENCH_explore.json"


def _sweep(config, cache):
    counters = ExploreCounters()
    start = time.perf_counter()
    report = run_explore(config, plan_cache=cache, counters=counters)
    return report, counters.snapshot(), time.perf_counter() - start


class TestExploreSpeedup:
    def test_warm_parallel_sweep_beats_cold_serial_by_3x(self):
        serial = ExploreConfig()
        parallel = replace(serial, workers=WORKERS)
        with tempfile.TemporaryDirectory() as root:
            cold_report, cold_counts, t_cold = _sweep(
                serial, PlanCache(root=root)
            )
            warm_report, warm_counts, t_warm = _sweep(
                parallel, PlanCache(root=root)
            )
        points = cold_report["counters"]["points_total"]
        assert cold_counts["point_cache_hits"] == 0
        assert cold_counts["points_evaluated"] == points
        # Repeating the identical sweep is 100% point-cache hits.
        assert warm_counts["point_cache_hits"] == points
        assert warm_counts["points_evaluated"] == 0
        # ... and bit-identical to the cold serial run.
        assert (json.dumps(pinned_view(warm_report), sort_keys=True)
                == json.dumps(pinned_view(cold_report), sort_keys=True))
        speedup = t_cold / max(t_warm, 1e-9)
        emit(
            f"explore sweep ({points} points): cold serial "
            f"{t_cold * 1000:.1f} ms, warm parallel "
            f"{t_warm * 1000:.1f} ms, speedup {speedup:.2f}x "
            f"(floor {WARM_SPEEDUP_FLOOR}x)"
        )
        assert speedup >= WARM_SPEEDUP_FLOOR

    def test_serial_and_parallel_cold_sweeps_are_bit_identical(self):
        serial = ExploreConfig()
        parallel = replace(serial, workers=WORKERS)
        a = run_explore(serial, plan_cache=None)
        b = run_explore(parallel, plan_cache=None)
        assert (json.dumps(pinned_view(a), sort_keys=True)
                == json.dumps(pinned_view(b), sort_keys=True))
        assert a["pareto"] == b["pareto"]

    def test_committed_baseline_still_matches(self):
        baseline = json.loads(BASELINE.read_text())
        report = run_explore(ExploreConfig(), plan_cache=None)
        sweep = baseline["sweep"]
        assert sweep["schema"] == report["schema"]
        assert sweep["points_total"] == \
            report["counters"]["points_total"]
        assert sweep["points_infeasible"] == \
            report["counters"]["infeasible_points"]
        assert sweep["pareto"] == report["pareto"]
        assert sweep["workload_fingerprint"] == \
            report["workload"]["fingerprint"]
        assert sweep["pinned_digest"] == pinned_digest(report)
        assert baseline["memoization"]["warm_hit_rate"] == 1.0
        assert baseline["memoization"]["serial_equals_parallel"] is True
        assert sweep["trace_probe_fallbacks"] == 0

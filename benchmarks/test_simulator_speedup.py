"""Benchmark: event-engine fast path vs the pre-rework legacy loop.

Asserts the PR's headline claims on this interpreter, back to back:

* the sequential fast path processes >= 2x the events/sec of the legacy
  engine (per-event object allocation + string dispatch) on both the pure
  event-churn workload and the full gate-level chip protocol;
* all engines -- legacy, fast, partitioned parallel -- compute identical
  physics (same events, same outputs, same violation counts);
* the recorded ``BENCH_simulator.json`` baseline still matches the
  deterministic events-processed counters (the same gate CI runs via
  ``bench.py --check simulator``).
"""

import json
from pathlib import Path

from conftest import emit
from legacy_engine import run_chain_workload, run_chip_workload

SPEEDUP_FLOOR = 2.0
TRIALS = 3


def best_of(fn, trials=TRIALS):
    """Best events/sec over a few trials (suppresses scheduler noise)."""
    results = [fn() for _ in range(trials)]
    return max(results, key=lambda r: r.events_per_sec)


class TestSequentialSpeedup:
    def test_chain_event_churn_speedup(self):
        legacy = best_of(lambda: run_chain_workload("legacy"))
        fast = best_of(lambda: run_chain_workload("fast"))
        assert fast.events == legacy.events
        assert fast.violations == legacy.violations
        speedup = fast.events_per_sec / legacy.events_per_sec
        emit(
            "chain event churn: "
            f"legacy {legacy.events_per_sec:,.0f} ev/s, "
            f"fast {fast.events_per_sec:,.0f} ev/s, "
            f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
        )
        assert speedup >= SPEEDUP_FLOOR

    def test_chip_protocol_speedup(self):
        legacy = best_of(lambda: run_chip_workload(engine="legacy"))
        fast = best_of(lambda: run_chip_workload(engine="fast"))
        assert fast.events == legacy.events
        assert fast.outputs == legacy.outputs
        assert fast.violations == legacy.violations == 0
        speedup = fast.events_per_sec / legacy.events_per_sec
        emit(
            "chip protocol: "
            f"legacy {legacy.events_per_sec:,.0f} ev/s, "
            f"fast {fast.events_per_sec:,.0f} ev/s, "
            f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
        )
        assert speedup >= SPEEDUP_FLOOR


class TestEngineAgreement:
    def test_parallel_engine_matches_sequential_physics(self):
        fast = run_chip_workload(engine="fast")
        parallel = run_chip_workload(engine="parallel")
        assert parallel.events == fast.events
        assert parallel.outputs == fast.outputs
        assert parallel.violations == fast.violations

    def test_committed_baseline_counters_match(self):
        from bench import SUITES, baseline_path

        suite = SUITES["simulator"]
        REPORT_PATH, _pinned_view, measure = (
            baseline_path("simulator"), suite.pinned_view, suite.measure)

        baseline = json.loads(Path(REPORT_PATH).read_text())
        assert _pinned_view(baseline) == _pinned_view(measure())

"""Benchmark: event-engine fast path vs the pre-rework legacy loop.

Asserts the PR's headline claims on this interpreter, back to back:

* the sequential fast path processes >= 2x the events/sec of the legacy
  engine (per-event object allocation + string dispatch) on both the pure
  event-churn workload and the full gate-level chip protocol;
* both engines compute identical physics (same events, same outputs,
  same violation counts);
* the recorded ``BENCH_simulator.json`` baseline still matches the
  deterministic events-processed counters (the same gate CI runs via
  ``bench.py --check simulator``).

Each speedup is the median of per-pair ratios over legacy/fast pairs;
each arm of a pair sums several runs of the unchanged workload,
interleaved with the other arm's, so one arm lasts >= ~200 ms on a
2-core host and scheduler noise averages out instead of deciding the
ratio.
"""

import json
import statistics
from pathlib import Path

from conftest import emit, paired_ratios, ratio_summary
from legacy_engine import run_chain_workload, run_chip_workload

SPEEDUP_FLOOR = 2.0
PAIRS = 9
#: Runs summed per arm and pair (chain fast ~70 ms, chip fast ~17 ms).
CHAIN_RUNS = 3
CHIP_RUNS = 12


def speedup_ratios(run, runs):
    """Per-pair legacy/fast wall-time ratios of ``run(engine)``.  Both
    engines process the same events, so the wall-time ratio is the
    events/sec speedup."""
    return paired_ratios(lambda: run("legacy").wall_time_s,
                         lambda: run("fast").wall_time_s, PAIRS, runs)


def assert_speedup(label, ratios):
    speedup = statistics.median(ratios)
    emit(f"{label}: fast/legacy speedup {ratio_summary(ratios)} "
         f"(floor {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (label, sorted(ratios))


class TestSequentialSpeedup:
    def test_chain_event_churn_speedup(self):
        legacy = run_chain_workload("legacy")
        fast = run_chain_workload("fast")
        assert fast.events == legacy.events
        assert fast.violations == legacy.violations
        assert_speedup("chain event churn",
                       speedup_ratios(run_chain_workload, CHAIN_RUNS))

    def test_chip_protocol_speedup(self):
        legacy = run_chip_workload(engine="legacy")
        fast = run_chip_workload(engine="fast")
        assert fast.events == legacy.events
        assert fast.outputs == legacy.outputs
        assert fast.violations == legacy.violations == 0
        assert_speedup(
            "chip protocol",
            speedup_ratios(lambda e: run_chip_workload(engine=e), CHIP_RUNS),
        )


class TestEngineAgreement:
    def test_committed_baseline_counters_match(self):
        from bench import SUITES, baseline_path

        suite = SUITES["simulator"]
        REPORT_PATH, _pinned_view, measure = (
            baseline_path("simulator"), suite.pinned_view, suite.measure)

        baseline = json.loads(Path(REPORT_PATH).read_text())
        assert _pinned_view(baseline) == _pinned_view(measure())

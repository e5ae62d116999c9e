"""Benchmark: warm trace replay vs the PR 2 fast path (issue 7 gate).

Asserts the trace-compilation headline claims on this interpreter, back
to back:

* a warm vectorized replay of the ``chip_n2_sc4_r6`` schedule runs
  >= 5x faster than re-executing the same segments on the sequential
  fast-path :class:`~repro.rsfq.simulator.Simulator`;
* the replay is bit-identical to the fast path (fire times, events,
  violations) and is actually served from the trace (``mode ==
  "replay"``, zero fallbacks);
* the recorded ``BENCH_simulator.json`` baseline still carries the
  pinned ``trace_replay`` counters.
"""

import json
from pathlib import Path

from conftest import emit
from legacy_engine import run_trace_replay_workload

SPEEDUP_FLOOR = 5.0
TRIALS = 3


class TestTraceReplaySpeedup:
    def test_warm_replay_speedup_and_equivalence(self):
        results = [run_trace_replay_workload() for _ in range(TRIALS)]
        for result in results:
            assert result["replay_equal"], result
            assert result["fallbacks"] == 0, result
        best = max(
            results, key=lambda r: r["speedup_warm_replay_over_fast"]
        )
        emit(
            "trace replay: "
            f"record {best['record_wall_s'] * 1e3:.2f} ms, "
            f"warm replay {best['warm_replay_wall_s'] * 1e3:.3f} ms, "
            f"fast path {best['fast_wall_s'] * 1e3:.3f} ms, "
            f"speedup {best['speedup_warm_replay_over_fast']:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
        assert best["speedup_warm_replay_over_fast"] >= SPEEDUP_FLOOR

    def test_committed_baseline_has_trace_counters(self):
        from bench import PINNED_FIELDS, baseline_path

        REPORT_PATH = baseline_path("simulator")

        baseline = json.loads(Path(REPORT_PATH).read_text())
        traced = baseline["workloads"]["trace_replay"]["traced"]
        assert traced["replay_equal"] is True
        assert traced["fallbacks"] == 0
        assert traced["events"] > 0
        for field in ("replays", "fallbacks", "replay_equal"):
            assert field in PINNED_FIELDS

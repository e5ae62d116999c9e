"""The zero-fault overhead gate: attaching no fault model (or an inactive
one) must not slow the event engine down.

Two layers of defence:

* **Structural** (deterministic, the real gate): ``faults=None`` and an
  inactive :class:`~repro.rsfq.faults.FaultModel` must bind the *same*
  specialised delivery fast path and reuse the fan-out table's own
  cell/port views -- i.e. the fault subsystem is provably absent from the
  hot loop, so its overhead is zero by construction.
* **Empirical** (paired thread CPU time): the same workload with no
  model and with an inactive model, timed in interleaved pairs, must
  keep the median per-pair ratio under a 3% overhead budget.  Each arm
  of a pair sums several runs (~400 ms) so scheduler noise averages out;
  the structural gate above is what actually prevents regressions.
"""

import statistics
import time

from conftest import paired_ratios, ratio_summary

from repro.harness.campaign import build_reference_pipeline
from repro.rsfq import FaultModel, Simulator
from repro.rsfq.events import EventQueue

OVERHEAD_BUDGET = 1.03  # <3% zero-fault overhead
PAIRS = 15
#: Runs summed per arm and pair (~35 ms each).
RUNS = 12


def make_sim(faults):
    net, probe = build_reference_pipeline(64)
    sim = Simulator(net, faults=faults)
    return sim, probe


def timed_run(faults) -> float:
    sim, _probe = make_sim(faults)
    for k in range(256):
        sim.schedule_input("j0", "din", 50.0 * k)
    start = time.thread_time()
    sim.run()
    return time.thread_time() - start


class TestStructuralGuard:
    def test_none_and_inactive_model_bind_identical_fast_path(self):
        for faults in (None, FaultModel()):
            sim, _ = make_sim(faults)
            assert sim._fault_runtime is None
            assert sim._cells_view is sim._fanout.cell_list
            assert sim._ports_view is sim._fanout.input_ports
            assert sim.deliver.__func__ is Simulator._deliver_ideal_heap
            assert type(sim.queue) is EventQueue

    def test_active_model_is_the_only_slow_binding(self):
        sim, _ = make_sim(FaultModel.single("pulse_drop", 0.0))
        assert sim._fault_runtime is not None
        assert sim.deliver.__func__ is Simulator._deliver_faulty


class TestEmpiricalGuard:
    def test_inactive_model_within_overhead_budget(self):
        ratios = paired_ratios(lambda: timed_run(FaultModel()),
                               lambda: timed_run(None), PAIRS, RUNS)
        ratio = statistics.median(ratios)
        print(f"\nzero-fault overhead ratio: {ratio_summary(ratios)} "
              f"(budget {OVERHEAD_BUDGET}x)")
        assert ratio < OVERHEAD_BUDGET, (
            f"inactive fault model cost {ratio:.4f}x "
            f"(budget {OVERHEAD_BUDGET}x) -- the fast-path specialisation "
            "regressed; see Simulator._bind_deliver"
        )

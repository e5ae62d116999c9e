"""Resilience campaign benchmark: regenerate the fault-degradation curves
and assert their qualitative shape (see ``docs/FAULTS.md``).

The bit-exact numbers are pinned separately in ``BENCH_faults.json``
(``bench.py --check faults``); this test asserts the physics-level trends
that must hold whatever the seeds: a clean baseline at p=0, monotone
degradation, near-total loss under heavy pulse dropping, and a recorded
self-healing recovery trail for the acceptance scenario.
"""

from conftest import emit

from repro.harness.experiments import run_resilience


def test_resilience_campaign_shape(once):
    result = once("resilience", run_resilience)
    emit(result["report"])

    assert result["zero_probability_clean"]
    assert result["ber_monotone"]

    points = result["campaign"]["points"]
    drop = {
        pt["probability"]: pt["ber"]
        for pt in points if pt["kind"] == "pulse_drop"
        and pt["jitter_ps"] == 0.0
    }
    assert drop[0.0] == 0.0
    # Dropping 30% of pulses per wire across a 24-stage pipeline loses
    # essentially the whole stream.
    assert drop[max(drop)] > 0.9


def test_self_healing_acceptance(once):
    result = once("resilience", run_resilience)
    # The ISSUE acceptance scenario: pulse-drop p=0.05 inference finishes
    # through retry/fallback with the degradation recorded.
    assert result["healed_attempts"] >= 2
    assert result["healed_degraded"] is True
    assert any("fallback" in line for line in result["healed_recovery"])

"""Tests for the closed-loop load harness.

The full quick campaign is exercised end-to-end by
``benchmarks/bench.py --check gateway`` and CI; here we run the cheap
deterministic scenarios and pin the report contract the gateway
suite's pinned view depends on.
"""

import json

import pytest

from repro.gateway.loadgen import (
    LOADTEST_SCHEMA,
    SCENARIOS,
    format_report,
    main,
    run_loadtest,
)

# Deterministic and sleep-free: safe to run per-test.
FAST_SCENARIOS = ["tenant-skew", "breaker-open"]

REQUIRED_SCENARIO_FIELDS = {
    "name", "mode", "sent", "statuses", "expected_statuses", "passed",
    "rejections", "latency_ms_p50", "latency_ms_p99", "latency_ms_max",
    "throughput_rps", "elapsed_s",
}


@pytest.fixture(scope="module")
def report():
    return run_loadtest(quick=True, scenarios=FAST_SCENARIOS)


class TestCampaignReport:
    def test_report_schema_and_verdict(self, report):
        assert report["schema"] == LOADTEST_SCHEMA
        assert report["quick"] is True
        assert report["passed"] is True
        assert [e["name"] for e in report["scenarios"]] == FAST_SCENARIOS

    def test_scenario_entries_carry_the_bench_contract(self, report):
        for entry in report["scenarios"]:
            missing = REQUIRED_SCENARIO_FIELDS - set(entry)
            assert not missing, f"{entry['name']} missing {missing}"
            assert entry["statuses"] == entry["expected_statuses"]

    def test_tenant_skew_is_deterministic(self, report):
        entry = next(e for e in report["scenarios"]
                     if e["name"] == "tenant-skew")
        # burst=10 tenant sends 25: exactly 10 admitted, 15 shed.
        assert entry["statuses"] == {"200": 15, "429": 15}
        assert entry["rejections"] == {"rate_limited": 15}

    def test_breaker_open_sheds_everything(self, report):
        entry = next(e for e in report["scenarios"]
                     if e["name"] == "breaker-open")
        assert entry["statuses"] == {"503": 10}
        assert entry["rejections"] == {"breaker_open": 10}

    def test_totals_aggregate_scenarios(self, report):
        totals = report["totals"]
        assert totals["sent"] == sum(
            e["sent"] for e in report["scenarios"]
        )
        assert totals["statuses"]["429"] == 15
        assert totals["rejections"]["breaker_open"] == 10

    def test_workload_is_fingerprinted(self, report):
        workload = report["workload"]
        assert workload["sizes"] == [11, 8, 5]
        assert len(workload["fingerprint"]) >= 16

    def test_report_is_json_serializable(self, report):
        assert json.loads(json.dumps(report)) == report


class TestScenarioRegistry:
    def test_registry_covers_the_required_mix(self):
        # Open-loop (poisson), burst (flash-crowd), and tenant-skew
        # arrivals are the ISSUE-mandated mixes; removing one breaks
        # the committed BENCH_gateway baseline.
        assert set(SCENARIOS) >= {
            "steady-closed", "poisson-open", "flash-crowd",
            "tenant-skew", "deadline-storm", "breaker-open",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_loadtest(quick=True, scenarios=["nope"])


class TestCli:
    def test_format_report_mentions_each_scenario(self, report):
        text = format_report(report)
        assert "PASS" in text
        for name in FAST_SCENARIOS:
            assert name in text

    def test_main_writes_report_and_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--quick", "--scenario", "tenant-skew",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        written = json.loads(out.read_text())
        assert written["schema"] == LOADTEST_SCHEMA
        assert written["passed"] is True


class TestProxyMode:
    def test_degraded_network_keeps_the_status_contract(self):
        """--proxy interposes the chaos proxy's benign profile
        (fragmentation + small latency spikes): the pinned status
        expectations must still hold -- resilience means degraded
        latency, never changed answers."""
        report = run_loadtest(quick=True, scenarios=["tenant-skew"],
                              proxy=True)
        assert report["passed"] is True
        assert report["proxy"] is True
        entry = report["scenarios"][0]
        assert entry["statuses"] == entry["expected_statuses"]
        assert "degraded network" in format_report(report)

    def test_proxy_off_is_recorded(self, report):
        assert report["proxy"] is False
        assert "degraded network" not in format_report(report)

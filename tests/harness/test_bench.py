"""Tests of the shared drift-gate harness ``benchmarks/bench.py``.

The checker runs on fake suites whose baselines live in ``tmp_path``,
so no measurement runs; the pin guard reads the committed baselines;
the chaos test stubs the campaign with the committed report.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402

#: Pinned-field count of each committed baseline.  A count that shrinks
#: means a pin was silently dropped; one that grows needs a rebaseline.
PINNED_COUNTS = {
    "simulator": 13,
    "faults": 75,
    "serve": 15,
    "chaos": 24,
    "netchaos": 100,
    "cluster": 28,
    "gateway": 42,
    "explore": 11,
}


@pytest.fixture
def fake_suites(tmp_path, monkeypatch):
    """Point the harness at ``tmp_path`` and register fake suites whose
    measurement is a constant report; returns a baseline writer."""
    monkeypatch.setattr(bench, "BENCH_DIR", tmp_path)

    def register(name, measured):
        monkeypatch.setitem(bench.SUITES, name, bench.Suite(
            measure=lambda: dict(measured),
            pinned_view=lambda report: {"answer": report.get("answer")},
        ))

    def baseline(name, **report):
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(report))

    register("fake", {"version": 1, "answer": 42, "wall_s": 0.5})
    register("other", {"version": 1, "answer": 7})
    return baseline


class TestChecker:
    def test_match_exits_zero(self, fake_suites, capsys):
        fake_suites("fake", version=1, answer=42, wall_s=9.0)
        assert bench.main(["--check", "fake"]) == 0
        assert "fake OK: 1 pinned fields match BENCH_fake.json" in \
            capsys.readouterr().out

    def test_drift_exits_one_and_prints_both_values(self, fake_suites,
                                                    capsys):
        fake_suites("fake", version=1, answer=41)
        assert bench.main(["--check", "fake"]) == 1
        err = capsys.readouterr().err
        assert "fake drift against BENCH_fake.json" in err
        assert "answer: baseline=41 measured=42" in err

    def test_missing_baseline_exits_two(self, fake_suites, capsys):
        assert bench.main(["--check", "fake"]) == 2
        assert "missing baseline" in capsys.readouterr().err

    def test_version_mismatch_exits_two(self, fake_suites, capsys):
        fake_suites("fake", version=2, answer=42)
        assert bench.main(["--check", "fake"]) == 2
        assert "baseline schema 2 != 1" in capsys.readouterr().err

    def test_several_suites_exit_with_the_largest_code(self, fake_suites,
                                                       capsys):
        fake_suites("fake", version=1, answer=41)
        fake_suites("other", version=1, answer=7)
        assert bench.main(["--check", "other", "fake"]) == 1
        out = capsys.readouterr().out
        assert "other OK" in out

    def test_crashed_suite_fails_without_hiding_the_rest(
            self, fake_suites, monkeypatch, capsys):
        def crash():
            raise AssertionError("scenario failed")

        monkeypatch.setitem(bench.SUITES, "crash", bench.Suite(
            measure=crash, pinned_view=dict,
        ))
        fake_suites("crash", version=1)
        fake_suites("other", version=1, answer=7)
        assert bench.main(["--check", "crash", "other"]) == 1
        captured = capsys.readouterr()
        assert "scenario failed" in captured.err
        assert "other OK" in captured.out

    def test_write_then_check_round_trips(self, fake_suites, tmp_path):
        assert bench.main(["--write", "fake"]) == 0
        written = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert written == {"version": 1, "answer": 42, "wall_s": 0.5}
        assert bench.main(["--check", "fake"]) == 0

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--check", "no-such-suite"])
        assert exc.value.code == 2
        assert "unknown suites: no-such-suite" in capsys.readouterr().err


def test_every_committed_baseline_has_a_suite():
    on_disk = {p.name for p in BENCH_DIR.glob("BENCH_*.json")}
    assert on_disk == {f"BENCH_{name}.json" for name in bench.SUITES}
    assert set(bench.SUITES) == set(PINNED_COUNTS)


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_committed_baseline_keeps_its_pins(name):
    baseline = json.loads(bench.baseline_path(name).read_text())
    assert len(bench.SUITES[name].pinned_view(baseline)) == \
        PINNED_COUNTS[name]


def test_chaos_campaign_runs_once_for_three_suites(monkeypatch, capsys):
    campaign = json.loads(
        bench.baseline_path("chaos").read_text()
    )["campaign"]
    calls = []

    def fake_run_chaos(**kwargs):
        calls.append(kwargs)
        return campaign

    monkeypatch.setattr(bench, "run_chaos", fake_run_chaos)
    # The pool-overhead timing is informational, never pinned.
    monkeypatch.setattr(bench, "measure_zero_failure_overhead", dict)
    bench._quick_chaos_campaign.cache_clear()
    try:
        assert bench.main(["--check", "chaos", "netchaos", "cluster"]) == 0
    finally:
        bench._quick_chaos_campaign.cache_clear()
    assert calls == [{"quick": True}]
    out = capsys.readouterr().out
    for name in ("chaos", "netchaos", "cluster"):
        assert (f"{name} OK: {PINNED_COUNTS[name]} pinned fields match "
                f"BENCH_{name}.json") in out

"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload for one second in both modes, so the
whole file takes a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TAIL_WINDOW,
    ensure_src_on_path,
    tail_samples,
)
from run import LISTED, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH_DIR / "out" / f"result-{workload}.json").read_text())
    return proc, line, record


class TestSpec:
    def test_metric_names_and_units_are_well_formed(self):
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                assert NAME.match(metric["name"]), metric
                assert UNIT.match(metric["unit"]), metric

    def test_spec_lists_exactly_the_metrics_the_runner_prints(self):
        assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
            == list(END_TO_END)
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
            == list(PER_LAYER)

    def test_spec_workloads_are_the_runner_workloads(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(LISTED)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25


class TestSeeds:
    """A different seed changes the inputs, never the metric set."""

    def test_serving_inputs_follow_the_seed(self):
        ensure_src_on_path()
        from serving import reference_oracle, small_spec

        spec = small_spec()
        _, one = reference_oracle(spec, 1, stream=1, count=4, steps=2)
        _, again = reference_oracle(spec, 1, stream=1, count=4, steps=2)
        _, other = reference_oracle(spec, 2, stream=1, count=4, steps=2)
        assert (one.trains == again.trains).all()
        assert not (one.trains == other.trains).all()

    def test_gate_protocol_follows_the_seed(self):
        ensure_src_on_path()
        from gate_sim import make_protocol

        assert make_protocol(1) == make_protocol(1)
        assert make_protocol(1) != make_protocol(2)


def test_tail_samples_counts_the_smallest_window():
    assert tail_samples(TAIL_WINDOW) == pytest.approx(10.0)
    assert tail_samples(2 * TAIL_WINDOW + 1) == pytest.approx(10.0)
    assert tail_samples(999) < 10


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_its_checks(workload, trace):
    proc, line, record = _run(workload, seed=3, trace=trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] \
        == list(expected)
    assert all(c["ok"] for c in record["checks"])
    # Every reported tail percentile has ten samples beyond it.
    for key, count in record["counts"].items():
        if key.startswith("latency_samples"):
            assert tail_samples(count) >= 10, (key, count)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_another_seed_keeps_the_metric_set():
    _, one, _ = _run("serve-open-small", seed=4, trace=0)
    _, two, _ = _run("serve-open-small", seed=5, trace=0)
    assert list(one["metrics"]) == list(two["metrics"])


def test_runner_refuses_a_checkout_without_sources():
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gate-sim",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _session_members(sid):
    """Pids of live (not zombie) processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
@pytest.mark.parametrize("workload", ["pool-flash-small", "gateway-mnist"])
def test_run_leaves_no_process_behind(workload):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=600) == 0
    assert _session_members(proc.pid) == []

"""Drift gates for every committed ``benchmarks/BENCH_<suite>.json``.

Each suite measures one subsystem and splits its report into two field
classes (the repo-wide convention):

* **Pinned** -- deterministic outputs (event counts, BER points,
  checksums, scenario verdicts, exact counter ledgers).  ``--check``
  re-measures and diffs them against the committed baseline; any drift
  means the subsystem's *semantics* changed (not just its speed) and
  must be acknowledged by regenerating the baseline with ``--write``.
* **Informational** -- wall-clock numbers, recorded and never asserted:
  asserting them in CI would be flaky.  The enforced speed gates are
  the ``test_*_speedup.py`` / ``test_*_overhead.py`` benchmarks, which
  time both sides back-to-back on the same interpreter.

Each suite's pinned fields are documented on its ``pinned_*`` function
below.  The ``chaos``, ``netchaos`` and ``cluster`` suites share one
quick chaos campaign per process; each keeps only its own scenarios.

Exit codes: 0 when every pinned field matches, 1 on drift (each drifted
key is printed with its baseline and measured value), 2 for a missing
baseline or a schema-version mismatch.  Naming several suites runs every
one of them and exits with the largest code.

Usage::

    PYTHONPATH=src python benchmarks/bench.py --check               # all
    PYTHONPATH=src python benchmarks/bench.py --check serve faults
    PYTHONPATH=src python benchmarks/bench.py --write explore   # rebaseline
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from legacy_engine import (  # noqa: E402
    run_chain_workload,
    run_chip_workload,
    run_trace_replay_workload,
)
from legacy_pool import LegacyInferencePool  # noqa: E402
from legacy_runtime import (  # noqa: E402
    legacy_forward_rows,
    legacy_parallel_rows,
    make_serving_workload,
)
from repro.cluster import (  # noqa: E402
    ClusterRouter,
    ConsistentHashRing,
    PoolNode,
)
from repro.explore import (  # noqa: E402
    ExploreConfig,
    ExploreCounters,
    pinned_digest,
    pinned_view,
    run_explore,
)
from repro.gateway.client import CLIENT_COUNTER_FIELDS  # noqa: E402
from repro.gateway.loadgen import run_loadtest  # noqa: E402
from repro.harness.campaign import (  # noqa: E402
    CampaignConfig,
    run_resilience_campaign,
)
from repro.harness.chaos import NETWORK_SCENARIOS, run_chaos  # noqa: E402
from repro.harness.differential import (  # noqa: E402
    random_binarized_network,
    random_spike_trains,
)
from repro.rsfq.faults import FaultModel  # noqa: E402
from repro.ssnn import (  # noqa: E402
    InferencePool,
    PlanCache,
    RetryPolicy,
    SushiRuntime,
    compile_network,
    network_fingerprint,
)

SCHEMA_VERSION = 1


# -- simulator: event engines -----------------------------------------------

#: Fields that must not drift between runs (deterministic engine outputs).
PINNED_FIELDS = ("events", "violations", "replays", "fallbacks",
                 "replay_equal")


def measure_simulator() -> dict:
    """Run the :mod:`legacy_engine` reference workloads on the legacy
    and fast sequential engines, plus the warm trace replay, and report
    events/sec, wall time and speedups."""
    chain_legacy = run_chain_workload("legacy")
    chain_fast = run_chain_workload("fast")

    chip_legacy = run_chip_workload(engine="legacy")
    chip_fast = run_chip_workload(engine="fast")

    if chip_legacy.outputs != chip_fast.outputs:
        raise AssertionError("legacy and fast engines disagree on outputs")

    def block(result):
        return {
            "events": result.events,
            "violations": result.violations,
            "wall_time_s": round(result.wall_time_s, 6),
            "events_per_sec": round(result.events_per_sec, 1),
        }

    return {
        "version": SCHEMA_VERSION,
        "note": ("events/violations are pinned by --check; "
                 "wall-clock numbers are informational"),
        "workloads": {
            "chain_300x150": {
                "description": "300-JTL chain, 150 pulses (pure event churn)",
                "legacy": block(chain_legacy),
                "fast": block(chain_fast),
                "speedup_fast_over_legacy": round(
                    chain_fast.events_per_sec
                    / chain_legacy.events_per_sec, 3),
            },
            "chip_n2_sc4_r6": {
                "description": ("2x2 gate-level chip, sc_per_npe=4, "
                                "6 timesteps x 4 passes"),
                "legacy": block(chip_legacy),
                "fast": block(chip_fast),
                "speedup_fast_over_legacy": round(
                    chip_fast.events_per_sec
                    / chip_legacy.events_per_sec, 3),
            },
            "trace_replay": {
                "description": ("chip_n2_sc4_r6 schedule recorded once, "
                                "20 warm vectorized replays vs fast-path "
                                "re-execution of the same segments"),
                "traced": run_trace_replay_workload(),
            },
        },
    }


def pinned_simulator(report: dict) -> dict:
    """Per workload and engine: events processed, violation and
    trace-replay counts.  An optimisation that changes *what* the
    engine simulates -- rather than how fast -- drifts here.  The
    ">= 2x sequential fast path" gate is ``test_simulator_speedup.py``."""
    view = {}
    for wname, workload in report.get("workloads", {}).items():
        for ename, engine in workload.items():
            if not isinstance(engine, dict):
                continue
            for field_name in PINNED_FIELDS:
                if field_name in engine:
                    view[f"{wname}.{ename}.{field_name}"] = (
                        engine[field_name]
                    )
    return view


# -- faults: resilience campaign + self-healing runtime ---------------------

#: Per-point fields that must not drift between runs.
PINNED_POINT_FIELDS = (
    "ber", "bit_errors", "bits", "injections", "violations", "events",
)
#: Self-healing fields that must not drift between runs.
PINNED_HEALING_FIELDS = ("attempts", "degraded", "fault_injections")

#: The reference campaign grid (kept small enough for CI, large enough
#: that every wire-fault kind visibly bends its BER curve).
FAULT_CAMPAIGN = CampaignConfig(
    kinds=("pulse_drop", "pulse_duplicate", "extra_delay"),
    probabilities=(0.0, 0.02, 0.1, 0.3),
    jitter_sigmas=(0.0,),
    trials=3,
    seed=0,
    chain_length=16,
    n_pulses=24,
)


def run_fault_campaign() -> dict:
    """The Monte-Carlo resilience campaign (``docs/FAULTS.md``); asserts
    BER 0 with zero injections at p=0 and BER monotone in p."""
    start = time.perf_counter()
    result = run_resilience_campaign(FAULT_CAMPAIGN)
    wall = time.perf_counter() - start
    if not result.zero_probability_clean():
        raise AssertionError("p=0 campaign points are not fault-free")
    if not result.ber_monotone():
        raise AssertionError("BER is not monotone in fault probability")
    points = {}
    for pt in result.points:
        key = f"{pt.kind}@p={pt.probability:g}"
        points[key] = {
            "ber": round(pt.ber, 6),
            "bit_errors": pt.bit_errors,
            "bits": pt.bits,
            "injections": pt.injections,
            "violations": pt.violations,
            "events": pt.events,
        }
    return {
        "description": (
            f"{FAULT_CAMPAIGN.chain_length}-stage pipeline, "
            f"{FAULT_CAMPAIGN.n_pulses} pulses, "
            f"{FAULT_CAMPAIGN.trials} trials/point"
        ),
        "wall_time_s": round(wall, 6),
        "points": points,
    }


def run_self_healing() -> dict:
    """Pulse-drop p=0.05 inference must complete through retry/fallback
    with the degradation recorded."""
    sizes = (8, 6, 4)
    network = random_binarized_network(
        np.random.default_rng(0), sizes, sc_per_npe=8
    )
    trains = random_spike_trains(
        np.random.default_rng(1), 6, 8, sizes[0], rate=0.5
    )
    runtime = SushiRuntime(
        chip_n=8, sc_per_npe=8,
        faults=FaultModel.single("pulse_drop", 0.05, seed=3),
        retry_policy=RetryPolicy(max_retries=2),
    )
    result = runtime.infer(network, trains)
    clean = SushiRuntime(chip_n=8, sc_per_npe=8).infer(network, trains)
    if not np.array_equal(result.output_raster, clean.output_raster):
        raise AssertionError(
            "self-healed inference disagrees with the clean reference"
        )
    return {
        "description": "pulse_drop p=0.05, RetryPolicy(max_retries=2)",
        "attempts": result.attempts,
        "degraded": result.degraded,
        "fault_injections": result.fault_injections,
        "recovery_lines": len(result.recovery),
    }


def measure_zero_fault_overhead(repeats: int = 5) -> dict:
    """Back-to-back timing of the reference pipeline with ``faults=None``
    vs an *inactive* model (informational: both bind the identical
    delivery fast path, so the true overhead is structurally zero; the
    <3% guard is ``test_fault_overhead.py``)."""
    from repro.harness.campaign import build_reference_pipeline
    from repro.rsfq import Simulator

    def one_run(faults):
        net, _probe = build_reference_pipeline(64)
        sim = Simulator(net, faults=faults)
        for k in range(256):
            sim.schedule_input("j0", "din", 50.0 * k)
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    base = min(one_run(None) for _ in range(repeats))
    inactive = min(one_run(FaultModel()) for _ in range(repeats))
    return {
        "baseline_s": round(base, 6),
        "inactive_model_s": round(inactive, 6),
        "overhead_ratio": round(inactive / base, 4),
    }


def measure_faults() -> dict:
    return {
        "version": SCHEMA_VERSION,
        "note": ("campaign points and self-healing outcomes are pinned "
                 "by --check; wall-clock numbers are informational"),
        "campaign": run_fault_campaign(),
        "self_healing": run_self_healing(),
        "zero_fault_overhead": measure_zero_fault_overhead(),
    }


def pinned_faults(report: dict) -> dict:
    """Per campaign grid point: BER, bit errors, injected-fault,
    violation and event counts; for the self-healing scenario: attempts,
    degraded flag and injected-fault total.  Every number derives from
    seeded per-site RNG streams."""
    view = {}
    for key, point in report.get("campaign", {}).get("points", {}).items():
        for field_name in PINNED_POINT_FIELDS:
            view[f"campaign.{key}.{field_name}"] = point.get(field_name)
    healing = report.get("self_healing", {})
    for field_name in PINNED_HEALING_FIELDS:
        view[f"self_healing.{field_name}"] = healing.get(field_name)
    return view


# -- serve: compiled pipeline vs the pre-rework engine -----------------------

CHIP_N = 16
SC_PER_NPE = 10
WORKERS = 2
TRIALS = 3


def _best(fn, trials: int = TRIALS) -> float:
    """Best wall time over a few trials (suppresses scheduler noise)."""
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _checksum(decisions: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(decisions, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def measure_serve(trials: int = TRIALS) -> dict:
    """The batch-512 :mod:`legacy_runtime` workload on the pre-rework
    fast engine (serial and per-call-executor parallel) and the compiled
    pipeline (serial fused kernel and shared-memory pool), plus the plan
    cache cold/warm path."""
    network, rows, steps, batch = make_serving_workload()
    capacity = 1 << SC_PER_NPE
    samples = rows.shape[0] / max(steps, 1)

    # -- functional ground truth (pinned) --------------------------------
    legacy_dec, legacy_spur, legacy_syn = legacy_forward_rows(
        network.layers, rows, capacity
    )
    compiled = compile_network(network, CHIP_N, SC_PER_NPE)
    comp_dec, comp_spur, comp_syn = compiled.forward_rows(rows)
    with InferencePool(compiled, workers=WORKERS) as pool:
        pool_dec, pool_spur, pool_syn = pool.infer_rows(rows)

        # -- wall clock (informational) ----------------------------------
        t_legacy_serial = _best(
            lambda: legacy_forward_rows(network.layers, rows, capacity),
            trials,
        )
        t_legacy_parallel = _best(
            lambda: legacy_parallel_rows(
                network.layers, rows, capacity, workers=WORKERS
            ),
            trials,
        )
        t_compiled_serial = _best(
            lambda: compiled.forward_rows(rows), trials
        )
        t_compiled_pool = _best(lambda: pool.infer_rows(rows), trials)

    # -- plan cache cold/warm (hit flags pinned, times informational) ----
    with tempfile.TemporaryDirectory() as root:
        cold_cache = PlanCache(root=root)
        t_cold = _best(
            lambda: cold_cache.get_or_compile(network, CHIP_N, SC_PER_NPE),
            trials=1,
        )
        cold_hit = cold_cache.hits > 0
        warm_cache = PlanCache(root=root)
        t_warm = _best(
            lambda: warm_cache.get_or_compile(network, CHIP_N, SC_PER_NPE),
            trials=1,
        )
        warm_hit = warm_cache.hits > 0 and warm_cache.misses == 0

    equality = {
        "compiled_equals_legacy": bool(
            np.array_equal(comp_dec, legacy_dec)
            and comp_spur == legacy_spur and comp_syn == legacy_syn
        ),
        "pool_equals_serial": bool(
            np.array_equal(pool_dec, comp_dec)
            and pool_spur == comp_spur and pool_syn == comp_syn
        ),
        "spurious": int(comp_spur),
        "synops": int(comp_syn),
        "reload_events": int(compiled.reload_events),
        "decisions_sha256_16": _checksum(comp_dec),
    }

    return {
        "version": SCHEMA_VERSION,
        "note": ("fingerprint/checksums/equality/cache-hit flags are "
                 "pinned by --check; wall-clock numbers are "
                 "informational"),
        "workload": {
            "sizes": list(compiled.layer_shapes[0][:1])
            + [shape[1] for shape in compiled.layer_shapes],
            "steps": steps,
            "batch": batch,
            "rows": int(rows.shape[0]),
            "chip_n": CHIP_N,
            "sc_per_npe": SC_PER_NPE,
            "workers": WORKERS,
            "fingerprint": network_fingerprint(
                network, CHIP_N, SC_PER_NPE, True
            ),
        },
        "equivalence": equality,
        "plan_cache": {
            "cold_hit": bool(cold_hit),
            "warm_hit": bool(warm_hit),
            "cold_ms": round(t_cold * 1000, 2),
            "warm_ms": round(t_warm * 1000, 2),
            "warm_speedup": round(t_cold / max(t_warm, 1e-9), 2),
        },
        "throughput": {
            "legacy_serial_ms": round(t_legacy_serial * 1000, 2),
            "legacy_parallel_ms": round(t_legacy_parallel * 1000, 2),
            "compiled_serial_ms": round(t_compiled_serial * 1000, 2),
            "compiled_pool_ms": round(t_compiled_pool * 1000, 2),
            "legacy_parallel_samples_per_s": round(
                samples / t_legacy_parallel, 1
            ),
            "compiled_pool_samples_per_s": round(
                samples / t_compiled_pool, 1
            ),
            "speedup_compiled_serial_over_legacy_serial": round(
                t_legacy_serial / t_compiled_serial, 3
            ),
            "speedup_pool_over_legacy_parallel": round(
                t_legacy_parallel / t_compiled_pool, 3
            ),
        },
    }


def pinned_serve(report: dict) -> dict:
    """The workload fingerprint, the decisions checksum, the spurious/
    synops/reload totals, the compiled-vs-legacy equality verdicts and
    the cold-miss/warm-hit cache flags -- all deterministic integer
    math.  The ">= 3x pre-rework engine" gate is
    ``test_serve_speedup.py``."""
    view = {}
    workload = report.get("workload", {})
    for field_name in ("sizes", "steps", "batch", "rows", "chip_n",
                       "sc_per_npe", "fingerprint"):
        view[f"workload.{field_name}"] = workload.get(field_name)
    for field_name, value in report.get("equivalence", {}).items():
        view[f"equivalence.{field_name}"] = value
    cache = report.get("plan_cache", {})
    for field_name in ("cold_hit", "warm_hit"):
        view[f"plan_cache.{field_name}"] = cache.get(field_name)
    return view


# -- chaos / netchaos / cluster: one shared chaos campaign -------------------


@functools.cache
def _quick_chaos_campaign() -> dict:
    """Every chaos scenario in quick mode, run once per process."""
    return run_chaos(quick=True)


def chaos_campaign(names: Optional[Sequence[str]] = None) -> dict:
    """The shared campaign report cut down to ``names`` (every scenario
    when ``None``); raises if any of them missed its invariants."""
    campaign = _quick_chaos_campaign()
    if names is not None:
        by_name = {entry["name"]: entry for entry in campaign["scenarios"]}
        scenarios = [by_name[name] for name in names]
        campaign = {**campaign, "scenarios": scenarios,
                    "passed": all(s["passed"] for s in scenarios)}
    if not campaign["passed"]:
        failing = [s["name"] for s in campaign["scenarios"]
                   if not s["passed"]]
        raise AssertionError(
            f"chaos scenarios failed their invariants: {failing}"
        )
    return campaign


def _elapsed_by_scenario(campaign: dict) -> dict:
    return {entry["name"]: entry["elapsed_s"]
            for entry in campaign["scenarios"]}


#: Deterministic per-scenario detail fields pinned alongside ``passed``.
#: Node-level scenarios: only the verdict is pinned here; the exact
#: router/autoscaler counters are pinned by the ``cluster`` suite.
CHAOS_PINNED_DETAILS = {
    "worker-kill": ("fired",),
    "shm-unlink": ("fired",),
    "shm-corrupt": ("fired",),
    "breaker-cycle": ("opens", "closes", "probes", "pool_failures"),
}


def measure_zero_failure_overhead(repeats: int = 3, calls: int = 4) -> dict:
    """Steady-state supervised-vs-legacy pool timing (informational; the
    asserted <5% gate is ``test_supervision_overhead.py``)."""
    network, rows, _steps, _batch = make_serving_workload(
        sizes=(196, 64, 10), batch=96,
    )
    compiled = compile_network(network, 16, 10)

    def sweep(pool) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            pool.infer_rows(rows)
        return time.perf_counter() - start

    with LegacyInferencePool(compiled, workers=2) as legacy:
        legacy.infer_rows(rows)  # warm-up
        t_legacy = min(sweep(legacy) for _ in range(repeats))
    with InferencePool(compiled, workers=2) as pool:
        pool.infer_rows(rows)  # warm-up
        t_supervised = min(sweep(pool) for _ in range(repeats))
    return {
        "legacy_pool_s": round(t_legacy, 6),
        "supervised_pool_s": round(t_supervised, 6),
        "overhead_ratio": round(t_supervised / t_legacy, 4),
    }


def measure_chaos() -> dict:
    """The whole chaos campaign (:mod:`repro.harness.chaos`) plus the
    zero-failure overhead against ``legacy_pool.LegacyInferencePool``."""
    campaign = chaos_campaign()
    return {
        "version": SCHEMA_VERSION,
        "note": ("scenario verdicts, injection counts and breaker "
                 "counters are pinned by --check; recovery latencies "
                 "and the overhead ratio are informational"),
        "campaign": campaign,
        "recovery_latency_s": _elapsed_by_scenario(campaign),
        "zero_failure_overhead": measure_zero_failure_overhead(),
    }


def pinned_chaos(report: dict) -> dict:
    """The pass/fail verdict of every scenario (each internally asserts
    bit-identical-to-serial predictions and full worker restoration),
    the exact injection counts of the single-shot scenarios and the
    breaker-cycle transition counters."""
    view = {}
    scenarios = {
        entry["name"]: entry
        for entry in report.get("campaign", {}).get("scenarios", [])
    }
    for name, entry in scenarios.items():
        view[f"chaos.{name}.passed"] = entry.get("passed")
        for field_name in CHAOS_PINNED_DETAILS.get(name, ()):
            view[f"chaos.{name}.{field_name}"] = (
                entry.get("details", {}).get(field_name)
            )
    view["chaos.schema"] = report.get("campaign", {}).get("schema")
    view["chaos.all_passed"] = report.get("campaign", {}).get("passed")
    return view


def measure_netchaos() -> dict:
    """The ``net-*`` scenarios: resilient client -> seeded chaos proxy ->
    live gateway -> server."""
    campaign = chaos_campaign(NETWORK_SCENARIOS)
    return {
        "version": SCHEMA_VERSION,
        "note": ("scenario verdicts, client retry/hedge ledgers, proxy "
                 "fire counts, gateway replay counters and the shed "
                 "ledger are pinned by --check; wall times and byte "
                 "counters are informational"),
        "campaign": campaign,
        "wall_time_s": _elapsed_by_scenario(campaign),
    }


def pinned_netchaos(report: dict) -> dict:
    """Every network scenario's verdict (each asserts predictions
    bit-identical to a fault-free serial run and an exactly-once server
    compute count), the client retry/hedge/timeout ledgers, the proxy
    fire counts, the gateway's idempotent-replay counters and the
    overload-shed ledger.  Proxy byte counters stay informational: TCP
    segmentation and timed-out responses make them racy."""
    view = {}
    scenarios = {
        entry["name"]: entry
        for entry in report.get("campaign", {}).get("scenarios", [])
    }
    for name, entry in scenarios.items():
        view[f"netchaos.{name}.passed"] = entry.get("passed")
        details = entry.get("details") or {}
        for ledger in ("client", "shed_client"):
            counters = details.get(ledger)
            if counters is None:
                continue
            for field_name in CLIENT_COUNTER_FIELDS:
                view[f"netchaos.{name}.{ledger}.{field_name}"] = (
                    counters.get(field_name)
                )
        proxy = details.get("proxy") or {}
        if proxy:
            view[f"netchaos.{name}.fired"] = proxy.get("fired")
            view[f"netchaos.{name}.connections"] = (
                proxy.get("connections")
            )
        for key in ("gateway_replays", "sheds", "admitted", "n_trains"):
            if key in details:
                view[f"netchaos.{name}.{key}"] = details[key]
    view["netchaos.schema"] = report.get("campaign", {}).get("schema")
    view["netchaos.all_passed"] = report.get("campaign", {}).get("passed")
    return view


NODE_SCENARIOS = ("node-kill", "node-partition", "scale-storm")

#: Deterministic per-scenario detail fields pinned alongside ``passed``.
CLUSTER_PINNED_DETAILS = {
    "node-kill": ("retries", "evictions", "rebalances",
                  "nodes_routable"),
    "node-partition": ("fallbacks", "quarantines", "rejoins",
                       "rebalances"),
    "scale-storm": ("sizes", "scale_ups", "scale_downs", "actions"),
}

#: Routing measurement shape (seeded, fully deterministic).
ROUTING_NODES = 4
ROUTING_BLOCKS = 64


def measure_routing() -> dict:
    """Dispatch a seeded request population through a healthy cluster
    and record the (deterministic) affinity distribution and counters;
    wall-clock throughput rides along as informational."""
    rng = np.random.default_rng(7)
    network = random_binarized_network(rng, sizes=(12, 9, 5), sc_per_npe=8)
    compiled = compile_network(network, 4, 8)
    blocks_rng = np.random.default_rng(11)
    blocks = [
        (blocks_rng.random((6, compiled.in_features)) < 0.4)
        .astype(np.float64)
        for _ in range(ROUTING_BLOCKS)
    ]
    router = ClusterRouter(compiled)
    for i in range(ROUTING_NODES):
        router.join(PoolNode(f"node-{i}", compiled, workers=0))
    try:
        start = time.perf_counter()
        for block in blocks:
            router.dispatch(block)
        elapsed = time.perf_counter() - start
        snap = router.stats()
        shares = {
            node_id: entry["dispatches"]
            for node_id, entry in snap["per_node"].items()
        }
        return {
            "nodes": ROUTING_NODES,
            "blocks": ROUTING_BLOCKS,
            "plan": compiled.fingerprint,
            "counters": snap["counters"],
            "per_node_dispatches": shares,
            "dispatch_throughput_rps": round(
                ROUTING_BLOCKS / elapsed, 1
            ) if elapsed else 0.0,
        }
    finally:
        router.shutdown()


def measure_ring_balance() -> dict:
    """Key-share spread of an 8-node/2000-key population (the balance
    property the hypothesis suite checks in bounds; here the exact
    deterministic shares are pinned)."""
    ring = ConsistentHashRing(
        replicas=64, nodes=[f"node-{i}" for i in range(8)]
    )
    counts = {node: 0 for node in ring.node_ids}
    keys = 2000
    for i in range(keys):
        counts[ring.route(f"key-{i}")] += 1
    fair = keys / len(counts)
    return {
        "nodes": len(counts),
        "keys": keys,
        "replicas": 64,
        "min_share": min(counts.values()),
        "max_share": max(counts.values()),
        "max_over_fair": round(max(counts.values()) / fair, 4),
    }


def measure_cluster() -> dict:
    """The node-level chaos scenarios plus the routing and ring-balance
    measurements."""
    campaign = chaos_campaign(NODE_SCENARIOS)
    return {
        "version": SCHEMA_VERSION,
        "note": ("scenario verdicts, router counters, the autoscaler "
                 "trajectory and the routing/ring distributions are "
                 "pinned by --check; recovery latencies and throughput "
                 "are informational"),
        "campaign": campaign,
        "recovery_latency_s": _elapsed_by_scenario(campaign),
        "routing": measure_routing(),
        "ring_balance": measure_ring_balance(),
    }


def pinned_cluster(report: dict) -> dict:
    """Every node scenario's verdict (each asserts answers bit-identical
    to serial ``forward_rows`` and full cluster recovery), the exact
    retry/eviction/quarantine/rejoin counters, the 1 -> 8 -> 1
    autoscaler trajectory and action sequence, and the consistent-hash
    routing distribution of a seeded request population."""
    view = {}
    scenarios = {
        entry["name"]: entry
        for entry in report.get("campaign", {}).get("scenarios", [])
    }
    for name, entry in scenarios.items():
        view[f"cluster.{name}.passed"] = entry.get("passed")
        for field_name in CLUSTER_PINNED_DETAILS.get(name, ()):
            view[f"cluster.{name}.{field_name}"] = (
                entry.get("details", {}).get(field_name)
            )
    view["cluster.schema"] = report.get("campaign", {}).get("schema")
    view["cluster.all_passed"] = report.get("campaign", {}).get("passed")
    routing = report.get("routing", {})
    for field_name in ("nodes", "blocks", "plan", "counters",
                       "per_node_dispatches"):
        view[f"routing.{field_name}"] = routing.get(field_name)
    balance = report.get("ring_balance", {})
    for field_name in ("nodes", "keys", "replicas", "min_share",
                       "max_share", "max_over_fair"):
        view[f"ring.{field_name}"] = balance.get(field_name)
    return view


# -- gateway: quick closed-loop load campaign -------------------------------

#: Scenario fields that must exist in every entry (schema guard; their
#: *values* are informational except the ones re-pinned below).
REQUIRED_SCENARIO_FIELDS = (
    "name", "mode", "sent", "statuses", "expected_statuses", "passed",
    "rejections", "latency_ms_p50", "latency_ms_p99", "latency_ms_max",
    "throughput_rps", "elapsed_s",
)


def measure_gateway() -> dict:
    """The quick load campaign (:mod:`repro.gateway.loadgen`): arrival-mix
    scenarios over a live in-process gateway on an ephemeral port."""
    campaign = run_loadtest(quick=True)
    if not campaign["passed"]:
        failing = [s["name"] for s in campaign["scenarios"]
                   if not s["passed"]]
        raise AssertionError(
            f"load scenarios missed their deterministic status "
            f"expectations: {failing}"
        )
    return {
        "version": SCHEMA_VERSION,
        "note": ("status/rejection counts, verdicts, totals and the "
                 "plan fingerprint are pinned by --check; p50/p99 "
                 "latency and throughput are informational"),
        "campaign": campaign,
    }


def pinned_gateway(report: dict) -> dict:
    """The campaign and per-scenario verdicts, every scenario's exact
    status-code counts (the load-shedding contract), the typed
    rejection-code counts, the campaign totals, the workload plan
    fingerprint and the *presence* of the latency/throughput fields."""
    campaign = report.get("campaign", {})
    view = {
        "gateway.schema": campaign.get("schema"),
        "gateway.quick": campaign.get("quick"),
        "gateway.passed": campaign.get("passed"),
        "gateway.workload.fingerprint":
            campaign.get("workload", {}).get("fingerprint"),
        "gateway.totals.sent":
            campaign.get("totals", {}).get("sent"),
        "gateway.totals.statuses":
            campaign.get("totals", {}).get("statuses"),
        "gateway.totals.rejections":
            campaign.get("totals", {}).get("rejections"),
    }
    for entry in campaign.get("scenarios", []):
        name = entry.get("name", "?")
        view[f"gateway.{name}.passed"] = entry.get("passed")
        view[f"gateway.{name}.sent"] = entry.get("sent")
        view[f"gateway.{name}.statuses"] = entry.get("statuses")
        view[f"gateway.{name}.rejections"] = entry.get("rejections")
        view[f"gateway.{name}.fields_present"] = sorted(
            f for f in REQUIRED_SCENARIO_FIELDS if f in entry
        )
    return view


# -- explore: design-space sweep through the point cache --------------------

EXPLORE_WORKERS = 2


def _timed_sweep(config: ExploreConfig, cache: PlanCache):
    counters = ExploreCounters()
    start = time.perf_counter()
    report = run_explore(config, plan_cache=cache, counters=counters)
    elapsed = time.perf_counter() - start
    return report, counters.snapshot(), elapsed


def measure_explore() -> dict:
    """The full default grid (NPE count up to 32, the paper's 16x16 mesh)
    three ways: cold serial on a fresh cache, warm parallel on the same
    cache (every point must hit), and cold parallel on a second fresh
    cache (must be bit-identical to the serial sweep)."""
    serial = ExploreConfig()
    parallel = replace(serial, workers=EXPLORE_WORKERS)

    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b:
        cold_report, cold_counts, t_cold = _timed_sweep(
            serial, PlanCache(root=root_a)
        )
        warm_report, warm_counts, t_warm = _timed_sweep(
            parallel, PlanCache(root=root_a)
        )
        par_report, par_counts, t_par = _timed_sweep(
            parallel, PlanCache(root=root_b)
        )

    points_total = cold_report["counters"]["points_total"]
    warm_hits = warm_counts["point_cache_hits"]
    canonical = json.dumps(pinned_view(cold_report), sort_keys=True)
    return {
        "version": SCHEMA_VERSION,
        "note": ("counts/pareto/fingerprint/digest/hit-rate/equality "
                 "fields are pinned by --check; wall-clock numbers are "
                 "informational (the >=3x gate is "
                 "test_explore_speedup.py)"),
        "sweep": {
            "schema": cold_report["schema"],
            "points_total": points_total,
            "points_feasible": points_total
            - cold_report["counters"]["infeasible_points"],
            "points_infeasible":
                cold_report["counters"]["infeasible_points"],
            "pareto": cold_report["pareto"],
            "workload_fingerprint":
                cold_report["workload"]["fingerprint"],
            "pinned_digest": pinned_digest(cold_report),
            "trace_probe_fallbacks":
                cold_counts["trace_probe_fallbacks"],
        },
        "memoization": {
            "warm_hit_rate": round(warm_hits / points_total, 6),
            "warm_points_evaluated": warm_counts["points_evaluated"],
            "serial_equals_parallel": bool(
                canonical == json.dumps(
                    pinned_view(par_report), sort_keys=True
                )
                and canonical == json.dumps(
                    pinned_view(warm_report), sort_keys=True
                )
            ),
            "parallel_workers": EXPLORE_WORKERS,
        },
        "timing": {
            "cold_serial_s": round(t_cold, 4),
            "warm_parallel_s": round(t_warm, 4),
            "cold_parallel_s": round(t_par, 4),
            "warm_speedup": round(t_cold / max(t_warm, 1e-9), 2),
        },
    }


def pinned_explore(report: dict) -> dict:
    """The schema, point/feasible/infeasible counts, the Pareto frontier
    keys, the workload fingerprint, the pinned-view digest, the trace
    probe fallback count (0), the warm hit rate (1.0) and the
    serial-vs-parallel equality verdict."""
    view = {}
    for field_name, value in report.get("sweep", {}).items():
        view[f"sweep.{field_name}"] = value
    memo = report.get("memoization", {})
    for field_name in ("warm_hit_rate", "warm_points_evaluated",
                       "serial_equals_parallel"):
        view[f"memoization.{field_name}"] = memo.get(field_name)
    return view


# -- the suite table and the shared writer/checker ---------------------------


@dataclass(frozen=True)
class Suite:
    """One drift gate: baseline ``BENCH_<name>.json`` in :data:`BENCH_DIR`."""

    measure: Callable[..., dict]
    pinned_view: Callable[[dict], dict]
    #: Keyword arguments ``--check`` passes to ``measure``.
    check_kwargs: Dict[str, object] = field(default_factory=dict)


SUITES: Dict[str, Suite] = {
    "simulator": Suite(measure_simulator, pinned_simulator),
    "faults": Suite(measure_faults, pinned_faults),
    "serve": Suite(measure_serve, pinned_serve, {"trials": 1}),
    "chaos": Suite(measure_chaos, pinned_chaos),
    "netchaos": Suite(measure_netchaos, pinned_netchaos),
    "cluster": Suite(measure_cluster, pinned_cluster),
    "gateway": Suite(measure_gateway, pinned_gateway),
    "explore": Suite(measure_explore, pinned_explore),
}


def baseline_path(name: str) -> Path:
    return BENCH_DIR / f"BENCH_{name}.json"


def write(name: str) -> int:
    path = baseline_path(name)
    report = SUITES[name].measure()
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def check(name: str) -> int:
    suite = SUITES[name]
    path = baseline_path(name)
    if not path.exists():
        print(f"missing baseline {path}; run with --write first",
              file=sys.stderr)
        return 2
    baseline = json.loads(path.read_text())
    if baseline.get("version") != SCHEMA_VERSION:
        print(f"baseline schema {baseline.get('version')} != "
              f"{SCHEMA_VERSION}; regenerate with --write", file=sys.stderr)
        return 2
    expected = suite.pinned_view(baseline)
    actual = suite.pinned_view(suite.measure(**suite.check_kwargs))
    drift = {
        key: (expected.get(key), actual.get(key))
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    }
    if drift:
        print(f"{name} drift against {path.name}:", file=sys.stderr)
        for key, (want, got) in drift.items():
            print(f"  {key}: baseline={want} measured={got}",
                  file=sys.stderr)
        print("(if the change is intentional, regenerate the baseline "
              "with --write)", file=sys.stderr)
        return 1
    print(f"{name} OK: {len(expected)} pinned fields match {path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and (re)write the baseline JSON")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on pinned-field drift")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"any of {', '.join(SUITES)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}")
    run = write if args.write else check
    codes = []
    for name in args.suites or SUITES:
        try:
            codes.append(run(name))
        except Exception:  # a crashed suite must not hide the others
            traceback.print_exc()
            codes.append(1)
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())

"""Workload ``gate-sim``: a gate-level simulation batch job.

``GateLevelChip(n=4, sc_per_npe=8)`` runs a seeded Fig. 16 protocol
(per time step: threshold preload, crosspoint configuration, four
polarity passes, read-out; 20 steps, ~100k events) through
``ChipDriver`` on the event-driven ``Simulator``, episode after
episode.  Set-up records that schedule once with ``TraceEngine``; the
run then replays seeded jitter variants of it.  All times are host
time (``rsfq.sim_ps`` is simulated time).  The work is CPU-bound, so
the end-to-end figures are host-normalised (:class:`common.HostSpeed`);
raw figures are in the report.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import (
    HostSpeed,
    WorkloadResult,
    layer_time_stats,
    median,
    percentile,
    seeded,
    spans_path,
    table_rows,
    tail_percentile,
)
from tracing import Tracer

NAME = "gate-sim"
N = 4
SC_PER_NPE = 8
STEPS = 20
PASSES = 4
#: Wire jitter of the replayed variants, in ps: small enough that every
#: replay stays certifiable (no fallback to the event engine).
JITTER_PS = 0.25
#: Share of the measured seconds spent on the event engine; the rest
#: replays jitter variants.
ENGINE_SHARE = 0.6
#: Jitter seeds re-run on the event engine to check their replays.
CHECKED_SEEDS = 2
MIN_PASSES = 1000
MIN_REPLAYS = 3
SETUP_REPEATS = 3


def make_protocol(seed: int) -> List[Dict]:
    """Seeded stimulus: per step, thresholds, a 0/1 gain matrix and four
    (polarity, spiking rows) passes."""
    from repro.neuro.state_controller import Polarity

    rng = seeded(seed, 4)
    protocol = []
    for _ in range(STEPS):
        protocol.append({
            "thresholds": rng.integers(1, 7, N).tolist(),
            "weights": rng.integers(0, 2, (N, N)).tolist(),
            "passes": [
                (Polarity.SET1 if rng.random() < 0.75 else Polarity.SET0,
                 (rng.random(N) < 0.5).tolist())
                for _ in range(PASSES)
            ],
        })
    return protocol


def drive(driver, protocol, passes=None) -> List[tuple]:
    """Run the protocol; returns the per-step read-outs and appends the
    host ms of each ``run_pass`` to ``passes``."""
    readouts = []
    for step in protocol:
        driver.begin_timestep(step["thresholds"])
        driver.configure_weights(step["weights"])
        for polarity, spikes in step["passes"]:
            start = time.perf_counter()
            driver.run_pass(polarity, spikes)
            if passes is not None:
                passes.append((time.perf_counter() - start) * 1000.0)
        readouts.append(tuple(driver.read_out()))
    return readouts


def _fires(chip) -> List[List[float]]:
    return [list(chip.fire_times(j)) for j in range(N)]


def _outcome(sim, chip, readouts=None) -> Dict:
    return {"events": sim.events_processed,
            "violations": len(sim.violations), "final_ps": sim.now,
            "fires": _fires(chip), "readouts": readouts}


def _setup(protocol, jitter_seed):
    """Build, capture the schedule on the event engine, record the
    trace, warm one jitter replay."""
    from repro.neuro.chip import ChipConfig, ChipDriver, GateLevelChip
    from repro.rsfq.trace import ScheduleRecorder, TraceEngine

    config = ChipConfig(n=N, sc_per_npe=SC_PER_NPE)
    chip = GateLevelChip(config)
    recorder = ScheduleRecorder(chip.net)
    readouts = drive(ChipDriver(chip, recorder), protocol)
    reference = _outcome(recorder, chip, readouts)
    segments = recorder.captured_segments()
    replay_chip = GateLevelChip(config)
    engine = TraceEngine(replay_chip.net)
    engine.run_episode(segments)
    engine.run_episode(segments, jitter_ps=JITTER_PS, seed=jitter_seed)
    return {"chip": chip, "segments": segments,
            "reference": reference, "replay_chip": replay_chip,
            "engine": engine}


def _engine_phase(state, protocol, seconds, host) -> Dict:
    """Episodes of the protocol on the event engine (fresh state each);
    the host is sampled between episodes."""
    from repro.neuro.chip import ChipDriver

    chip = state["chip"]
    sim = chip.simulator()
    passes: List[float] = []
    episodes = mismatches = events = 0
    busy = 0.0
    start = time.perf_counter()
    while time.perf_counter() < start + seconds or len(passes) < MIN_PASSES:
        host.tick()
        began = time.perf_counter()
        sim.reset()
        readouts = drive(ChipDriver(chip, sim), protocol, passes)
        busy += time.perf_counter() - began
        episodes += 1
        events += sim.events_processed
        mismatches += _outcome(sim, chip, readouts) != state["reference"]
    return {"pass_ms": passes, "episodes": episodes, "events": events,
            "mismatches": mismatches, "busy_s": busy}


def _replay_phase(state, seed, phase, seconds, host) -> Dict:
    """Seeded jitter replays of the recorded schedule; the host is
    sampled between replays."""
    engine, chip = state["engine"], state["replay_chip"]
    seeds = seeded(seed, 5, phase).integers(0, 2**31, 1 << 16).tolist()
    replays: List[Dict] = []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds or len(replays) < MIN_REPLAYS:
        host.tick()
        jitter_seed = seeds[len(replays)]
        began = time.perf_counter()
        episode = engine.run_episode(state["segments"], jitter_ps=JITTER_PS,
                                     seed=jitter_seed)
        replays.append({"seed": jitter_seed, "mode": episode.mode,
                        "host_s": time.perf_counter() - began,
                        "events": episode.events,
                        "violations": len(episode.violations),
                        "final_ps": episode.final_time_ps,
                        "fires": _fires(chip)})
    return {"replays": replays}


def _event_engine_run(state, jitter_seed, per_segment: bool):
    """The recorded schedule on a fresh event-engine ``Simulator`` with
    the replay's jitter seed.  ``per_segment=False`` schedules every
    stimulus up front and runs once; ``True`` runs segment by segment,
    as ``TraceEngine``'s own fallback does."""
    from repro.neuro.chip import ChipConfig, GateLevelChip
    from repro.rsfq.simulator import Simulator

    chip = GateLevelChip(ChipConfig(n=N, sc_per_npe=SC_PER_NPE))
    sim = Simulator(chip.net, jitter_ps=JITTER_PS, seed=jitter_seed,
                    jitter_mode="wire")
    sim.reset()
    for segment in state["segments"]:
        for name, port, at in segment:
            sim.schedule_input(name, port, at)
        if per_segment:
            sim.run()
    sim.run()
    return _outcome(sim, chip)


def _check(result: WorkloadResult, state, replays: List[Dict]) -> int:
    """Replay checks against the event engine; returns failed replays."""
    from repro.errors import ConfigurationError

    reference, engine = state["reference"], state["engine"]
    ideal = engine.run_episode(state["segments"])
    result.check(
        "jitter-0 replay equals the event engine",
        ideal.mode == "replay" and ideal.events == reference["events"]
        and ideal.final_time_ps == reference["final_ps"]
        and _fires(state["replay_chip"]) == reference["fires"])
    failed = sum(1 for r in replays
                 if r["mode"] != "replay"
                 or r["events"] != reference["events"])
    refused = 0
    for replay in replays[:CHECKED_SEEDS]:
        engine_run = _event_engine_run(state, replay["seed"], False)
        same = all(engine_run[k] == replay[k]
                   for k in ("events", "violations", "final_ps", "fires"))
        result.check(f"jitter seed {replay['seed']} replay equals the "
                     "event engine", same)
        failed += not same
        try:
            _event_engine_run(state, replay["seed"], True)
        except ConfigurationError:
            refused += 1
    result.notes.append(
        f"segment-by-segment event engine refused {refused} of "
        f"{min(CHECKED_SEEDS, len(replays))} checked jitter seeds "
        "(ChipDriver leaves 0 ps between segments; see README.md)")
    return failed


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    import repro.rsfq.trace as trace_module
    from repro.neuro.chip import ChipDriver
    from repro.rsfq.simulator import Simulator

    result = WorkloadResult()
    protocol = make_protocol(seed)
    host = HostSpeed()
    tracer = Tracer() if trace else None
    if trace:
        tracer.wrap(trace_module, "record_trace", "rsfq.trace.record")
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            host.sample()
            start = time.perf_counter()
            state = _setup(protocol, jitter_seed=seed)
            setup_times.append(time.perf_counter() - start)
    finally:
        if trace:
            tracer.uninstall()
    setup_summary = tracer.summary() if trace else {}

    phase_s = seconds / 2 if trace else seconds
    plain_engine = _engine_phase(state, protocol, phase_s * ENGINE_SHARE,
                                 host)
    plain_replay = _replay_phase(state, seed, 0,
                                 phase_s * (1 - ENGINE_SHARE), host)
    replays = list(plain_replay["replays"])
    if trace:
        tracer.clear()
        tracer.wrap(ChipDriver, "run_pass", "neuro.pass")
        tracer.wrap(Simulator, "run", "rsfq.run")
        tracer.wrap(trace_module.TraceEngine, "run_episode",
                    "rsfq.trace.replay")
        try:
            traced_engine = _engine_phase(state, protocol,
                                          phase_s * ENGINE_SHARE, host)
            traced_replay = _replay_phase(state, seed, 1,
                                          phase_s * (1 - ENGINE_SHARE),
                                          host)
        finally:
            tracer.uninstall()
        replays += traced_replay["replays"]

    engines = [plain_engine] + ([traced_engine] if trace else [])
    replay_failures = _check(result, state, replays)
    fallbacks = state["engine"].stats["fallbacks"]
    result.check("no replay fell back to the event engine", fallbacks == 0,
                 f"{fallbacks} fallbacks")
    result.attempted = sum(e["episodes"] for e in engines) + len(replays)
    result.failed = sum(e["mismatches"] for e in engines) + replay_failures

    passes = plain_engine["pass_ms"]
    plain_replays = plain_replay["replays"]
    replay_s = median([r["host_s"] for r in plain_replays])
    result.counts["latency_samples"] = len(passes)
    result.counts["replays"] = len(plain_replays)
    raw = {
        "setup_s": median(setup_times),
        "latency_p50_ms": percentile(passes, 50),
        "throughput_rps": state["reference"]["events"] / replay_s,
    }
    result.e2e = {
        "setup_s": host.time(raw["setup_s"]),
        "latency_p50_ms": host.time(raw["latency_p50_ms"]),
        "throughput_rps": host.rate(raw["throughput_rps"]),
    }
    result.report = {
        "latency_p99_ms": tail_percentile(passes),
        "failed_share": result.failed / result.attempted,
        "events_per_s": plain_engine["events"] / plain_engine["busy_s"],
        "replays_per_s": 1.0 / replay_s,
        "replay_ms": 1000.0 * replay_s,
        "bench.host_calib_ms": host.ms,
        **{f"{k}.raw": v for k, v in raw.items()},
    }
    if trace:
        summary = tracer.summary()
        tracer.write(spans_path(NAME))
        reference = state["reference"]
        layer = {}
        for span, metric in (("neuro.pass", "neuro.pass_ms"),
                             ("rsfq.run", "rsfq.run_ms"),
                             ("rsfq.trace.replay", "rsfq.trace.replay_ms")):
            stats = layer_time_stats(summary, span)
            layer[metric] = stats["self_ms"] if stats else 0.0
        record = layer_time_stats(setup_summary, "rsfq.trace.record")
        layer["rsfq.trace.record_s"] = record["total_ms"] / 1000.0
        layer["rsfq.events"] = reference["events"]
        layer["rsfq.violations"] = reference["violations"]
        layer["rsfq.sim_ps"] = reference["final_ps"]
        layer["rsfq.trace.fallbacks"] = fallbacks
        layer["bench.host_calib_ms"] = host.ms
        traced_p50 = percentile(traced_engine["pass_ms"], 50)
        base = raw["latency_p50_ms"]
        layer["bench.trace_overhead_ms"] = traced_p50 - base
        layer["bench.trace_overhead_share"] = (traced_p50 - base) / base
        result.layer = layer
        result.self_table = (
            table_rows(summary, "latency_p50_ms", traced_p50,
                       ["neuro.pass", "rsfq.run"])
            + table_rows(summary, "replay_ms", result.report["replay_ms"],
                         ["rsfq.trace.replay"])
            + table_rows(setup_summary, "setup_ms",
                         raw["setup_s"] * 1000.0, ["rsfq.trace.record"]))
    return result

"""End-to-end SSNN inference on SUSHI (paper Fig. 12 workflow).

Two execution engines share one semantics:

* ``engine="fast"`` -- vectorised ripple-counter simulation
  (:func:`repro.ssnn.bucketing.hardware_layer_outputs`): the whole
  ``(T, batch)`` test set is folded into one row block per layer, so the
  numpy kernels see thousands of independent rows at once instead of one
  time step at a time; used by the Table 3 benchmark.  An optional
  ``max_workers`` persistent pool shards the rows for multi-core runs.
* ``engine="behavioral"`` -- drives a
  :class:`repro.neuro.chip.BehavioralChip` through the full bit-slice
  protocol pass by pass: slow but protocol-exact, used to validate the fast
  engine and (in miniature) the gate-level chip.  One elaborated chip
  instance is reused (power-on reset) across the samples of a batch.

Both honour the ``reorder`` flag so the bucketing ablation
(section 4.2.2 / 5.1) can quantify the accuracy cost of naive synapse
ordering, and both are bit-identical to the per-sample reference loop
(:meth:`SushiRuntime.infer_per_sample`) -- the differential harness in
:mod:`repro.harness.differential` asserts exactly that.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError
from repro.neuro.chip import BehavioralChip, ChipConfig
from repro.rsfq.faults import FaultModel
from repro.snn.binarize import BinarizedLayer, BinarizedNetwork
from repro.ssnn.bitslice import BitSlicePlan, plan_network
from repro.ssnn.bucketing import hardware_layer_outputs
from repro.ssnn.compile import (
    CompiledNetwork,
    PlanCache,
    compile_network,
    resolve_plan_cache,
)


def _stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary parts (hash-randomisation
    proof, unlike :func:`hash`)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def perturb_spike_trains(
    spike_trains: np.ndarray, faults: FaultModel, attempt: int
) -> Tuple[np.ndarray, int]:
    """Apply a :class:`~repro.rsfq.faults.FaultModel` at spike-train level.

    The runtime engines are functional models -- they do not move
    individual SFQ pulses -- so physical faults surface to them as
    corrupted spike trains: drops clear spikes, duplicates/escapes raise
    spurious ones, extra delay shifts a spike one step later, flux traps
    flip bits, and stuck cells silence whole input features.  Decisions
    draw from a deterministic stream derived from ``(model seed,
    attempt)``, so each retry attempt replays a *different but
    reproducible* transient-fault realisation -- the property the
    self-healing retry loop needs.

    Returns ``(perturbed trains, injected fault count)``.  When no spec
    has a positive probability the input is returned as-is (no copy, no
    RNG construction, ``injected=0``) -- the zero-probability
    configuration used by overhead benchmarks and campaign baselines
    must not pay for a full-array copy per attempt.
    """
    active_specs = [spec for spec in faults.specs if spec.probability > 0.0]
    if not active_specs:
        return np.asarray(spike_trains, dtype=np.float64), 0
    rng = np.random.default_rng(
        _stable_seed("sushi-runtime-faults", repr(faults.seed), attempt)
    )
    trains = np.array(spike_trains, dtype=np.float64, copy=True)
    injected = 0
    for spec in active_specs:
        p = spec.probability
        if spec.kind == "pulse_drop":
            mask = (trains > 0) & (rng.random(trains.shape) < p)
            injected += int(mask.sum())
            trains[mask] = 0.0
        elif spec.kind == "pulse_duplicate":
            mask = (trains == 0) & (rng.random(trains.shape) < p)
            injected += int(mask.sum())
            trains[mask] = 1.0
        elif spec.kind == "extra_delay":
            mask = (trains > 0) & (rng.random(trains.shape) < p)
            injected += int(mask.sum())
            trains[mask] = 0.0
            if trains.shape[0] > 1:
                shifted = np.zeros_like(trains)
                shifted[1:][mask[:-1]] = 1.0
                trains = np.maximum(trains, shifted)
        elif spec.kind == "flux_trap":
            mask = rng.random(trains.shape) < p
            injected += int(mask.sum())
            trains[mask] = 1.0 - trains[mask]
        elif spec.kind == "stuck_cell":
            cols = rng.random(trains.shape[2]) < p
            injected += int(cols.sum())
            trains[:, :, cols] = 0.0
    return trains, injected


@dataclass(frozen=True)
class RetryPolicy:
    """Self-healing policy for fault-afflicted inference.

    Attributes:
        max_retries: Re-run attempts (each with a fresh derived fault
            seed) after the first corrupted attempt, before falling back.
        fallback: When True (default), a run that stays corrupted through
            every retry degrades gracefully to fault-free semantics (and
            optionally another engine) instead of raising.
        fallback_engine: Engine for the degraded run (``None`` keeps the
            runtime's engine; ``"behavioral"`` selects the protocol-exact
            chip model -- the most conservative path).
    """

    max_retries: int = 3
    fallback: bool = True
    fallback_engine: Optional[str] = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.fallback_engine not in (None, "fast", "behavioral"):
            raise ConfigurationError(
                f"unknown fallback_engine '{self.fallback_engine}'; "
                "use None, 'fast' or 'behavioral'"
            )


def layer_activity(plan: BitSlicePlan, spike_trains: np.ndarray) -> List[np.ndarray]:
    """Input spike activity per layer: ``activity[l][t]`` is the (features,)
    input vector of layer ``l`` at time step ``t`` (single sample)."""
    if plan.network is None:
        raise ConfigurationError("plan carries no network reference")
    spike_trains = np.asarray(spike_trains, dtype=np.float64)
    activity = [spike_trains]
    current = spike_trains
    for layer in plan.network.layers:
        current = layer.forward(current)
        activity.append(current)
    return activity


def batch_layer_activity(
    plan: BitSlicePlan, spike_trains: np.ndarray
) -> List[np.ndarray]:
    """Batched :func:`layer_activity`: ``activity[l]`` is the
    ``(T, batch, features)`` input block of layer ``l``.  One vectorised
    forward pass per layer replaces the per-sample/per-step loops."""
    if plan.network is None:
        raise ConfigurationError("plan carries no network reference")
    spike_trains = np.asarray(spike_trains, dtype=np.float64)
    if spike_trains.ndim != 3:
        raise ConfigurationError("spike_trains must be (T, batch, features)")
    steps, batch, _ = spike_trains.shape
    activity = [spike_trains]
    current = spike_trains
    for layer in plan.network.layers:
        flat = layer.forward(current.reshape(steps * batch, -1))
        current = flat.reshape(steps, batch, layer.out_features)
        activity.append(current)
    return activity


def _fast_forward_rows(
    layers: Sequence[BinarizedLayer],
    rows: np.ndarray,
    capacity: int,
    reorder: bool,
) -> Tuple[np.ndarray, int, int]:
    """Push independent spike rows through the layer stack under exact
    ripple-counter semantics.

    Returns ``(decisions, spurious, synops)``.  This is the
    *legacy* (pre-compile) kernel kept as the differential baseline;
    the serving path runs the fused
    :meth:`repro.ssnn.compile.CompiledNetwork.forward_rows` instead,
    which is bit-identical but folds the final-sum reference and the
    synops statistic into the two bucket matmuls.
    """
    current = rows
    spurious = 0
    synops = 0
    for layer in layers:
        decisions, _ = hardware_layer_outputs(
            layer, current, capacity, reorder=reorder
        )
        reference = layer.forward(current)
        spurious += int((decisions != reference).sum())
        synops += int((current @ (layer.signed_weights != 0)).sum())
        current = decisions
    return current, spurious, synops


@dataclass
class RuntimeResult:
    """Outcome of a chip inference over a batch.

    Attributes:
        rates: (batch, classes) mean output spike rates.
        predictions: argmax labels.
        output_raster: (T, batch, classes) per-step output spikes.
        spurious_decisions: (sample, neuron, step) triples where the
            hardware decision differed from the final-sum reference
            (premature fires / underflows); empty under reordering with
            adequate capacity.
        synaptic_ops: Total synaptic operations executed.
        reload_events: Crosspoint reloads (behavioural engine) or the
            plan's static estimate (fast engine).
        attempts: Inference attempts executed (1 without faults; includes
            the fallback run when degradation engaged).
        degraded: True when the self-healing loop exhausted its retries
            and fell back to fault-free semantics.
        fault_injections: Spike-train faults injected across all
            attempts (0 without an attached fault model).
        recovery: Human-readable recovery trail -- one line per corrupted
            attempt plus the fallback decision (empty when the first
            attempt was clean).
    """

    rates: np.ndarray
    predictions: np.ndarray
    output_raster: np.ndarray
    spurious_decisions: int
    synaptic_ops: int
    reload_events: int
    attempts: int = 1
    degraded: bool = False
    fault_injections: int = 0
    recovery: Tuple[str, ...] = ()


class SushiRuntime:
    """Runs binarized networks on a SUSHI chip model.

    Args:
        chip_n: Mesh size of the target chip.
        sc_per_npe: SC-chain length (membrane states = ``2**sc_per_npe``).
        engine: ``"fast"`` (vectorised, batched) or ``"behavioral"``
            (protocol-exact chip model).
        reorder: Stream inhibitory synapses first (the paper's bucketing);
            ``False`` selects the naive-order ablation (fast engine only).
        max_workers: Compiled fast engine only -- shard the row block
            across a worker pool of this size.  ``None``/``0``/``1`` run
            serially (the default; identical results either way, the
            pool only changes wall-clock time).  The workers are a
            long-lived :class:`~repro.ssnn.pool.InferencePool` behind a
            :class:`~repro.serve.backend.PoolBackend` (breaker-guarded,
            serial fallback): spawned on first use, fed through shared
            memory, reused across ``infer`` calls, released by
            :meth:`close` (or GC).
        use_compiled: Execute the fast engine through the compile-once
            :class:`~repro.ssnn.compile.CompiledNetwork` artifact
            (default).  ``False`` selects the legacy per-layer kernel --
            bit-identical, always serial, kept as the differential
            baseline.
        plan_cache: ``"default"`` (share the process-wide on-disk
            :class:`~repro.ssnn.compile.PlanCache`), ``None`` (compile
            in memory only) or an explicit :class:`PlanCache`.
        faults: Optional :class:`~repro.rsfq.faults.FaultModel`.  When
            active, every :meth:`infer` runs the self-healing loop: the
            input spike trains are corrupted per the model
            (:func:`perturb_spike_trains`), the corrupted outcome is
            detected by behavioural disagreement against the clean
            software reference, and the runtime retries with fresh
            derived fault seeds before degrading gracefully (see
            ``retry_policy`` and ``docs/FAULTS.md``).
        retry_policy: :class:`RetryPolicy` governing the self-healing
            loop (defaults to ``RetryPolicy()``); ignored without an
            active fault model.

    Bit-slice plans are memoised per network object, so repeated
    ``infer`` calls against the same network skip re-planning.
    """

    def __init__(
        self,
        chip_n: int = 16,
        sc_per_npe: int = 10,
        engine: str = "fast",
        reorder: bool = True,
        max_workers: Optional[int] = None,
        faults: Optional[FaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        use_compiled: bool = True,
        plan_cache="default",
    ):
        if engine not in ("fast", "behavioral"):
            raise ConfigurationError(
                f"unknown engine '{engine}'; use 'fast' or 'behavioral'"
            )
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError("max_workers must be >= 0")
        self.chip_n = chip_n
        self.sc_per_npe = sc_per_npe
        self.engine = engine
        self.reorder = reorder
        self.max_workers = max_workers
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.use_compiled = use_compiled
        self.plan_cache: Optional[PlanCache] = resolve_plan_cache(plan_cache)
        self._plan_cache: dict = {}
        self._compiled_memo: dict = {}
        self._backend = None  # lazily-built PoolBackend (max_workers > 1)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the persistent worker pool (if one was spawned).
        Safe to call repeatedly; the runtime stays usable (a fresh pool
        is spawned on the next parallel dispatch)."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "SushiRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ---------------------------------------------------------

    def infer(
        self, network: BinarizedNetwork, spike_trains: np.ndarray
    ) -> RuntimeResult:
        """Run inference on a (T, batch, in_features) binary spike train.

        The whole batch is dispatched at once; results are bit-identical
        to :meth:`infer_per_sample` (samples are independent under both
        engines -- the differential tests assert it).
        """
        spike_trains = self._validated(network, spike_trains)
        if self.faults is not None and self.faults.active:
            return self._infer_self_healing(network, spike_trains)
        return self._infer_engine(network, spike_trains)

    def _infer_engine(
        self, network, spike_trains, engine: Optional[str] = None
    ) -> RuntimeResult:
        """Dispatch one clean inference to the selected engine."""
        engine = engine or self.engine
        if engine == "fast":
            return self._infer_fast(network, spike_trains)
        return self._infer_behavioral(network, spike_trains)

    def _software_reference(self, network, spike_trains) -> np.ndarray:
        """Clean software raster (the corruption-detection oracle)."""
        steps, batch, _ = spike_trains.shape
        current = spike_trains.reshape(steps * batch, -1)
        for layer in network.layers:
            current = layer.forward(current)
        return current.reshape(steps, batch, network.out_features)

    def _infer_self_healing(self, network, spike_trains) -> RuntimeResult:
        """The retry/fallback state machine (see ``docs/FAULTS.md``).

        Each attempt corrupts the inputs per the fault model under a
        fresh derived seed (a new transient-fault realisation of the same
        physical hypothesis), runs the engine, and compares the output
        raster against the clean software reference.  A clean attempt is
        returned as-is; after ``max_retries`` corrupted attempts the
        policy either degrades gracefully to fault-free semantics
        (``degraded=True``, optionally on ``fallback_engine``) or raises
        :class:`~repro.errors.FaultInjectionError`.
        """
        policy = self.retry_policy
        reference = self._software_reference(network, spike_trains)
        recovery: List[str] = []
        total_injected = 0
        attempts = 0
        for attempt in range(1 + policy.max_retries):
            trains, injected = perturb_spike_trains(
                spike_trains, self.faults, attempt
            )
            result = self._infer_engine(network, trains)
            attempts += 1
            total_injected += injected
            mismatches = int((result.output_raster != reference).sum())
            if mismatches == 0:
                result.attempts = attempts
                result.fault_injections = total_injected
                result.recovery = tuple(recovery)
                return result
            recovery.append(
                f"attempt {attempts}: {injected} injected faults "
                f"corrupted {mismatches} output bits; "
                + ("retrying with a fresh fault seed"
                   if attempt < policy.max_retries
                   else "retry budget exhausted")
            )
        if not policy.fallback:
            raise FaultInjectionError(
                f"inference stayed corrupted after {attempts} attempts "
                f"({total_injected} faults injected) and the retry policy "
                "forbids fallback"
            )
        fallback_engine = policy.fallback_engine or self.engine
        result = self._infer_engine(
            network, spike_trains, engine=fallback_engine
        )
        attempts += 1
        recovery.append(
            f"fallback: degraded to fault-free '{fallback_engine}' "
            "semantics"
        )
        result.attempts = attempts
        result.degraded = True
        result.fault_injections = total_injected
        result.recovery = tuple(recovery)
        return result

    def infer_per_sample(
        self, network: BinarizedNetwork, spike_trains: np.ndarray
    ) -> RuntimeResult:
        """Reference path: run each sample through :meth:`infer` on its
        own and stitch the results back together.

        Slow by construction (no batching); exists as the oracle the
        batched dispatch is differentially tested against, and as the
        baseline of the batching benchmark.
        """
        spike_trains = self._validated(network, spike_trains)
        steps, batch, _ = spike_trains.shape
        raster = np.zeros((steps, batch, network.out_features))
        spurious = 0
        synops = 0
        reloads = 0
        for b in range(batch):
            single = self.infer(network, spike_trains[:, b:b + 1, :])
            raster[:, b, :] = single.output_raster[:, 0, :]
            spurious += single.spurious_decisions
            synops += single.synaptic_ops
            reloads += single.reload_events
        rates = raster.mean(axis=0) if steps else raster.sum(axis=0)
        return RuntimeResult(
            rates=rates,
            predictions=rates.argmax(axis=1),
            output_raster=raster,
            spurious_decisions=spurious,
            synaptic_ops=synops,
            reload_events=reloads,
        )

    # -- helpers ------------------------------------------------------------

    def _validated(self, network, spike_trains) -> np.ndarray:
        spike_trains = np.asarray(spike_trains, dtype=np.float64)
        if spike_trains.ndim != 3:
            raise ConfigurationError(
                "spike_trains must be (T, batch, in_features)"
            )
        if spike_trains.shape[2] != network.in_features:
            raise ConfigurationError(
                f"spike width {spike_trains.shape[2]} != network input "
                f"{network.in_features}"
            )
        return spike_trains

    def _plan_for(self, network: BinarizedNetwork) -> BitSlicePlan:
        """Memoised bit-slice plan per network object (id + liveness
        checked through a weak reference, so recycled ids cannot alias)."""
        key = id(network)
        cached = self._plan_cache.get(key)
        if cached is not None and cached[0]() is network:
            return cached[1]
        plan = plan_network(network, self.chip_n, self.sc_per_npe)
        # Prune entries whose networks have been collected.
        dead = [k for k, (ref, _) in self._plan_cache.items() if ref() is None]
        for k in dead:
            del self._plan_cache[k]
        self._plan_cache[key] = (weakref.ref(network), plan)
        return plan

    def _compiled_for(self, network: BinarizedNetwork) -> CompiledNetwork:
        """Memoised compiled artifact per network object; on a memo miss
        the content-addressed on-disk :class:`PlanCache` (when enabled)
        is consulted before compiling from scratch, so fresh runtimes --
        and fresh *processes* -- skip planning for known networks."""
        key = id(network)
        cached = self._compiled_memo.get(key)
        if cached is not None and cached[0]() is network:
            return cached[1]
        if self.plan_cache is not None:
            compiled = self.plan_cache.get_or_compile(
                network, self.chip_n, self.sc_per_npe, self.reorder
            )
        else:
            compiled = compile_network(
                network, self.chip_n, self.sc_per_npe, self.reorder
            )
        dead = [k for k, (ref, _) in self._compiled_memo.items()
                if ref() is None]
        for k in dead:
            del self._compiled_memo[k]
        self._compiled_memo[key] = (weakref.ref(network), compiled)
        return compiled

    # -- fast engine ----------------------------------------------------------

    def _infer_fast(self, network, spike_trains) -> RuntimeResult:
        capacity = 1 << self.sc_per_npe
        steps, batch, _ = spike_trains.shape
        rows = spike_trains.reshape(steps * batch, network.in_features)
        if self.use_compiled:
            compiled = self._compiled_for(network)
            decisions, spurious, synops = self._dispatch_rows_compiled(
                compiled, rows
            )
            reloads = compiled.reload_events * steps * batch
        else:
            decisions, spurious, synops = _fast_forward_rows(
                network.layers, rows, capacity, self.reorder
            )
            reloads = self._plan_for(network).reload_events() * steps * batch
        raster = decisions.reshape(steps, batch, network.out_features)
        rates = raster.mean(axis=0) if steps else raster.sum(axis=0)
        return RuntimeResult(
            rates=rates,
            predictions=rates.argmax(axis=1),
            output_raster=raster,
            spurious_decisions=spurious,
            synaptic_ops=synops,
            reload_events=reloads,
        )

    def _want_parallel(self, n_rows: int) -> int:
        """Worker count to use for an ``n_rows`` block (0 = serial)."""
        workers = self.max_workers or 0
        if workers > 1 and n_rows >= 2 * workers:
            return workers
        return 0

    def _dispatch_rows_compiled(self, compiled, rows):
        """Serial or pool execution of the row block through the
        compiled artifact (pool failures degrade to serial)."""
        if self._want_parallel(rows.shape[0]):
            return self._backend_for(compiled).forward(rows)
        return compiled.forward_rows(rows)

    def _backend_for(self, compiled):
        """The lazily-spawned pool backend, rebuilt when the compiled
        plan (or worker count) it serves has changed."""
        from repro.serve.backend import PoolBackend

        backend = self._backend
        if (
            backend is None
            or backend.compiled.fingerprint != compiled.fingerprint
            or backend.workers != self.max_workers
        ):
            self.close()
            backend = PoolBackend(compiled, self.max_workers).open()
            self._backend = backend
        return backend

    # -- behavioural engine ------------------------------------------------------

    def _infer_behavioral(self, network, spike_trains) -> RuntimeResult:
        if not self.reorder:
            raise ConfigurationError(
                "the behavioural engine executes bit-slice plans, which are "
                "always reordered; use engine='fast' for the naive-order "
                "ablation"
            )
        plan = self._plan_for(network)
        from repro.ssnn.verification import verify_plan

        verify_plan(plan, self.sc_per_npe).raise_if_failed()
        config = ChipConfig(
            n=self.chip_n,
            sc_per_npe=self.sc_per_npe,
            max_strength=max(plan.max_strength, 1),
        )
        steps, batch, _ = spike_trains.shape
        raster = np.zeros((steps, batch, network.out_features))
        capacity = config.state_capacity
        # One vectorised forward sweep provides every layer's input block
        # (and the final-sum reference) for the whole batch.
        activity = batch_layer_activity(plan, spike_trains)
        reference = activity[-1]  # (T, batch, out)
        # One elaborated chip, power-on reset between samples: identical
        # semantics to rebuilding, without re-allocating 2n NPEs and n^2
        # crosspoints per sample.
        chip = BehavioralChip(config)
        for b in range(batch):
            chip.reset()
            sample_activity = [block[:, b, :] for block in activity]
            for t in range(steps):
                raster[t, b] = self._run_sample_step(
                    chip, plan, sample_activity, t, capacity
                )
        rates = raster.mean(axis=0) if steps else raster.sum(axis=0)
        return RuntimeResult(
            rates=rates,
            predictions=rates.argmax(axis=1),
            output_raster=raster,
            spurious_decisions=int((raster != reference).sum()),
            synaptic_ops=chip.synaptic_ops,
            reload_events=chip.reload_events,
        )

    def _run_sample_step(self, chip, plan, activity, t, capacity):
        """Execute one time step of the full plan on the behavioural chip,
        returning the final layer's output vector."""
        n = self.chip_n
        outputs_per_layer = [
            np.zeros(shape[1]) for shape in plan.layer_shapes
        ]
        for task in plan.tasks:
            width = task.out_slice[1] - task.out_slice[0]
            if task.first_pass_of_out_slice:
                thresholds = list(
                    plan.network.layers[task.layer_index]
                    .thresholds[task.out_slice[0]:task.out_slice[1]]
                ) + [capacity] * (n - width)
                chip.begin_timestep(thresholds)
            chip.configure_weights(task.strengths.tolist())
            rows = activity[task.layer_index][t][
                task.in_slice[0]:task.in_slice[1]
            ]
            spikes = list(rows > 0) + [False] * (n - len(rows))
            chip.run_pass(task.polarity, spikes)
            # Slice complete when the next task starts a new one; read here
            # on every pass and keep the latest value (cheap, idempotent).
            outputs = chip.read_out()[:width]
            outputs_per_layer[task.layer_index][
                task.out_slice[0]:task.out_slice[1]
            ] = np.asarray(outputs, dtype=np.float64)
        return outputs_per_layer[-1]

"""Supervised persistent shared-memory inference pool (serving tier 2).

The interim multi-core path spawned a ``ProcessPoolExecutor`` *per
``infer()`` call* and pickled the full layer list once per row chunk --
for a serving workload that is pure overhead on the hot path.
:class:`InferencePool` inverts the lifecycle:

* **Workers spawn once.**  Each worker receives the pickled
  :class:`~repro.ssnn.compile.CompiledNetwork` exactly once, at start-up
  (the compile-once artifact is the only thing that ever crosses the
  process boundary by value).
* **Row blocks travel by shared memory.**  Every call writes the input
  rows into a reusable ``multiprocessing.shared_memory`` segment and the
  workers write their decision shards into a shared output segment;
  the per-call pipe traffic is a handful of small tuples -- zero
  pickling of weights or row data.
* **One pipe per worker.**  Each worker owns a duplex
  ``multiprocessing.Pipe``: tasks go down it, results come back up it,
  and the parent waits on all of them with
  ``multiprocessing.connection.wait``.  No queue feeder thread sits
  between a send and its receiver, and the pool starts no thread in
  the parent.
* **Scratch buffers persist.**  The input/output segments are
  preallocated and grown geometrically, so steady-state serving does no
  segment creation at all.

Row shards are independent, so worker count never changes results --
:meth:`InferencePool.infer_rows` is bit-identical to
:meth:`CompiledNetwork.forward_rows` (asserted by
``tests/ssnn/test_pool.py``).

Supervision (see ``docs/SERVING.md`` -- "Failure semantics")
------------------------------------------------------------

SUSHI's own evaluation leans on surviving physical failure modes (JJ
yield, flux trapping); the serving layer extends that discipline to
*process-level* chaos.  A per-slot in-flight ledger, keyed by
``(job, epoch, shard)``, records every task sent and not yet answered,
so the parent always knows which shards a worker holds:

* **Resurrection.**  A dead worker (crash, OOM-kill, SIGKILL) is
  detected by liveness polling during the result wait; the parent
  respawns it into the same slot (fresh pipe, same pickled plan) and
  re-dispatches *only the missing shards* -- the dead slot's ledger
  entries -- to the surviving/respawned workers.  A send to a dead
  worker's pipe is dropped silently; the task stays in the ledger
  until the liveness poll re-dispatches it.  Shard accounting is
  exactly-once per row block per epoch (a ``completed`` map keyed by
  shard index), so recovered results -- and their spurious/synops
  counters -- are provably bit-identical to a serial
  :meth:`CompiledNetwork.forward_rows` run.
* **Frozen workers.**  ``result_timeout_s`` is a *progress* deadline:
  if no shard lands within it, the workers still holding shards are
  force-killed (``SIGKILL`` -- a frozen/SIGSTOPped process ignores
  SIGTERM), respawned and their shards re-dispatched.
* **Poison quarantine.**  A row block whose execution kills workers in
  two separate recovery rounds is quarantined: the pool (already
  restored to full worker count) raises :class:`PoisonBatchError` and
  the caller routes that block to serial execution, keeping the pool
  for subsequent blocks.
* **Segment epoch guard.**  The input segment carries a 16-byte
  ``(job, epoch)`` header; workers validate it before computing and
  re-validate immediately before the only externally visible write.  A
  task surviving from an aborted job (a *zombie*) therefore cannot
  scribble into a successor's buffers.  Vanished/corrupted segments
  surface as retryable shard failures: the parent retires both
  segments, republishes the rows under a bumped epoch, and re-runs the
  whole block.
* **Stale-task drain.**  When a call aborts mid-flight, its tasks
  still in the ledger are left to answer: the next call first waits a
  short grace for them, and anything still unanswered after it forces
  fresh segment names, so a recycled name can never be written by a
  zombie.

Zero-failure overhead of all of the above is a 16-byte header write per
call plus per-shard dict bookkeeping -- gated below 5% against the
pre-supervision pool replica by ``benchmarks/test_supervision_overhead.py``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ssnn.compile import CompiledNetwork

#: Bytes reserved at the head of the input segment for the packed
#: ``(job, epoch)`` guard workers validate before computing/writing.
_HEADER = 16

#: Worker-death recovery rounds tolerated per row block before the block
#: is quarantined as poison ("kills workers twice" -> quarantine).
_MAX_KILL_ROUNDS = 2

#: Segment republish rounds tolerated per row block (vanished/corrupted
#: shared memory) before the call fails.
_MAX_SEGMENT_ROUNDS = 3


class InferencePoolError(RuntimeError):
    """The pool cannot serve (worker died, closed pool, bad shard).

    Derives from :class:`RuntimeError` so existing degrade-to-serial
    ``except`` clauses catch it alongside ``BrokenProcessPool``.
    """


class PoisonBatchError(InferencePoolError):
    """A row block killed pool workers in two recovery rounds.

    The pool has already been restored to its full worker count when
    this is raised; the *block* is the suspect, not the pool.  Callers
    (the runtime and the serving layer) run the quarantined block
    serially -- bit-identical, only slower -- and keep using the pool
    for subsequent blocks.
    """


def _attach_shm(name: str):
    """Attach to an existing shared-memory segment without letting the
    resource tracker adopt it (the creator owns the unlink; a tracked
    attachment in a worker would trigger spurious leak warnings and
    double unlinks at interpreter shutdown)."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Older interpreters: suppress the tracker registration during
        # attach.  (Unregistering *after* the fact would clobber the
        # creator's registration too -- fork-context workers share the
        # tracker daemon with the parent.)
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        try:
            resource_tracker.register = lambda *a, **k: None
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _pack_guard(job: int, epoch: int) -> bytes:
    return struct.pack("<QQ", job & 0xFFFFFFFFFFFFFFFF, epoch)


def _run_task(compiled: CompiledNetwork, slot, task, chaos_hook):
    """Run one shard task; returns its result tuple
    ``(job, epoch, shard, spurious, synops, status, msg)`` with
    ``status`` one of ``"ok"`` (shard done), ``"shm"`` (segment
    vanished -- retryable), ``"stale"`` (epoch guard mismatch -- the
    task outlived its job) or ``"error"`` (execution failed)."""
    (job, epoch, shard, in_name, shape, out_name, start, end) = task
    key = (job, epoch, shard)
    guard = _pack_guard(job, epoch)
    try:
        if chaos_hook is not None:
            chaos_hook(slot, job, epoch, shard, in_name, out_name)
        try:
            shm_in = _attach_shm(in_name)
        except FileNotFoundError:
            return key + (0, 0, "shm", f"input segment {in_name} vanished")
        try:
            if bytes(shm_in.buf[:_HEADER]) != guard:
                return key + (0, 0, "stale", "input epoch guard mismatch")
            rows = np.ndarray(
                tuple(shape), dtype=np.float64,
                buffer=shm_in.buf, offset=_HEADER,
            )
            decisions, spurious, synops = compiled.forward_rows(
                rows[start:end]
            )
            del rows
            try:
                shm_out = _attach_shm(out_name)
            except FileNotFoundError:
                return key + (0, 0, "shm",
                              f"output segment {out_name} vanished")
            try:
                # Re-validate immediately before the only externally
                # visible write: a zombie task of an aborted job must
                # never scribble into a successor's buffers.
                if bytes(shm_in.buf[:_HEADER]) != guard:
                    return key + (0, 0, "stale",
                                  "input epoch guard changed mid-task")
                out = np.ndarray(
                    (shape[0], compiled.out_features),
                    dtype=np.float64,
                    buffer=shm_out.buf,
                )
                out[start:end] = decisions
                del out
            finally:
                shm_out.close()
        finally:
            shm_in.close()
        return key + (spurious, synops, "ok", None)
    except Exception as exc:  # surface the traceback to the parent
        import traceback

        return key + (0, 0, "error", f"{exc}\n{traceback.format_exc()}")


def _worker_main(slot, payload, conn, chaos_hook=None) -> None:
    """Worker loop: deserialize the compiled plan once, then answer row
    shard tasks arriving on this slot's pipe until the ``None`` sentinel
    (or the parent's end closing)."""
    compiled: CompiledNetwork = pickle.loads(payload)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        conn.send(_run_task(compiled, slot, task, chaos_hook))


def _release(shm) -> None:
    """Close and unlink one segment; a segment already unlinked (a
    purged ``/dev/shm``) or still viewed is left to the OS."""
    try:
        shm.close()
        shm.unlink()
    except (OSError, BufferError):
        pass


def _shutdown(procs, conns, segments) -> None:
    """Finalizer-safe teardown: sentinel the workers, reap them, unlink
    any surviving shared-memory segments.  ``procs`` / ``conns`` are
    mutated in place by respawns, so the finalizer always sees the
    current generation."""
    for conn in list(conns):
        try:
            conn.send(None)
        except OSError:  # worker already gone (or its pipe closed)
            pass
    deadline = time.monotonic() + 2.0
    for proc in list(procs):
        try:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()  # SIGKILL: reaps frozen (SIGSTOPped) workers too
                proc.join(timeout=1.0)
        except (OSError, ValueError):
            pass
    for conn in list(conns):
        conn.close()
    for shm in list(segments):
        if shm is not None:
            _release(shm)
    segments.clear()


class InferencePool:
    """A supervised, persistent worker pool executing one compiled plan.

    Args:
        compiled: The :class:`~repro.ssnn.compile.CompiledNetwork` every
            worker executes (shipped once, at spawn).
        workers: Worker process count (>= 1).
        start_method: ``multiprocessing`` start method (``None`` = the
            platform default; ``fork`` on Linux).
        result_timeout_s: Progress deadline: maximum wait without any
            shard landing before the workers still holding shards are
            presumed frozen, force-killed and respawned.
        chaos_hook: Optional picklable callable
            ``(slot, job, epoch, shard, in_name, out_name)`` executed in
            the worker before each task -- fault-injection
            instrumentation for the chaos harness
            (:mod:`repro.harness.chaos`); leave ``None`` in production.

    Thread safety: one in-flight :meth:`infer_rows` at a time (guarded
    by an internal lock) -- the serving layer funnels batches through a
    single dispatcher thread anyway.

    Supervision surface: :meth:`alive_workers`, :attr:`restarts`,
    :meth:`ensure_workers` (respawn any dead workers between calls) and
    :class:`PoisonBatchError` for quarantined row blocks.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        workers: int = 2,
        start_method: Optional[str] = None,
        result_timeout_s: float = 60.0,
        chaos_hook: Optional[Callable] = None,
    ):
        import multiprocessing as mp

        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if result_timeout_s <= 0:
            raise ConfigurationError("result_timeout_s must be > 0")
        self.compiled = compiled
        self.workers = workers
        self.result_timeout_s = result_timeout_s
        self._ctx = mp.get_context(start_method)
        self._lock = threading.Lock()
        self._jobs = itertools.count()
        self._segments: List = []  # [input shm, output shm] when allocated
        self._segment_gen = itertools.count()
        self._closed = False
        self._restarts = 0
        self._rr = 0  # round-robin dispatch cursor
        self._chaos_hook = chaos_hook
        self._payload = pickle.dumps(
            compiled, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._procs: List = []
        self._conns: List = []  # parent end of each slot's pipe
        # Per-slot in-flight ledger: tasks sent and not yet answered,
        # keyed by ``(job, epoch, shard)``.
        self._inflight: List[Dict[Tuple[int, int, int], tuple]] = []
        for slot in range(workers):
            proc, conn = self._spawn(slot)
            self._procs.append(proc)
            self._conns.append(conn)
            self._inflight.append({})
        # GC / interpreter-exit safety net; explicit close() is preferred.
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns, self._segments
        )

    # -- workers -------------------------------------------------------------

    def _spawn(self, slot: int):
        """Start one worker into ``slot`` with a fresh duplex pipe."""
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, self._payload, child, self._chaos_hook),
            daemon=True,
            name=f"sushi-infer-{slot}",
        )
        proc.start()
        child.close()  # the worker holds the only copy of its end
        return proc, conn

    def _respawn_locked(self, slot: int, force_kill: bool = False) -> List:
        """Replace the worker in ``slot`` (dead or presumed frozen) with
        a fresh process + pipe.  Returns the tasks the old worker never
        answered (its ledger) so the caller can re-dispatch them."""
        old_proc = self._procs[slot]
        try:
            if force_kill and old_proc.is_alive():
                old_proc.kill()  # SIGKILL beats SIGSTOP; terminate() doesn't
            old_proc.join(timeout=1.0)
        except (OSError, ValueError):
            pass
        self._conns[slot].close()
        lost = list(self._inflight[slot].values())
        self._inflight[slot].clear()
        self._procs[slot], self._conns[slot] = self._spawn(slot)
        self._restarts += 1
        return lost

    def _receive_locked(self, timeout: float) -> List[tuple]:
        """Results that land within ``timeout`` (empty = ``timeout`` of
        silence), each struck from its slot's ledger.  A pipe at EOF
        (its worker died) is closed and left to the liveness poll."""
        from multiprocessing.connection import wait

        deadline = time.monotonic() + timeout
        results: List[tuple] = []
        while not results:
            ready = wait([c for c in self._conns if not c.closed],
                         max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            for conn in ready:
                slot = self._conns.index(conn)
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    continue
                self._inflight[slot].pop(result[:3], None)
                results.append(result)
        return results

    @property
    def _stale_tasks(self) -> int:
        """Tasks sent but not yet answered; between calls these are
        exactly the leftovers of an aborted call."""
        return sum(map(len, self._inflight))

    def _supervise_locked(self) -> None:
        """Between calls: resurrect any worker that died while idle
        (whatever it still held belonged to an aborted call)."""
        for slot, proc in enumerate(self._procs):
            if not proc.is_alive():
                self._respawn_locked(slot)

    def ensure_workers(self) -> int:
        """Respawn any dead workers and return the alive count (the
        serving layer's health probe)."""
        with self._lock:
            if self._closed:
                return 0
            self._supervise_locked()
            return self.alive_workers()

    # -- buffers -------------------------------------------------------------

    def _segment(self, index: int, nbytes: int):
        """Reusable shared segment ``index`` (0 = input, 1 = output),
        grown geometrically when too small.  Names embed a generation
        counter, so a retired name is never reissued."""
        from multiprocessing import shared_memory

        while len(self._segments) <= index:
            self._segments.append(None)
        current = self._segments[index]
        if current is not None and current.size >= nbytes:
            return current
        if current is not None:
            _release(current)
        size = max(nbytes, 1)
        if current is not None:
            size = max(size, 2 * current.size)
        name = (f"sushi-pool-{os.getpid()}-{id(self) & 0xFFFFFF:x}-"
                f"{index}-{next(self._segment_gen)}")
        self._segments[index] = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        return self._segments[index]

    def _retire_segments_locked(self) -> None:
        """Unlink both segments so the next call publishes under fresh
        names.  The input header is zeroed first, so any zombie task
        still attached fails its pre-write guard re-validation instead
        of scribbling."""
        for index, shm in enumerate(self._segments):
            if shm is None:
                continue
            if index == 0:
                shm.buf[:_HEADER] = b"\x00" * _HEADER
            _release(shm)
            self._segments[index] = None

    def _drain_stale_locked(self) -> None:
        """Resolve tasks left over from an aborted call before the
        segments are reused (see module docstring)."""
        # 1. Give in-flight zombies a short grace to report.
        deadline = time.monotonic() + 0.25
        while self._stale_tasks > 0 and time.monotonic() < deadline:
            self._receive_locked(timeout=0.05)
        # 2. Anything still unanswered may be executing against the
        # current segments: retire them, so a zombie write can only land
        # in memory nothing will ever read again.
        if self._stale_tasks > 0:
            self._retire_segments_locked()
            for inflight in self._inflight:
                inflight.clear()

    @staticmethod
    def _shards(n_rows: int, parts: int) -> List[Tuple[int, int]]:
        """Balanced contiguous row ranges (like ``np.array_split``)."""
        parts = max(1, min(parts, n_rows))
        base, extra = divmod(n_rows, parts)
        ranges = []
        start = 0
        for i in range(parts):
            end = start + base + (1 if i < extra else 0)
            ranges.append((start, end))
            start = end
        return ranges

    def _next_slot(self) -> int:
        slot = self._rr
        self._rr = (self._rr + 1) % self.workers
        return slot

    # -- execution -----------------------------------------------------------

    def infer_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Run a row block through the pool.

        Returns ``(decisions, spurious, synops)`` bit-identical to
        ``self.compiled.forward_rows(rows)`` -- including across worker
        deaths, freezes and segment loss, which are recovered
        transparently.  Raises :class:`PoisonBatchError` when the block
        itself keeps killing workers (run it serially) and
        :class:`InferencePoolError` for unrecoverable failures.
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.compiled.in_features:
            raise ConfigurationError(
                f"expected (batch, {self.compiled.in_features}) rows, "
                f"got {rows.shape}"
            )
        if rows.shape[0] == 0:
            return (
                np.zeros((0, self.compiled.out_features)), 0, 0,
            )
        with self._lock:
            if self._closed:
                raise InferencePoolError("inference pool is closed")
            self._supervise_locked()
            self._drain_stale_locked()
            return self._run_block_locked(rows)

    def _run_block_locked(self, rows: np.ndarray):
        n_rows = rows.shape[0]
        out_shape = (n_rows, self.compiled.out_features)
        job = next(self._jobs)
        epoch = 0
        shards = self._shards(n_rows, self.workers)
        state: Dict[str, object] = {"in": None, "out": None}
        completed: Dict[int, Tuple[int, int]] = {}  # exactly-once ledger
        kill_rounds = 0
        segment_rounds = 0

        def publish() -> None:
            """(Re)write rows + ``(job, epoch)`` guard into the current
            segments (allocating/regrowing as needed)."""
            shm_in = self._segment(0, _HEADER + rows.nbytes)
            shm_out = self._segment(1, int(np.prod(out_shape)) * 8)
            np.ndarray(
                rows.shape, np.float64, buffer=shm_in.buf, offset=_HEADER
            )[...] = rows
            shm_in.buf[:_HEADER] = _pack_guard(job, epoch)
            state["in"], state["out"] = shm_in, shm_out

        def dispatch(indices: Sequence[int]) -> None:
            for shard in indices:
                slot = self._next_slot()
                start, end = shards[shard]
                task = (job, epoch, shard, state["in"].name,
                        tuple(rows.shape), state["out"].name, start, end)
                self._inflight[slot][task[:3]] = task
                try:
                    self._conns[slot].send(task)
                except OSError:
                    # A dead worker's pipe refuses the task; it stays in
                    # the ledger and the liveness poll re-dispatches it.
                    pass

        def recover_workers(slots: Sequence[int], force_kill: bool) -> None:
            """Respawn the given slots, re-dispatching only the missing
            shards they held.  Second recovery round -> poison."""
            nonlocal kill_rounds
            kill_rounds += 1
            lost = []
            for slot in sorted(set(slots)):
                lost += self._respawn_locked(slot, force_kill=force_kill)
            if kill_rounds >= _MAX_KILL_ROUNDS:
                # The pool is whole again; the block is the suspect.
                raise PoisonBatchError(
                    f"row block ({n_rows} rows) killed pool workers in "
                    f"{kill_rounds} recovery rounds; quarantined -- run "
                    "this block serially"
                )
            dispatch(sorted(
                task[2] for task in lost
                if task[:2] == (job, epoch) and task[2] not in completed
            ))

        def republish(reason: str) -> None:
            """Segment vanished/corrupted: fresh names, bumped epoch,
            rerun the whole block (the ledger restarts with it)."""
            nonlocal epoch, segment_rounds
            segment_rounds += 1
            if segment_rounds >= _MAX_SEGMENT_ROUNDS:
                raise InferencePoolError(
                    f"shared-memory segments failed {segment_rounds} "
                    f"times for one row block:\n{reason}"
                )
            epoch += 1
            completed.clear()
            self._retire_segments_locked()
            publish()
            dispatch(range(len(shards)))

        publish()
        dispatch(range(len(shards)))
        progress_deadline = time.monotonic() + self.result_timeout_s
        while len(completed) < len(shards):
            results = self._receive_locked(timeout=0.05)
            if not results:
                dead = [slot for slot, proc in enumerate(self._procs)
                        if not proc.is_alive()]
                if dead:
                    recover_workers(dead, force_kill=False)
                elif time.monotonic() > progress_deadline:
                    # The workers still holding this epoch's shards.
                    frozen = [
                        slot for slot, inflight in enumerate(self._inflight)
                        if any(key[:2] == (job, epoch) for key in inflight)
                    ]
                    recover_workers(frozen, force_kill=True)
                else:
                    continue
                progress_deadline = time.monotonic() + self.result_timeout_s
                continue
            for (rjob, repoch, shard, spurious, synops, status,
                 message) in results:
                if (rjob, repoch) != (job, epoch) or shard in completed:
                    # Leftover of an aborted earlier call, superseded
                    # epoch or duplicate delivery.
                    continue
                if status == "ok":
                    completed[shard] = (spurious, synops)
                elif status in ("shm", "stale"):
                    republish(str(message))
                else:
                    raise InferencePoolError(
                        f"inference pool worker failed:\n{message}"
                    )
                progress_deadline = time.monotonic() + self.result_timeout_s
        decisions = np.array(
            np.ndarray(out_shape, np.float64, buffer=state["out"].buf),
            copy=True,
        )
        total_spurious = sum(entry[0] for entry in completed.values())
        total_synops = sum(entry[1] for entry in completed.values())
        return decisions, total_spurious, total_synops

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        """Workers respawned over the pool's lifetime (0 = no failures)."""
        return self._restarts

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def close(self) -> None:
        """Shut the workers down and release the shared segments.
        Idempotent, safe to call from ``finally`` blocks, and safe to
        race an in-flight :meth:`infer_rows` (it finishes first)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()

    def __enter__(self) -> "InferencePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.alive_workers()} alive"
        return (f"<InferencePool workers={self.workers} ({state}) "
                f"restarts={self._restarts} "
                f"plan={self.compiled.fingerprint[:12]}>")

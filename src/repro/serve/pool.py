"""A spawn-based worker pool sharding query batches across processes.

The query side of the paper is embarrassingly parallel — every point query
is one merge over two frozen label slices — but CPython threads cannot
exploit that (the GIL serialises the merge kernels; see
:class:`~repro.core.parallel.ThreadBackend`, which the build side only ever
used as an honest simulation).  Processes can: :class:`WorkerPool` spawns N
workers that each attach the index's shared-memory segment at startup
(:mod:`repro.serve.shm` — the label arrays are mapped, not copied) and run
the vectorized batch kernel on the slice of each batch the parent hands
them.

Batches are sharded contiguously (``ceil(B / N)`` pairs per worker) and
reassembled in submission order, so answers are **identical** to a single
``query_batch`` call on the underlying store — only wall-clock changes.

The pool detects worker crashes (a died process, a broken pipe) and
respawns the slot automatically, resubmitting the lost shard.  The
``max_respawns`` budget bounds *consecutive* crashes of one slot — it
resets every time the slot completes a batch — so isolated crashes spread
over a long-lived server's uptime never exhaust it.  A slot that *does*
exhaust its streak budget is **retired** (quarantined permanently) rather
than poisoning every later request with a raise: subsequent batches
re-shard over the surviving workers, and when the last slot is gone the
pool degrades to answering in-process on the parent's attached segment —
slower, still bit-identical.  :meth:`health` reports the resulting state
(``ok``/``degraded``/``critical``) for load balancers; ``stats()`` reports
per-worker throughput, respawn and retirement counters.

Failure schedules for chaos tests come from :mod:`repro.serve.faults`: the
:class:`~repro.serve.faults.FaultPlan` handed to the constructor (or read
from ``REPRO_FAULTS``) ships to every worker and fires deterministically
inside the serve loop.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Iterable, Sequence

import numpy as np

from repro.core import store as store_module
from repro.core.compact import CompactLabelIndex
from repro.core.engine import Answers, merge_answers, results_of, validate_pairs
from repro.core.queries import SPCResult
from repro.digraph.labels import CompactDirectedLabelIndex
from repro.errors import QueryError, ServeError
from repro.serve.faults import FaultInjected, FaultPlan
from repro.serve.router import GatherEvaluator, split_by_home_shard
from repro.serve.shm import ShmIndexSegment, ShmSegmentFleet

__all__ = ["WorkerPool"]

#: Seconds a freshly spawned worker gets to attach and report ready.
_STARTUP_TIMEOUT = 60.0
#: Poll interval while waiting on a worker's result pipe.
_POLL_SECONDS = 0.05
#: Seconds to wait for an abandoned shard's reply before replacing the
#: worker outright (see :meth:`WorkerPool._quarantine`).
_DRAIN_TIMEOUT = 2.0
#: Upper bound (seconds) of the uniformly jittered pause before the one
#: bounded dispatch retry on a transient pipe error.
_RETRY_JITTER = 0.05


class _KernelFailure(ServeError):
    """A worker's kernel raised; its reply was consumed, the pipe is clean."""


class _SlotRetired(ServeError):
    """A slot exhausted its crash budget and was quarantined permanently.

    Internal control flow only: dispatch catches it per shard and routes
    the orphaned work to surviving slots or the in-process fallback — it
    must never escape :meth:`WorkerPool.query_batch`.
    """


def _worker_main(
    manifest: dict, conn: Connection, worker_index: int, plan: FaultPlan
) -> None:
    """Worker process entry point: attach, then serve shards forever.

    Protocol over the duplex pipe: parent sends an ``(s, t)`` int64 array
    (one shard), a ``(shard, trace_id)`` tuple when the batch carries a
    trace, or ``None`` (shutdown); worker answers
    ``("ok", answers, kernel_seconds)`` where ``answers`` is the join's
    ``(B, 2)`` int64 array of ``(dist, count)`` rows, straight from the
    kernel (exact Python-int tuples only when a count exceeds int64) —
    with the trace id echoed as a fourth element when the task carried
    one — or ``("err", message)`` when the kernel raised.  Untraced
    batches keep the original 3-element shape, so mixed-version
    parent/worker pairs stay compatible.

    ``plan`` is the parent's resolved :class:`FaultPlan`; ``batch_number``
    counts this process's life only (a respawn starts over at 1), so a
    ``crash_on_batch`` plan keeps firing on every successor — the
    sustained-failure scenario chaos runs measure availability under.

    ``manifest`` is either one segment's manifest (the single-index pool)
    or a **fleet manifest** annotated with the shard list this worker owns
    (``"hot"``): the worker then attaches only its own shards in shared
    memory and serves through a :class:`~repro.serve.router.GatherEvaluator`
    that reaches foreign shards via their memory-mapped spill files — the
    pipe protocol is identical either way.
    """
    segment: ShmIndexSegment | None = None
    fleet: ShmSegmentFleet | None = None
    evaluator: "GatherEvaluator | CompactLabelIndex | CompactDirectedLabelIndex"
    if store_module.is_fleet_manifest(manifest):
        fleet = ShmSegmentFleet.attach(manifest)
        evaluator = GatherEvaluator(fleet)
    else:
        segment = ShmIndexSegment.attach(manifest)
        evaluator = segment.store
    conn.send(("ready", os.getpid()))
    batch_number = 0
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:  # parent went away: exit quietly
                break
            if task is None:
                break
            trace_id = None
            if isinstance(task, tuple):
                task, trace_id = task
            batch_number += 1
            if plan.should_crash(worker_index, batch_number):
                # simulate a hard crash (segfault/OOM-kill shape): no reply,
                # no cleanup — the parent must detect the dead process
                os._exit(17)
            if plan.should_drop_pipe(worker_index, batch_number):
                # the other failure shape: the pipe dies (EOF at the
                # parent) while the process may linger a moment
                conn.close()
                os._exit(0)
            try:
                delay = plan.sleep_seconds(worker_index)
                if delay:
                    time.sleep(delay)
                if plan.should_poison(worker_index, batch_number):
                    raise FaultInjected(
                        f"poisoned shard (worker {worker_index}, batch {batch_number})"
                    )
                start = time.perf_counter()
                payload = evaluator.answer_batch(task)
                elapsed = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                if trace_id is None:
                    conn.send(("ok", payload, elapsed))
                else:
                    conn.send(("ok", payload, elapsed, trace_id))
    finally:
        del evaluator  # drop the shm views before closing the mappings
        conn.close()
        if fleet is not None:
            fleet.close()
        if segment is not None:
            segment.close()


@dataclass
class _WorkerSlot:
    """One worker process and its lifetime accounting."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: object
    pid: int
    #: fleet mode only: the shard indices this worker owns (attached hot
    #: when published); empty in single-segment mode.
    shards: tuple[int, ...] = ()
    queries: int = 0
    batches: int = 0
    kernel_seconds: float = 0.0
    #: lifetime respawn count (reporting only — never limits anything).
    respawns: int = 0
    #: consecutive crashes since the slot last completed a batch; this is
    #: what ``max_respawns`` bounds, so the budget caps crash *loops*
    #: rather than total uptime (a long-lived server survives arbitrarily
    #: many isolated crashes spread across its lifetime).
    crash_streak: int = 0
    #: parent-initiated replacements after an abandoned shard (see
    #: :meth:`WorkerPool._quarantine`); separate from the crash budget.
    quarantines: int = 0
    #: permanently quarantined after exhausting the crash-streak budget:
    #: the slot no longer receives shards and the pool serves degraded.
    retired: bool = False
    #: pairs of the shard currently in flight on this slot's pipe (0 when
    #: idle) — the per-worker queue-depth gauge surfaced in ``stats()``.
    pending: int = 0
    lifetime_pids: list[int] = field(default_factory=list)


class WorkerPool:
    """N spawn-based processes serving ``query_batch`` over one shm segment.

    ``counter`` is anything :meth:`ShmIndexSegment.publish` accepts (an
    index facade or a flat label store); pass ``segment=`` instead to share
    one already-published segment between pools.  The pool owns segments it
    publishes and unlinks them on :meth:`close`.

    With ``shards > 0`` (or an explicit ``fleet=``) the pool serves a
    **sharded** index instead: the counter is partitioned through
    :class:`~repro.serve.shm.ShmSegmentFleet`, workers become shard owners
    (each attaches only its own shards hot), batches are split by home
    shard and scatter/gathered back in submission order — bit-identical to
    single-segment serving.  ``cold`` names shard indices kept out of
    shared memory entirely (served from their memory-mapped spill files),
    which is what lets the fleet's total label bytes exceed any single
    worker's attached shm.

    Thread-safe: one internal lock serialises batch dispatch, so the pool
    can sit behind the admission-batching services (their executor threads
    may overlap).  Parallelism happens *inside* a batch, across workers.
    """

    def __init__(
        self,
        counter: object = None,
        workers: int = 2,
        *,
        segment: ShmIndexSegment | None = None,
        fleet: ShmSegmentFleet | None = None,
        shards: int = 0,
        cold: Iterable[int] = (),
        max_respawns: int = 1,
        startup_timeout: float = _STARTUP_TIMEOUT,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self._owns_segment = False
        self._owns_fleet = False
        self._segment: ShmIndexSegment | None = None
        self._fleet: ShmSegmentFleet | None = None
        if fleet is not None or shards > 0:
            if segment is not None:
                raise ServeError(
                    "pass either segment= (single index) or shards=/fleet= "
                    "(sharded), not both"
                )
            if fleet is None:
                if counter is None:
                    raise ServeError("a sharded WorkerPool needs a counter or a fleet")
                fleet = ShmSegmentFleet.publish(counter, shards=shards, cold=cold)
                self._owns_fleet = True
            self._fleet = fleet
            self._n = fleet.n
            self._local_eval: (
                "GatherEvaluator | CompactLabelIndex | CompactDirectedLabelIndex"
            ) = GatherEvaluator(fleet)
        else:
            if segment is None:
                if counter is None:
                    raise ServeError("WorkerPool needs a counter or a published segment")
                segment = ShmIndexSegment.publish(counter)
                self._owns_segment = True
            self._segment = segment
            self._n = segment.store.n
            self._local_eval = segment.store
        self.workers = int(workers)
        self.max_respawns = int(max_respawns)
        self._startup_timeout = float(startup_timeout)
        #: resolved once here and shipped to every worker: children never
        #: re-read the environment, so the plan the pool logs is the plan
        #: the workers execute
        self._faults = faults if faults is not None else FaultPlan.from_env()
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._closed = False
        self._batches = 0
        self._queries = 0
        self._retries = 0
        self._fallback_batches = 0
        self._fallback_queries = 0
        shard_count = self._fleet.shard_count if self._fleet is not None else 0
        self._shard_queries = [0] * shard_count
        self._shard_fallback = [0] * shard_count
        #: optional event sink (duck-typed :class:`repro.obs.trace.Tracer`):
        #: worker lifecycle transitions — respawns, quarantines,
        #: retirements, fallback shards — land in its event ring.  Settable
        #: after construction; ``None`` keeps the pool observability-free.
        self.tracer: object = None
        try:
            # start every process first, then collect the handshakes:
            # workers attach (and import) concurrently instead of paying
            # N spawn latencies back to back
            self._slots = []
            for index in range(self.workers):
                process, conn = self._launch(index)
                self._slots.append(
                    _WorkerSlot(
                        index=index,
                        process=process,
                        conn=conn,
                        pid=-1,
                        shards=self._owned_shards(index),
                    )
                )
            for slot in self._slots:
                slot.pid = self._handshake(slot.index, slot.process, slot.conn)
                slot.lifetime_pids.append(slot.pid)
        except BaseException:
            self._shutdown(force=True)
            raise

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _note(self, kind: str, **fields: object) -> None:
        """Emit one lifecycle event to the attached tracer, if any."""
        tracer = self.tracer
        if tracer is not None:
            tracer.event(kind, **fields)  # type: ignore[attr-defined]

    def _owned_shards(self, index: int) -> tuple[int, ...]:
        """The shard indices worker ``index`` owns (empty in single mode).

        With at least one worker per shard, each worker owns exactly one
        shard (surplus workers double up as replicas of the same shard);
        with fewer workers than shards, ownership wraps so every shard
        still has exactly one owner.  Either way the union of all owners
        covers the fleet, so no shard is reachable only via fallback.
        """
        if self._fleet is None:
            return ()
        k = self._fleet.shard_count
        if self.workers >= k:
            return (index % k,)
        return tuple(j for j in range(k) if j % self.workers == index)

    def _worker_manifest(self, index: int) -> dict:
        """What worker ``index`` attaches: a segment or its slice of a fleet."""
        if self._fleet is not None:
            return dict(
                self._fleet.manifest, hot=list(self._owned_shards(index))
            )
        assert self._segment is not None
        return self._segment.manifest

    def _launch(self, index: int) -> "tuple[BaseProcess, Connection]":
        """Start one worker process; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._worker_manifest(index), child_conn, index, self._faults),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _handshake(self, index: int, process: BaseProcess, conn: Connection) -> int:
        """Wait for a launched worker's ready message; returns its pid."""
        if not conn.poll(self._startup_timeout):
            process.terminate()
            process.join(timeout=5.0)
            raise ServeError(
                f"worker {index} did not report ready within "
                f"{self._startup_timeout:.0f}s (exitcode={process.exitcode})"
            )
        try:
            message = conn.recv()
        except EOFError as exc:
            process.join(timeout=5.0)
            raise ServeError(
                f"worker {index} died during startup (exitcode={process.exitcode})"
            ) from exc
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise ServeError(f"worker {index} sent unexpected handshake {message!r}")
        return int(message[1])

    def _spawn_slot(self, index: int, previous: "_WorkerSlot | None" = None) -> _WorkerSlot:
        process, conn = self._launch(index)
        pid = self._handshake(index, process, conn)
        slot = previous if previous is not None else _WorkerSlot(
            index=index, process=process, conn=conn, pid=pid
        )
        slot.process = process
        slot.conn = conn
        slot.pid = pid
        slot.lifetime_pids.append(pid)
        return slot

    def _retire(self, slot: _WorkerSlot, why: str) -> None:
        """Quarantine a slot permanently: no more shards, process reaped.

        Retirement is the graceful-degradation alternative to raising: one
        crash-looping worker must not turn every subsequent request into a
        500 when the other slots (or the parent's own attached store) can
        still answer it.
        """
        slot.retired = True
        slot.pending = 0
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=5.0)
        self._note("worker_retired", worker=slot.index, why=why)

    def _respawn(self, slot: _WorkerSlot, why: str) -> None:
        """Replace a crashed worker, up to ``max_respawns`` times *in a row*.

        The budget is a crash-streak bound, reset whenever the slot
        completes a batch: it exists to stop a worker that dies instantly
        on every respawn from looping forever, not to kill a server whose
        slot crashed twice a week apart.  An exhausted streak (or a respawn
        that itself fails to come up) retires the slot and raises
        :class:`_SlotRetired`, which dispatch absorbs by re-routing the
        shard — never surfacing to the caller as an error.
        """
        if slot.crash_streak >= self.max_respawns:
            self._retire(slot, why)
            raise _SlotRetired(
                f"worker {slot.index} (pid {slot.pid}) retired after "
                f"{slot.crash_streak} consecutive respawn(s): {why}"
            )
        slot.crash_streak += 1
        slot.respawns += 1
        self._note("worker_respawn", worker=slot.index, why=why)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        slot.process.join(timeout=5.0)
        try:
            self._spawn_slot(slot.index, previous=slot)
        except ServeError as exc:
            # the replacement never reported ready: the slot is not coming
            # back (import failure, OOM, hostile fault plan) — degrade
            self._retire(slot, f"respawn failed ({exc})")
            raise _SlotRetired(
                f"worker {slot.index} retired: respawn failed ({exc})"
            ) from exc

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _send_shard(
        self, slot: _WorkerSlot, shard: np.ndarray, trace_id: "str | None" = None
    ) -> None:
        """Hand one shard to a worker, respawning through dead processes.

        A pipe error with the process still alive gets one bounded,
        jittered retry before being treated as a crash: transient EINTR/
        buffer hiccups should not burn a slot's crash budget, and the
        jitter keeps N dispatch threads from hammering the same instant.
        """
        task: object = shard if trace_id is None else (shard, trace_id)
        retried = False
        while True:
            if not slot.process.is_alive():
                self._respawn(slot, "process found dead before dispatch")
            try:
                slot.conn.send(task)
                slot.pending = len(shard)
                return
            except (BrokenPipeError, OSError) as exc:
                if not retried and slot.process.is_alive():
                    retried = True
                    self._retries += 1
                    time.sleep(random.uniform(0.0, _RETRY_JITTER))
                    continue
                self._respawn(slot, f"pipe broke during dispatch ({exc})")

    def _recv_shard(
        self, slot: _WorkerSlot, shard: np.ndarray, trace_id: "str | None" = None
    ) -> "tuple[Answers, float]":
        """Collect one shard's ``(payload, kernel_seconds)``, resubmitting
        through a crash."""
        while True:
            if slot.conn.poll(_POLL_SECONDS):
                try:
                    message = slot.conn.recv()
                except (EOFError, OSError) as exc:
                    self._respawn(slot, f"pipe broke awaiting results ({exc})")
                    self._send_shard(slot, shard, trace_id)
                    continue
                if message[0] == "err":
                    slot.pending = 0
                    raise _KernelFailure(
                        f"worker {slot.index} kernel failed: {message[1]}"
                    )
                payload, elapsed = message[1], message[2]
                slot.queries += len(shard)
                slot.batches += 1
                slot.kernel_seconds += float(elapsed)
                slot.pending = 0
                # a completed batch proves the worker healthy: reopen the
                # full respawn budget for the *next* crash streak
                slot.crash_streak = 0
                return payload, float(elapsed)
            if not slot.process.is_alive():
                self._respawn(
                    slot,
                    f"process exited mid-batch (exitcode={slot.process.exitcode})",
                )
                self._send_shard(slot, shard, trace_id)

    def _quarantine(self, slot: _WorkerSlot) -> None:
        """A batch failed elsewhere while this slot's reply is outstanding.

        The reply must never leak into a later batch (it would be returned
        as *that* batch's answers — silent misalignment), so either drain
        it promptly or replace the worker **and its pipe**.  Terminating
        the process alone is not enough: a reply already sitting in the OS
        pipe buffer survives the sender.
        """
        try:
            if slot.conn.poll(_DRAIN_TIMEOUT):
                slot.conn.recv()
                slot.pending = 0
                return
        except (EOFError, OSError):
            pass
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=5.0)
        # parent-initiated replacement: tracked separately from the crash
        # budget (the worker did nothing wrong), but visible in stats()
        slot.quarantines += 1
        slot.pending = 0
        self._note("worker_quarantined", worker=slot.index)
        try:
            self._spawn_slot(slot.index, previous=slot)
        except ServeError:  # pragma: no cover - left dead; next dispatch raises
            pass

    def _local_payload(
        self,
        shard: np.ndarray,
        rows: "list[dict] | None" = None,
        shard_index: int = -1,
    ) -> Answers:
        """Answer a sub-batch in-process on the parent's own evaluator.

        The degradation endpoint: bit-identical to a worker's kernel (the
        same store in single-segment mode, a parent-side
        :class:`~repro.serve.router.GatherEvaluator` over the same fleet in
        sharded mode), just on the dispatching thread.  Returns the same
        answer rows a worker would send.
        """
        self._fallback_queries += len(shard)
        if 0 <= shard_index < len(self._shard_fallback):
            self._shard_fallback[shard_index] += len(shard)
        self._note("fallback_shard", pairs=len(shard), shard=shard_index)
        start = time.perf_counter()
        payload = self._local_eval.answer_batch(shard)
        if rows is not None:
            row = {
                "worker": -1,
                "pairs": len(shard),
                "kernel_ms": round((time.perf_counter() - start) * 1e3, 3),
                "pipe_ms": 0.0,
                "source": "fallback",
            }
            if self._fleet is not None:
                row["shard"] = shard_index
            rows.append(row)
        return payload

    def query_batch(
        self, pairs: Sequence[tuple[int, int]], trace: object = None
    ) -> list[SPCResult]:
        """Evaluate a workload across the live workers, as result objects.

        :meth:`answer_batch` wrapped into one
        :class:`~repro.core.queries.SPCResult` per pair, in input order.
        """
        pairs_arr = validate_pairs(pairs, self._n)
        return results_of(pairs_arr, self.answer_batch(pairs_arr, trace=trace))

    def answer_batch(
        self, pairs: Sequence[tuple[int, int]], trace: object = None
    ) -> Answers:
        """``(dist, count)`` rows of a workload sharded across the live
        workers, in input order.

        The batch is split contiguously into ``ceil(B / live)``-sized
        shards, one per surviving (non-retired) worker, evaluated
        concurrently, and reassembled by batch position into one int64
        array — answers are identical to one ``query_batch`` call on the
        published store.  A sharded pool routes each pair to its home
        shard's live owners first (see :meth:`_plan`); a shard whose
        owners all retired is answered by the parent's gather evaluator,
        per shard.  A slot retiring mid-batch (crash streak exhausted)
        hands its orphaned sub-batch to the in-process fallback instead of
        failing the request; with every slot retired the whole batch runs
        in-process and the pool reports ``critical`` health.

        ``trace`` is an optional :class:`repro.obs.trace.TraceContext`:
        when given, its id rides the pipe protocol to every worker and
        back, per-shard worker attribution lands in the trace's
        ``shards`` annotation, and ``kernel`` / ``pipe`` spans record the
        critical-path worker kernel time and the residual round-trip
        overhead.
        """
        pairs_arr = validate_pairs(pairs, self._n)
        if len(pairs_arr) == 0:
            return np.empty((0, 2), dtype=np.int64)
        rows: "list[dict] | None" = [] if trace is not None else None
        trace_id = getattr(trace, "trace_id", None) if trace is not None else None
        dispatch_start = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ServeError("WorkerPool is closed")
            live = [slot for slot in self._slots if not slot.retired]
            if not live:
                # the whole pool is gone: serve degraded rather than dead
                self._fallback_batches += 1
                positions_all = np.arange(len(pairs_arr), dtype=np.int64)
                payloads: list[tuple[np.ndarray, Answers]] = [
                    (positions_all, self._local_payload(pairs_arr, rows))
                ]
            else:
                payloads = self._dispatch_live(
                    pairs_arr, live, rows=rows, trace_id=trace_id
                )
            self._batches += 1
            self._queries += len(pairs_arr)
        if trace is not None and rows is not None:
            total = time.perf_counter() - dispatch_start
            kernel = max((row["kernel_ms"] / 1e3 for row in rows), default=0.0)
            trace.span("kernel", kernel)
            trace.span("pipe", max(total - kernel, 0.0))
            trace.annotate(shards=rows)
        return merge_answers(len(pairs_arr), payloads)

    def _plan(
        self, pairs_arr: np.ndarray, live: list[_WorkerSlot]
    ) -> "list[tuple[_WorkerSlot | None, np.ndarray, np.ndarray, int]]":
        """Split a batch into ``(slot, sub_pairs, positions, shard)`` tasks.

        Single-segment mode splits contiguously into ``ceil(B / live)``
        chunks (``shard`` is ``-1``).  Sharded mode first routes each pair
        to its home shard (parity routing, see
        :func:`~repro.serve.router.home_shards`), then splits
        each shard's pairs contiguously across that shard's live owners.
        A shard with no live owner yields a ``(None, ...)`` task that the
        dispatcher answers on the parent's evaluator — the per-shard
        degradation path.
        """
        plan: "list[tuple[_WorkerSlot | None, np.ndarray, np.ndarray, int]]" = []
        if self._fleet is None:
            chunk = -(-len(pairs_arr) // len(live))  # ceil division
            for i, slot in enumerate(live):
                positions = np.arange(
                    i * chunk, min((i + 1) * chunk, len(pairs_arr)), dtype=np.int64
                )
                if len(positions) == 0:
                    break
                plan.append((slot, pairs_arr[positions], positions, -1))
            return plan
        for shard, positions in split_by_home_shard(self._fleet.bounds, pairs_arr):
            owners = [slot for slot in live if shard in slot.shards]
            if not owners:
                plan.append((None, pairs_arr[positions], positions, shard))
                continue
            chunk = -(-len(positions) // len(owners))
            for i, slot in enumerate(owners):
                selected = positions[i * chunk : (i + 1) * chunk]
                if len(selected) == 0:
                    break
                plan.append((slot, pairs_arr[selected], selected, shard))
        return plan

    def _dispatch_live(
        self,
        pairs_arr: np.ndarray,
        live: list[_WorkerSlot],
        rows: "list[dict] | None" = None,
        trace_id: "str | None" = None,
    ) -> "list[tuple[np.ndarray, Answers]]":
        """Run the dispatch plan over ``live`` slots; returns
        ``(positions, payload)`` per task.

        Holds the no-stale-reply invariant: if any task *fails* (a kernel
        error or an unexpected exception), every other outstanding reply is
        drained (or its worker+pipe replaced) before the error propagates,
        so the next batch can never read a leftover payload as its own.  A
        task whose slot *retires* is not a failure — its work lands in
        ``orphans`` and is answered in-process after the survivors reply,
        as is (in sharded mode) any task whose shard has no live owner.

        With ``rows`` given, one attribution dict per task is appended:
        worker index, pair count, worker-measured kernel time and the
        residual pipe round-trip (send to reassembled reply, minus kernel);
        sharded dispatch adds the task's home shard.
        """
        assignments = self._plan(pairs_arr, live)
        failure: BaseException | None = None
        sent: list[tuple[int, _WorkerSlot, np.ndarray, float]] = []
        orphans: list[tuple[int, np.ndarray, int]] = []
        for task_id, (slot, sub_pairs, _positions, shard_index) in enumerate(
            assignments
        ):
            if 0 <= shard_index < len(self._shard_queries):
                self._shard_queries[shard_index] += len(sub_pairs)
            if slot is None:
                orphans.append((task_id, sub_pairs, shard_index))
                continue
            try:
                self._send_shard(slot, sub_pairs, trace_id)
                sent.append((task_id, slot, sub_pairs, time.perf_counter()))
            except _SlotRetired:
                orphans.append((task_id, sub_pairs, shard_index))
            except BaseException as exc:  # noqa: BLE001
                failure = exc
                break
        payload_at: dict[int, Answers] = {}
        for task_id, slot, sub_pairs, sent_at in sent:
            shard_index = assignments[task_id][3]
            if failure is None:
                try:
                    payload, kernel_s = self._recv_shard(slot, sub_pairs, trace_id)
                    payload_at[task_id] = payload
                    if rows is not None:
                        round_trip = time.perf_counter() - sent_at
                        row = {
                            "worker": slot.index,
                            "pairs": len(sub_pairs),
                            "kernel_ms": round(kernel_s * 1e3, 3),
                            "pipe_ms": round(
                                max(round_trip - kernel_s, 0.0) * 1e3, 3
                            ),
                            "source": "worker",
                        }
                        if self._fleet is not None:
                            row["shard"] = shard_index
                        rows.append(row)
                    continue
                except _KernelFailure as exc:
                    failure = exc  # reply consumed: slot already clean
                except _SlotRetired:
                    orphans.append((task_id, sub_pairs, shard_index))
                    continue
                except BaseException as exc:  # noqa: BLE001
                    failure = exc
                    self._quarantine(slot)
            else:
                self._quarantine(slot)
        if failure is not None:
            raise failure
        for task_id, sub_pairs, shard_index in orphans:
            payload_at[task_id] = self._local_payload(sub_pairs, rows, shard_index)
        return [
            (assignments[task_id][2], payload_at[task_id])
            for task_id in sorted(payload_at)
        ]

    def query(self, s: int, t: int) -> SPCResult:
        """One pair through the pool (a single-element batch)."""
        return self.query_batch([(s, t)])[0]

    # ------------------------------------------------------------------
    # reporting & lifecycle
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices the published index serves."""
        return self._n

    @property
    def directed(self) -> bool:
        """Whether the published store answers asymmetric (s -> t) queries.

        Mirrors the counter classes' ``directed`` flag so the services'
        point cache keys pairs correctly when dispatching through a pool.
        """
        if self._fleet is not None:
            return self._fleet.directed
        assert self._segment is not None
        return self._segment.directed

    @property
    def shard_count(self) -> int:
        """Number of shards served (0 for a single-segment pool)."""
        return self._fleet.shard_count if self._fleet is not None else 0

    def shard_states(self) -> list[dict]:
        """Per-shard ownership snapshot (empty for a single-segment pool).

        Deliberately lock-free, like :meth:`health`: health probes read it
        while a slow batch holds the dispatch lock.  A shard whose every
        owner retired reports ``live_owners == 0`` and is being served by
        the parent's gather fallback.
        """
        if self._fleet is None:
            return []
        states = []
        for entry in self._fleet.manifest["shards"]:
            shard = int(entry["shard"])
            owners = [slot for slot in self._slots if shard in slot.shards]
            states.append(
                {
                    "shard": shard,
                    "vertex_lo": int(entry["vertex_lo"]),
                    "vertex_hi": int(entry["vertex_hi"]),
                    "nbytes": int(entry["nbytes"]),
                    "hot": bool(entry.get("hot", entry.get("shm") is not None)),
                    "owners": [slot.index for slot in owners],
                    "live_owners": sum(1 for slot in owners if not slot.retired),
                    "queries": self._shard_queries[shard],
                    "fallback_queries": self._shard_fallback[shard],
                }
            )
        return states

    def health(self) -> str:
        """Serving state for load balancers: ``ok``/``degraded``/``critical``.

        ``ok`` — every slot live; ``degraded`` — at least one slot retired
        but survivors still serve; ``critical`` — no live workers, every
        batch runs on the in-process fallback (still answering, but a load
        balancer should route away).  Deliberately lock-free: a health
        probe must answer while a slow batch holds the dispatch lock.
        """
        live = sum(1 for slot in self._slots if not slot.retired)
        if live == len(self._slots):
            return "ok"
        return "degraded" if live else "critical"

    def stats(self) -> dict:
        """Pool-level and per-worker throughput/failure counters."""
        with self._lock:
            live = sum(1 for slot in self._slots if not slot.retired)
            return {
                "workers": len(self._slots),
                "live_workers": live,
                "retired_workers": len(self._slots) - live,
                "health": self.health(),
                "queries": self._queries,
                "batches": self._batches,
                "respawns": sum(slot.respawns for slot in self._slots),
                "quarantines": sum(slot.quarantines for slot in self._slots),
                "dispatch_retries": self._retries,
                "fallback_batches": self._fallback_batches,
                "fallback_queries": self._fallback_queries,
                "segment_bytes": (
                    self._fleet.total_label_bytes
                    if self._fleet is not None
                    else self._segment.nbytes  # type: ignore[union-attr]
                ),
                "per_worker": [
                    {
                        "worker": slot.index,
                        "pid": slot.pid,
                        "shards": list(slot.shards),
                        "queries": slot.queries,
                        "batches": slot.batches,
                        "kernel_s": round(slot.kernel_seconds, 6),
                        "pending": slot.pending,
                        "respawns": slot.respawns,
                        "quarantines": slot.quarantines,
                        "retired": slot.retired,
                    }
                    for slot in self._slots
                ],
                "fleet": (
                    {
                        "shards": self._fleet.shard_count,
                        "total_label_bytes": self._fleet.total_label_bytes,
                        "per_shard": self.shard_states(),
                    }
                    if self._fleet is not None
                    else None
                ),
            }

    def _shutdown(self, force: bool = False) -> None:
        for slot in getattr(self, "_slots", []):
            try:
                if slot.process.is_alive():
                    slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in getattr(self, "_slots", []):
            slot.process.join(timeout=0.2 if force else 5.0)
            if slot.process.is_alive():  # pragma: no cover - stuck worker
                slot.process.terminate()
                slot.process.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._owns_segment and self._segment is not None:
            self._segment.close()
            self._segment.unlink()
        if self._owns_fleet and self._fleet is not None:
            self._fleet.close()
            self._fleet.unlink()

    def close(self) -> None:
        """Stop the workers and release (unlink) an owned segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, n={self._n}, "
            f"batches={self._batches}, queries={self._queries}, "
            f"{'closed' if self._closed else 'live'})"
        )

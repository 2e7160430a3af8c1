"""Asyncio admission-batched query service — the async twin of
:class:`repro.api.QueryService`.

``await submit(s, t)`` parks the caller on a future and admission flushes
**when idle**: a submit that finds no kernel batch in flight dispatches at
the end of the current loop turn (every arrival in that turn shares the
flush), so a lone query never waits out a timer.  While a batch is in
flight, submits accumulate and go out together the moment it completes —
or when ``batch_size`` are pending, or when the oldest has waited
``max_wait`` seconds, the upper bound on that wait.  Each batch is **one**
kernel call, dispatched off the event loop with ``loop.run_in_executor``
so thousands of concurrent awaiters cost one vectorized merge per batch
and the loop never blocks.  The kernel target is either a counter's
``query_batch`` directly (``workers=0``) or a
:class:`~repro.serve.pool.WorkerPool` sharding each batch across
spawn-based processes attached to the shared-memory segment.

Same invariant as the synchronous service: answers are identical to
per-pair ``query`` calls in every regime — admission batching and process
sharding change latency shape, never results.

Robustness knobs (all off by default, so embedded/test uses stay simple):

* ``max_pending`` bounds the admission queue — a submit past the bound is
  rejected with :class:`~repro.errors.OverloadError` (HTTP 429) instead of
  growing memory without limit under overload;
* ``deadline_ms`` gives every request a default budget (callers can pass
  their own per submit) — a request whose deadline expires while it waits
  is shed with :class:`~repro.errors.DeadlineError` (HTTP 504) *before*
  the kernel runs, so a congested server stops burning kernel time on
  answers nobody is waiting for;
* ``max_inflight`` caps concurrently executing kernel batches — when a
  slow pool falls behind, new batches queue (and eventually trip the
  pending bound) instead of piling unbounded executor work onto it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Sequence

from repro.core.engine import validate_vertex
from repro.core.queries import SPCResult
from repro.errors import DeadlineError, OverloadError, QueryError, ServeError
from repro.obs.trace import TraceContext, Tracer
from repro.serve.cache import LRUCache, pair_key
from repro.serve.metrics import FlushStats, LatencyHistogram
from repro.serve.pool import WorkerPool

__all__ = ["AsyncQueryService"]

#: one admitted point query: (s, t, future, absolute-monotonic deadline or
#: None, trace context or None)
_Entry = "tuple[int, int, asyncio.Future, float | None, TraceContext | None]"


class AsyncQueryService:
    """Admission micro-batching over an event loop.

    Parameters mirror :class:`repro.api.QueryService` (``batch_size``,
    ``max_wait``, ``cache_size``) plus the dispatch target.  Unlike the
    sync twin, ``max_wait`` only bounds how long queries accumulate behind
    a kernel batch already in flight; with nothing in flight a submit
    dispatches at once (flush reason ``idle``).  ``workers=0``
    (default) flushes straight onto ``counter.query_batch`` in an executor
    thread; ``workers=N`` publishes the counter to shared memory and
    shards every flush across a spawned :class:`WorkerPool` (owned by the
    service and closed by :meth:`aclose`).  An externally managed pool can
    be passed via ``pool=`` instead.  ``shards=K`` (with ``workers >= 1``)
    partitions the index into a :class:`~repro.serve.shm.ShmSegmentFleet`
    served by shard-owning workers — ``cold_shards`` names shards kept out
    of shared memory — while answers stay bit-identical to single-segment
    serving; the LRU point cache sits *above* the shard router, so hot
    cross-shard pairs still hit without touching a worker.

    ``max_pending``, ``max_inflight`` and ``deadline_ms`` are the admission
    -control knobs (0 disables each; see the module docstring): bounded
    queue -> :class:`~repro.errors.OverloadError`, expired budget ->
    :class:`~repro.errors.DeadlineError`, capped concurrent kernel batches
    -> backpressure.

    Not thread-safe — one event loop drives it (the kernels themselves run
    in executor threads; the pool serialises overlapping flushes).

    Examples
    --------
    >>> import asyncio
    >>> from repro.graph import cycle_graph
    >>> from repro.core.index import PSPCIndex
    >>> async def demo():
    ...     async with AsyncQueryService(PSPCIndex.build(cycle_graph(6))) as svc:
    ...         return [r.count for r in await asyncio.gather(
    ...             svc.submit(0, 3), svc.submit(1, 4))]
    >>> asyncio.run(demo())
    [2, 2]
    """

    def __init__(
        self,
        counter: object = None,
        *,
        workers: int = 0,
        shards: int = 0,
        cold_shards: "tuple[int, ...]" = (),
        pool: WorkerPool | None = None,
        batch_size: int = 64,
        max_wait: float = 0.002,
        cache_size: int = 0,
        max_pending: int = 0,
        max_inflight: int = 0,
        deadline_ms: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        if batch_size < 1:
            raise QueryError(f"batch_size must be >= 1, got {batch_size}")
        if max_wait < 0:
            raise QueryError(f"max_wait must be >= 0, got {max_wait}")
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        if shards < 0:
            raise ServeError(f"shards must be >= 0, got {shards}")
        if shards > 0 and workers < 1 and pool is None:
            raise ServeError(
                "sharded serving needs a worker pool: pass workers >= 1 "
                "with shards, or a pre-built sharded pool"
            )
        if max_pending < 0 or max_inflight < 0 or deadline_ms < 0:
            raise ServeError(
                "max_pending, max_inflight and deadline_ms must be >= 0 "
                f"(got {max_pending}, {max_inflight}, {deadline_ms})"
            )
        if counter is None and pool is None:
            raise ServeError("AsyncQueryService needs a counter or a WorkerPool")
        self.counter = counter
        self.batch_size = int(batch_size)
        self.max_wait = float(max_wait)
        #: admission bound: 0 = unbounded (the pre-hardening behaviour)
        self.max_pending = int(max_pending)
        #: concurrent kernel-batch cap: 0 = unbounded
        self.max_inflight = int(max_inflight)
        #: default per-request deadline in milliseconds: 0 = none
        self.deadline_ms = float(deadline_ms)
        self._owns_pool = False
        if pool is not None:
            self.pool: WorkerPool | None = pool
        elif workers > 0:
            self.pool = WorkerPool(
                counter, workers=workers, shards=shards, cold=cold_shards
            )
            self._owns_pool = True
        else:
            self.pool = None
        #: optional request tracer: every submit mints a
        #: :class:`~repro.obs.trace.TraceContext`, per-span timings land in
        #: its ring buffers, and an attached pool reports worker lifecycle
        #: events into it (``None`` = tracing off, near-zero overhead)
        self.tracer = tracer
        if tracer is not None and self.pool is not None:
            self.pool.tracer = tracer
        target = self.pool or counter
        self._dispatch = target.query_batch
        self._n = int(getattr(target, "n", 0))
        self._pending: "list[_Entry]" = []
        #: max_wait bound on queries accumulating behind an in-flight batch
        self._timer: asyncio.TimerHandle | None = None
        #: end-of-turn flush scheduled by the first submit into an idle service
        self._idle: asyncio.Handle | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        #: flush reason deferred by the in-flight gate; re-armed when a
        #: running batch completes (see :meth:`_flush_finished`)
        self._stalled: str | None = None
        self._closed = False
        #: canonical (min, max) keys for symmetric counters so reversed hot
        #: pairs hit; asymmetric keys when the dispatch target is directed
        self._cache: LRUCache[tuple[int, int], SPCResult] = LRUCache(cache_size)
        self._cache_key = pair_key(target)
        #: flush accounting shared with the sync twin (loop-thread only)
        self._metrics = FlushStats()

    # ------------------------------------------------------------------
    # point path
    # ------------------------------------------------------------------
    async def submit(
        self,
        s: int,
        t: int,
        *,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> SPCResult:
        """Enqueue one query and await its batch's answer.

        Cache hits (when ``cache_size > 0``) resolve immediately without
        touching a kernel; everything else flushes with its batch.  Vertex
        ids are validated *here*, before admission: one malformed request
        must fail alone, never poison the co-batched queries of other
        concurrent callers.

        Admission control happens here too: a full pending queue rejects
        with :class:`~repro.errors.OverloadError` before the request costs
        anything, and ``deadline_ms`` (default: the service's
        ``deadline_ms``) arms a budget — if it expires before the batch
        reaches the kernel the request is shed with
        :class:`~repro.errors.DeadlineError` instead of being answered
        uselessly late.

        With a tracer attached, ``trace_id`` (e.g. minted at the HTTP
        layer from an ``X-Repro-Trace-Id`` header) names the request's
        trace; ``None`` mints a fresh id.  Without a tracer the argument
        is accepted and ignored, so callers need no feature check.
        """
        if self._closed:
            raise QueryError("AsyncQueryService is closed")
        s = validate_vertex(s, self._n)
        t = validate_vertex(t, self._n)
        tracer = self.tracer
        # explicit ids always trace (a header names this request); the
        # rest thin out at the tracer's deterministic sampling rate
        ctx = (
            tracer.new_trace(s, t, trace_id=trace_id)
            if tracer is not None and (trace_id is not None or tracer.sampled())
            else None
        )
        self._metrics.queries += 1
        if ctx is not None and self._cache.capacity > 0:
            lookup_start = time.perf_counter()
            cached = self._cache.get(self._cache_key(s, t))
            ctx.span("cache_lookup", time.perf_counter() - lookup_start)
        else:
            cached = self._cache.get(self._cache_key(s, t))
        if cached is not None:
            # a reversed-pair hit answers with the requested orientation
            if (cached.s, cached.t) != (s, t):
                cached = SPCResult(s, t, cached.dist, cached.count)
            if ctx is not None:
                ctx.annotate(cache="hit")
                self.tracer.finish(ctx)
            return cached
        if ctx is not None and self._cache.capacity > 0:
            ctx.annotate(cache="miss")
        if self.max_pending and len(self._pending) >= self.max_pending:
            self._metrics.overloads += 1
            if ctx is not None:
                self.tracer.finish(ctx, status="overload")
            raise OverloadError(
                f"pending queue full ({self.max_pending} queries); retry later"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append(
            (s, t, future, self._absolute_deadline(deadline_ms), ctx)
        )
        if len(self._pending) >= self.batch_size:
            self._start_flush("full")
        elif not self._flush_tasks:
            # nothing in flight: dispatch at the end of this loop turn, so
            # every arrival in the same turn shares the flush
            if self._idle is None:
                self._idle = loop.call_soon(self._idle_flush)
        elif self._timer is None:
            self._timer = loop.call_later(self.max_wait, self._deadline_expired)
        return await future

    def _absolute_deadline(self, deadline_ms: float | None) -> float | None:
        """Resolve a per-request budget to an absolute monotonic instant."""
        budget = self.deadline_ms if deadline_ms is None else float(deadline_ms)
        if budget <= 0:
            return None
        return time.monotonic() + budget / 1000.0

    def _deadline_expired(self) -> None:
        self._timer = None
        if self._pending:
            self._start_flush("timeout")

    def _idle_flush(self) -> None:
        self._idle = None
        if self._pending:
            self._start_flush("idle")

    def _start_flush(self, reason: str) -> None:
        """Detach the pending batch and evaluate it in a background task.

        The ``max_inflight`` gate applies here: with that many batches
        already executing, the pending batch *stays queued* — backpressure
        instead of unbounded concurrent kernel work — and the deferred
        flush fires from :meth:`_flush_finished` when a slot frees up.
        """
        self._cancel_timers()
        batch = self._pending
        if not batch:
            return
        if self.max_inflight and len(self._flush_tasks) >= self.max_inflight:
            self._stalled = reason
            return
        self._stalled = None
        self._pending = []
        task = asyncio.get_running_loop().create_task(self._flush(batch, reason))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_finished)

    def _cancel_timers(self) -> None:
        for handle in (self._timer, self._idle):
            if handle is not None:
                handle.cancel()
        self._timer = self._idle = None

    def _flush_finished(self, task: asyncio.Task) -> None:
        """A kernel batch completed: re-arm any flush the gate deferred,
        and dispatch what accumulated behind the last in-flight batch.

        (A full batch never waits here unless the gate deferred it: the
        submit that fills one starts its flush at once.)"""
        self._flush_tasks.discard(task)
        if self._pending and (self._stalled is not None or not self._flush_tasks):
            self._start_flush(self._stalled or "idle")

    def _shed_expired(self, batch: "list[_Entry]") -> "list[_Entry]":
        """Fail expired entries with :class:`DeadlineError`; return the rest.

        Runs at the top of every flush — *before* the kernel — so a
        backlogged server sheds what it can no longer answer in time
        instead of spending kernel capacity on it.
        """
        now = time.monotonic()
        live: "list[_Entry]" = []
        for entry in batch:
            s, t, future, deadline, ctx = entry
            if deadline is not None and now >= deadline:
                self._metrics.deadline_shed += 1
                if ctx is not None and self.tracer is not None:
                    self.tracer.finish(ctx, status="shed")
                if not future.done():
                    future.set_exception(
                        DeadlineError(
                            f"query ({s}, {t}) missed its deadline before the "
                            f"kernel ran"
                        )
                    )
            else:
                live.append(entry)
        return live

    async def _flush(self, batch: "list[_Entry]", reason: str) -> None:
        flush_start = time.perf_counter()
        batch = self._shed_expired(batch)
        if not batch:
            return
        traces = [ctx for _, _, _, _, ctx in batch if ctx is not None]
        for ctx in traces:
            ctx.span("admission_wait", flush_start - ctx.enqueued)
            ctx.annotate(batch=len(batch), flush=reason)
        pairs = [(s, t) for s, t, _, _, _ in batch]
        try:
            # the first traced query represents the batch at the pool: its
            # id rides the pipes, its context collects shard attribution
            answers = await self._run_kernel(
                pairs, reason, trace=traces[0] if traces else None
            )
        except BaseException as exc:  # noqa: BLE001 - delivered to every waiter
            for _, _, future, _, ctx in batch:
                if ctx is not None and self.tracer is not None:
                    self.tracer.finish(ctx, status="error")
                if not future.done():
                    future.set_exception(exc)
            return
        reassembly_start = time.perf_counter()
        for (s, t, future, _, ctx), answer in zip(batch, answers):
            self._cache.put(self._cache_key(s, t), answer)
            if ctx is not None and self.tracer is not None:
                # co-batched queries share one kernel call: every trace in
                # the batch carries the same kernel/pipe timings
                if ctx is not traces[0]:
                    for span in ("kernel", "pipe"):
                        if span in traces[0].spans:
                            ctx.span(span, traces[0].spans[span])
                now = time.perf_counter()
                ctx.span("reassembly", now - reassembly_start)
                ctx.span("flush", now - flush_start)
                self.tracer.finish(ctx)
            if not future.done():
                future.set_result(answer)

    def _pool_dispatch(
        self, pairs: list[tuple[int, int]], trace: "TraceContext"
    ) -> list[SPCResult]:
        """Synchronous traced pool dispatch (runs on an executor thread)."""
        assert self.pool is not None
        return self.pool.query_batch(pairs, trace=trace)

    async def _run_kernel(
        self,
        pairs: list[tuple[int, int]],
        reason: str,
        trace: "TraceContext | None" = None,
    ) -> list[SPCResult]:
        """One timed kernel call, dispatched off the event loop."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        if trace is not None and self.pool is not None:
            answers = await loop.run_in_executor(
                None, self._pool_dispatch, pairs, trace
            )
        else:
            answers = await loop.run_in_executor(None, self._dispatch, pairs)
        elapsed = time.perf_counter() - start
        if trace is not None and self.pool is None:
            # no pipe leg without a pool: the whole dispatch is kernel time
            trace.span("kernel", elapsed)
        self._metrics.record_flush(reason, elapsed, len(pairs))
        return answers

    # ------------------------------------------------------------------
    # bulk path
    # ------------------------------------------------------------------
    async def query_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        *,
        deadline_ms: float | None = None,
    ) -> list[SPCResult]:
        """Answer a whole workload, bypassing admission batching.

        Point-path stragglers are flushed first so batches stay aligned;
        the bulk path bypasses the LRU cache (it exists for hot repeated
        point pairs, not for sweeps).  Over a pool the whole workload is
        **one** :meth:`WorkerPool.query_batch` dispatch — the pool already
        splits it by worker and home shard, so chunking here would only
        add pipe round trips.  Dispatching onto a counter directly runs
        ``batch_size``-pair chunks.

        ``deadline_ms`` (default: the service budget) bounds the whole
        workload: the check runs before every kernel call (once, over a
        pool), so an expired deadline sheds the *remaining* calls with
        :class:`~repro.errors.DeadlineError` rather than grinding on.
        """
        if self._closed:
            raise QueryError("AsyncQueryService is closed")
        workload = [
            (validate_vertex(s, self._n), validate_vertex(t, self._n))
            for s, t in pairs
        ]
        if not workload:
            return []
        deadline = self._absolute_deadline(deadline_ms)
        await self.flush()
        chunk_size = len(workload) if self.pool is not None else self.batch_size
        results: list[SPCResult] = []
        for start in range(0, len(workload), chunk_size):
            if deadline is not None and time.monotonic() >= deadline:
                self._metrics.deadline_shed += len(workload) - start
                raise DeadlineError(
                    f"batch of {len(workload)} missed its deadline after "
                    f"{start} answered queries"
                )
            chunk = workload[start : start + chunk_size]
            results.extend(await self._run_kernel(chunk, "bulk"))
        return results

    # ------------------------------------------------------------------
    # flushing & lifecycle
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached point answer (after mutating the counter).

        The LRU cache assumes a frozen index; services over a mutable
        counter should leave caching disabled or clear it on every update.
        """
        self._cache.clear()

    async def flush(self) -> int:
        """Flush pending point queries now; returns how many were started.

        With the in-flight gate holding the manual flush back, this waits
        out running batches until the deferred flush has actually started,
        then waits for it too — so "flushed" keeps meaning *evaluated*, not
        merely queued.
        """
        count = len(self._pending)
        if count:
            self._start_flush("manual")
        while self._stalled is not None and self._flush_tasks:
            await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
            # one loop turn so _flush_finished callbacks run and re-arm
            # the deferred flush before we re-check
            await asyncio.sleep(0)
            if self._stalled is not None and self._pending:
                self._start_flush(self._stalled)
        await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
        return count

    @property
    def pending(self) -> int:
        """Point queries waiting for their batch."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has run."""
        return self._closed

    def health(self) -> str:
        """Serving state: the pool's ``ok``/``degraded``/``critical``.

        A pool-less service (``workers=0``) has no crash surface beyond
        its own process and always reports ``ok``.
        """
        return self.pool.health() if self.pool is not None else "ok"

    def stats(self) -> dict:
        """Serving statistics (same shape as the sync service, plus pool/cache)."""
        report = self._metrics.snapshot(len(self._pending), self._cache)
        report["health"] = self.health()
        if self.pool is not None:
            report["pool"] = self.pool.stats()
        if self.tracer is not None:
            report["trace"] = self.tracer.snapshot()
        return report

    @property
    def flush_latency(self) -> LatencyHistogram:
        """The kernel-flush latency histogram (for /metrics rendering)."""
        return self._metrics.flush_latency

    async def aclose(self) -> None:
        """Flush stragglers, wait out in-flight batches, stop an owned pool.

        Mirrors the sync service's ``close()``: a pending sub-batch is
        never silently lost — it flushes here, and submissions after
        ``aclose`` raise.
        """
        if self._closed:
            return
        self._closed = True
        self._cancel_timers()
        if self._pending:
            batch = self._pending
            self._pending = []
            await self._flush(batch, "manual")
        await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)
        if self._owns_pool and self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, self.pool.close)

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        target = type(self.pool or self.counter).__name__
        return (
            f"AsyncQueryService(target={target}, batch_size={self.batch_size}, "
            f"max_wait={self.max_wait}, batches={self._metrics.batches}, "
            f"queries={self._metrics.queries})"
        )

"""A stdlib-only asyncio HTTP endpoint over :class:`AsyncQueryService`.

No web framework: requests are parsed straight off the asyncio stream —
enough HTTP/1.1 for a serving sidecar and for loopback smoke tests.

Routes
------
``GET /query?s=&t=``   one point query through the admission batcher
                       (optional ``deadline_ms`` budget -> 504 when missed)
``POST /query_batch``  body ``{"pairs": [[s, t], ...]}`` through the bulk
                       path (optional ``"deadline_ms"`` body field)
``GET /stats``         service + worker-pool statistics (JSON)
``GET /metrics``       Prometheus text exposition of the same counters
``GET /healthz``       health: ``ok``/``degraded``/``critical`` plus
                       live/retired worker counts (503 when critical)
``GET /debug/trace``   recent request traces with per-span timings
                       (``?id=<trace_id>`` filters; needs ``--trace``)
``GET /debug/events``  worker lifecycle events (respawns, fallbacks)

Every ``/query`` response carries an ``X-Repro-Trace-Id`` header — echoing
the request's header when present, freshly minted otherwise — so one
request can be followed from the client through the admission batcher and
the pool's pipes into ``/debug/trace``.

Failure mapping: admission rejections answer 429 (queue full) and 504
(deadline missed), infrastructure faults 500/503 — a load balancer can act
on status alone.  Exposed on the command line as ``python -m repro serve
<index.npz> --workers N --port P`` (see :func:`run_server`); every
connection is answered and closed (``Connection: close``), keeping the
loop free of keep-alive bookkeeping.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from typing import Callable
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.engine import Answers
from repro.errors import DeadlineError, OverloadError, QueryError, ReproError, ServeError
from repro.obs.trace import Tracer, new_trace_id
from repro.serve.async_service import AsyncQueryService
from repro.serve.metrics import LatencyHistogram, render_prometheus

__all__ = ["HttpFrontend", "run_server"]

#: Largest accepted request body (the batch endpoint), in bytes.
_MAX_BODY = 32 * 1024 * 1024

#: Seconds an open connection may take to deliver a complete request;
#: idle and half-open sockets are dropped instead of pinning a task+fd
#: on the long-running server.
_READ_TIMEOUT = 30.0

#: ``GET /query``'s ``deadline_ms``: ASCII digits with an optional
#: ``.digits`` fraction (``float()`` would also take "1_0", "+5", "1e3",
#: "nan" and surrounding spaces).
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")

#: One ``/query_batch`` result object, formatted exactly as ``json.dumps``
#: writes ``{"s": s, "t": t, "dist": dist, "count": count}``.
_RESULT = '{"s": %d, "t": %d, "dist": %d, "count": %d}'


def encode_results(pairs_arr: np.ndarray, answers: Answers) -> bytes:
    """The ``/query_batch`` response body, straight from the answer rows.

    Byte-identical to ``json.dumps({"results": [{"s": .., "t": ..,
    "dist": .., "count": ..}, ...]})``, counts beyond int64 included,
    without building a dict per pair.
    """
    if isinstance(answers, np.ndarray):
        flat = np.concatenate([pairs_arr, answers], axis=1).ravel().tolist()
    else:  # exact Python-int rows (counts beyond int64)
        flat = [
            value
            for (s, t), (dist, count) in zip(pairs_arr.tolist(), answers)
            for value in (s, t, dist, count)
        ]
    rows = ", ".join([_RESULT] * len(pairs_arr)) % tuple(flat)
    return f'{{"results": [{rows}]}}'.encode()


class _HttpError(ServeError):
    """An error that maps to a specific HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpFrontend:
    """Route HTTP requests on one listening socket into a service."""

    def __init__(self, service: AsyncQueryService) -> None:
        self.service = service
        self.requests = 0
        #: end-to-end request latency (parse through handler), fixed
        #: log-spaced buckets — feeds /metrics
        self.latency = LatencyHistogram()
        #: responses by status code — feeds /metrics
        self.responses: dict[int, int] = {}

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: parse, dispatch, answer, close.

        Every failure mode maps to a precise status: client mistakes are
        4xx (including 408 for a request that never finished arriving and
        400 for a body cut off mid-read), admission control is 429/504,
        infrastructure faults are 5xx — and none of them kill the loop.
        """
        start = time.perf_counter()
        extra_headers: dict[str, str] = {}
        try:
            status, body, extra_headers = await asyncio.wait_for(
                self._handle(reader), timeout=_READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            # the request never finished arriving: that's the client's
            # clock, not a malformed request — 408, not 400
            status, body = 408, {"error": f"request not completed within {_READ_TIMEOUT:.0f}s"}
        except asyncio.IncompleteReadError:
            # client hung up mid-body: a client error, not a server 500
            status, body = 400, {"error": "connection closed before the full body arrived"}
        except _HttpError as exc:
            status, body = exc.status, {"error": str(exc)}
        except OverloadError as exc:
            status, body = 429, {"error": str(exc)}
        except DeadlineError as exc:
            status, body = 504, {"error": str(exc)}
        except ServeError as exc:
            # infrastructure fault (crashed pool, closed segment), not a
            # malformed request: alerting must see a 5xx
            status, body = 500, {"error": str(exc)}
        except (QueryError, ReproError) as exc:
            status, body = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - surface, never kill the loop
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(body, str):  # text exposition (/metrics)
            payload = body.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif isinstance(body, bytes):  # pre-encoded JSON (/query_batch)
            payload = body
            content_type = "application/json"
        else:
            payload = json.dumps(body).encode()
            content_type = "application/json"
        self.latency.observe(time.perf_counter() - start)
        self.responses[status] = self.responses.get(status, 0) + 1
        headers = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers.items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{headers}"
                "Connection: close\r\n"
                "\r\n"
            ).encode()
            + payload
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover - client gone
            pass

    async def _handle(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, object, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        content_length = 0
        trace_header: str | None = None
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            name, _, value = header.partition(":")
            lowered = name.strip().lower()
            if lowered == "content-length":
                # ASCII digits only: int() would also frame "+19" or
                # "1_9" as a 19-byte body
                raw = value.strip()
                if not (raw.isascii() and raw.isdigit()):
                    raise _HttpError(400, f"bad Content-Length {raw!r}")
                content_length = int(raw)
            elif lowered == "x-repro-trace-id":
                trace_header = value.strip() or None
        if content_length > _MAX_BODY:
            raise _HttpError(413, f"body of {content_length} bytes exceeds {_MAX_BODY}")
        body = await reader.readexactly(content_length) if content_length else b""
        self.requests += 1
        url = urlsplit(target)
        return await self._route(
            method.upper(), url.path, parse_qs(url.query), body, trace_header
        )

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        query: dict,
        body: bytes,
        trace_header: "str | None" = None,
    ) -> tuple[int, object, dict]:
        if path == "/query":
            if method != "GET":
                raise _HttpError(405, "/query is GET")
            return await self._query(query, trace_header)
        if path == "/query_batch":
            if method != "POST":
                raise _HttpError(405, "/query_batch is POST")
            return await self._query_batch(body)
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "/stats is GET")
            # pool.stats() contends the dispatch lock, which a running
            # batch holds for its whole kernel call — wait in an executor
            # thread, never on the event loop
            stats = await asyncio.get_running_loop().run_in_executor(
                None, self.service.stats
            )
            return 200, stats, {}
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "/metrics is GET")
            stats = await asyncio.get_running_loop().run_in_executor(
                None, self.service.stats
            )
            tracer = self.service.tracer
            return 200, render_prometheus(
                stats,
                health=stats.get("health", "ok"),
                request_latency=self.latency,
                responses=self.responses,
                flush_latency=self.service.flush_latency,
                span_summaries=tracer.span_summaries if tracer is not None else None,
            ), {}
        if path == "/debug/trace":
            if method != "GET":
                raise _HttpError(405, "/debug/trace is GET")
            tracer = self.service.tracer
            if tracer is None:
                return 200, {"enabled": False, "traces": []}, {}
            wanted = query.get("id", [None])[0]
            report = tracer.snapshot()
            report["traces"] = tracer.traces(wanted)
            return 200, report, {}
        if path == "/debug/events":
            if method != "GET":
                raise _HttpError(405, "/debug/events is GET")
            tracer = self.service.tracer
            if tracer is None:
                return 200, {"enabled": False, "events": []}, {}
            return 200, {"enabled": True, "events": tracer.events()}, {}
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "/healthz is GET")
            pool = self.service.pool
            health = self.service.health()
            body = {
                "status": health,
                "n": int(getattr(pool or self.service.counter, "n", 0)),
                "workers": pool.workers if pool is not None else 0,
                "requests": self.requests,
                "pid": os.getpid(),
            }
            if pool is not None:
                # lock-free liveness counters (health() reads the slot list
                # without contending a running batch's dispatch lock)
                live = sum(1 for slot in pool._slots if not slot.retired)
                body["live_workers"] = live
                body["retired_workers"] = len(pool._slots) - live
                body["respawns"] = sum(slot.respawns for slot in pool._slots)
                if pool.shard_count:
                    # sharded pools: per-shard ownership, also lock-free
                    body["shards"] = pool.shard_count
                    body["shard_owners"] = [
                        {
                            "shard": state["shard"],
                            "live_owners": state["live_owners"],
                            "hot": state["hot"],
                        }
                        for state in pool.shard_states()
                    ]
            # "critical" still answers queries (in-process fallback) but a
            # load balancer probing /healthz must see 503 and route away
            return (503 if health == "critical" else 200), body, {}
        raise _HttpError(404, f"unknown path {path!r}")

    def _int_param(self, query: dict, name: str) -> int:
        values = query.get(name)
        if not values:
            raise _HttpError(400, f"missing query parameter {name!r}")
        value = values[0]
        # ASCII decimal digits only: int() would also take "+5", "1_0",
        # surrounding spaces and non-ASCII digits such as "\u0663"
        if not (value.isascii() and value.isdigit()):
            raise _HttpError(400, f"parameter {name!r} must be a non-negative integer")
        return int(value)

    def _deadline_param(self, query: dict) -> "float | None":
        values = query.get("deadline_ms")
        if not values:
            return None
        if not _DECIMAL.fullmatch(values[0]):
            raise _HttpError(400, "parameter 'deadline_ms' must be a number")
        deadline_ms = float(values[0])
        if not 0 < deadline_ms <= sys.float_info.max:  # also refuses overflow to inf
            raise _HttpError(400, "parameter 'deadline_ms' must be positive")
        return deadline_ms

    async def _query(
        self, query: dict, trace_header: "str | None" = None
    ) -> tuple[int, dict, dict]:
        s = self._int_param(query, "s")
        t = self._int_param(query, "t")
        # the trace id is minted *here*, at the edge: the caller's header
        # wins (cross-service correlation), otherwise a fresh id — present
        # on the response whether or not a tracer records spans for it
        trace_id = trace_header or new_trace_id()
        result = await self.service.submit(
            s, t, deadline_ms=self._deadline_param(query), trace_id=trace_id
        )
        return (
            200,
            {"s": result.s, "t": result.t, "dist": result.dist, "count": result.count},
            {"X-Repro-Trace-Id": trace_id},
        )

    async def _query_batch(self, body: bytes) -> tuple[int, bytes, dict]:
        try:
            decoded = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from None
        pairs = decoded.get("pairs") if isinstance(decoded, dict) else None
        if not isinstance(pairs, list):
            raise _HttpError(400, 'body must be {"pairs": [[s, t], ...]}')
        # one pass: shape and exact types together.  JSON decodes to exact
        # builtins, so ``type(x) is int`` refuses floats (int() would
        # truncate 1.7), strings ("3") and bools (a subclass of int).
        workload: list[tuple[int, int]] = []
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise _HttpError(400, 'body must be {"pairs": [[s, t], ...]}')
            s, t = pair
            if type(s) is not int or type(t) is not int:
                raise _HttpError(400, "pair endpoints must be integers")
            workload.append((s, t))
        deadline_ms = decoded.get("deadline_ms")
        if deadline_ms is not None:
            # exact types again (true is not a budget); the range test
            # refuses NaN, infinities and ints float() cannot represent
            if (
                type(deadline_ms) not in (int, float)
                or not 0 < deadline_ms <= sys.float_info.max
            ):
                raise _HttpError(400, '"deadline_ms" must be a positive number')
            deadline_ms = float(deadline_ms)
        pairs_arr, answers = await self.service.answer_batch(
            workload, deadline_ms=deadline_ms
        )
        return 200, encode_results(pairs_arr, answers), {}


async def serve(
    service: AsyncQueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Future | None" = None,
    stop: "asyncio.Event | None" = None,
    announce: "Callable[[str], None] | None" = None,
) -> None:
    """Serve until ``stop`` is set (or forever), then close the service.

    ``ready`` (if given) receives the bound ``(host, port)`` once
    listening — tests and the CLI use it to discover an ephemeral port.
    ``announce`` (if given) receives the human-readable "serving on ..."
    line; the CLI passes ``print`` to keep its stdout port-discovery
    contract while the library itself stays silent (R008).
    """
    frontend = HttpFrontend(service)
    server = await asyncio.start_server(frontend.handle_connection, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result(bound)
    if announce is not None:
        announce(f"serving on http://{bound[0]}:{bound[1]} (pid {os.getpid()})")
    try:
        if stop is None:  # pragma: no cover - CLI path runs forever
            await asyncio.Event().wait()
        else:
            await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.aclose()


def run_server(
    counter: object,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 0,
    shards: int = 0,
    cold_shards: "tuple[int, ...]" = (),
    batch_size: int = 64,
    max_wait: float = 0.002,
    cache_size: int = 0,
    max_pending: int = 0,
    max_inflight: int = 0,
    deadline_ms: float = 0.0,
    trace: bool = False,
    slow_ms: float = 0.0,
    announce: "Callable[[str], None] | None" = None,
) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    Publishes the counter (to shared memory when ``workers > 0``), binds
    the HTTP front-end, and runs until SIGTERM/SIGINT — shutting down
    workers and unlinking the segment on the way out.  ``shards=K``
    partitions the index into a shard fleet served by shard-owning
    workers (``cold_shards`` keeps selected shards out of shared memory,
    mmap-served from disk), hosting an index larger than any one worker's
    attached shm.  ``max_pending``, ``max_inflight`` and ``deadline_ms``
    (all off at 0) wire admission control into the service: queue caps
    answer 429, expired budgets 504.

    ``trace=True`` (or a positive ``slow_ms``) attaches a
    :class:`~repro.obs.trace.Tracer`: per-request span timings become
    visible at ``/debug/trace``, pool lifecycle events at
    ``/debug/events``, per-span histograms in ``/metrics``, and queries
    slower than ``slow_ms`` emit one structured-JSON log line each.
    """

    async def _main() -> None:
        tracer = Tracer(slow_ms=slow_ms) if trace or slow_ms > 0 else None
        service = AsyncQueryService(
            counter,
            workers=workers,
            shards=shards,
            cold_shards=cold_shards,
            batch_size=batch_size,
            max_wait=max_wait,
            cache_size=cache_size,
            max_pending=max_pending,
            max_inflight=max_inflight,
            deadline_ms=deadline_ms,
            tracer=tracer,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await serve(service, host, port, stop=stop, announce=announce)

    asyncio.run(_main())
    return 0

"""Out-of-process HTTP load client: raw sockets, open and closed loops.

The server answers every request with ``Connection: close``, so each
request is one TCP connection: connect, send, read to EOF.  The client is
one process with at most ``conns`` threads, each holding at most one
connection at a time, so it never shares the server's event loop and never
offers more concurrency than it says.

Open loop (independent users): request ``i`` is *due* at ``t0 + i / rate``
whatever the server does.  A free thread takes the next request, sleeps
until it is due, and sends it.  Latency is measured from the due time, so a
stall is charged to every request queued behind it.  How late the generator
itself woke up (``sent - max(due, picked)``) is recorded separately: when it
is large the client, not the server, set the pace and the run is invalid.

Closed loop (callers that wait): each thread sends its next request as soon
as the previous reply arrived.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

from env import quantile


@dataclass
class Reply:
    """One request as the client saw it (``status`` 0: connection failed)."""

    status: int
    body: bytes
    connect_s: float
    start: float
    done: float


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: "dict[str, str] | None" = None,
    timeout: float = 30.0,
) -> Reply:
    """Send one HTTP/1.1 request on a fresh connection and read the reply."""
    start = time.perf_counter()
    connected = start
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Connection: close",
        f"Content-Length: {len(body)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    wire = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    chunks = []
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            connected = time.perf_counter()
            sock.sendall(wire)
            while True:
                chunk = sock.recv(262144)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return Reply(0, b"", connected - start, start, time.perf_counter())
    done = time.perf_counter()
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b"\r\n", 1)[0].split()[1])
    except (IndexError, ValueError):
        status = 0
    return Reply(status, payload, connected - start, start, done)


@dataclass
class LoopResult:
    """Per-request records of one load phase, in request order."""

    #: seconds from due (open loop) or send (closed loop) to reply
    latency_s: list = field(default_factory=list)
    #: seconds from send to reply (the server's share plus the network)
    service_s: list = field(default_factory=list)
    connect_s: list = field(default_factory=list)
    #: generator wake-up lateness (open loop only)
    late_s: list = field(default_factory=list)
    #: how long a due request waited for a free connection (open loop only)
    queued_s: list = field(default_factory=list)
    #: ``perf_counter`` instant each reply completed
    done_at: list = field(default_factory=list)
    #: when the phase started offering load
    started: float = 0.0
    response_bytes: int = 0
    ok: int = 0
    failed: int = 0

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def open_loop(
    send: Callable[[int], Reply],
    check: Callable[[int, Reply], bool],
    rate: float,
    duration: float,
    conns: int,
) -> LoopResult:
    """Offer ``rate`` requests/s for ``duration`` seconds over ``conns`` threads.

    ``send(i)`` issues request ``i``; ``check(i, reply)`` says whether the
    reply is a correct answer.  A refused or reset connection, a non-200
    status and a wrong answer all count as failures.
    """
    total = max(1, int(rate * duration))
    lock = threading.Lock()
    cursor = [0]
    rows: "list[tuple | None]" = [None] * total
    t0 = time.perf_counter() + 0.02

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] = i + 1
            if i >= total:
                return
            picked = time.perf_counter()
            due = t0 + i / rate
            if picked < due:
                time.sleep(due - picked)
            reply = send(i)
            rows[i] = (due, picked, reply, check(i, reply))

    _run_threads(worker, conns)
    result = LoopResult(started=t0)
    for row in rows:
        due, picked, reply, good = row
        result.late_s.append(max(0.0, reply.start - max(due, picked)))
        result.queued_s.append(max(0.0, picked - due))
        _account(result, reply, good, reply.done - due)
    return result


def closed_loop(
    send: Callable[[int], Reply],
    check: Callable[[int, Reply], bool],
    duration: float,
    conns: int,
) -> LoopResult:
    """Each of ``conns`` threads sends back to back for ``duration`` seconds."""
    lock = threading.Lock()
    cursor = [0]
    rows: "list[tuple]" = []
    start = time.perf_counter()
    stop_at = start + duration

    def worker() -> None:
        while True:  # at least one request per thread, however short the phase
            with lock:
                i = cursor[0]
                cursor[0] = i + 1
            reply = send(i)
            good = check(i, reply)
            with lock:
                rows.append((i, reply, good))
            if time.perf_counter() >= stop_at:
                return

    _run_threads(worker, conns)
    result = LoopResult(started=start)
    rows.sort(key=lambda row: row[0])
    for _, reply, good in rows:
        _account(result, reply, good, reply.done - reply.start)
    return result


def _account(result: LoopResult, reply: Reply, good: bool, latency: float) -> None:
    result.latency_s.append(latency)
    result.service_s.append(reply.done - reply.start)
    result.connect_s.append(reply.connect_s)
    result.done_at.append(reply.done)
    result.response_bytes += len(reply.body)
    if good:
        result.ok += 1
    else:
        result.failed += 1


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def backlog_grew(result: LoopResult, limit_s: float) -> bool:
    """Whether requests queued for a connection longer as the phase went on.

    Compares the median wait for a free connection over the last quarter of
    the phase with the limit: a server that keeps up drains the queue, one
    that does not leaves later requests waiting longer and longer.
    """
    quarter = max(1, len(result.queued_s) // 4)
    return quantile(result.queued_s[-quarter:], 0.5) > limit_s / 2


def windowed_rate(result: LoopResult, duration: float, windows: int = 5) -> float:
    """Median completions per second over ``windows`` equal slices of the phase.

    A median over slices shrugs off a burst of interference confined to one
    slice, where a whole-phase mean would carry it.
    """
    width = duration / windows
    counts = [0] * windows
    for done in result.done_at:
        slot = int((done - result.started) / width)
        if 0 <= slot < windows:
            counts[slot] += 1
    return median([count / width for count in counts])

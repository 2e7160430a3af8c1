"""Launch, probe and stop a real ``python -m repro serve`` process.

Every serve phase starts a fresh server and stops it with SIGTERM.  The
stop asserts exit code 0 and that no shared-memory segment the server
created (``/dev/shm/repro-seg-*``) outlives it.  Memory is read from
``/proc`` as the proportional set size of the server and all of its
descendants (workers share the index segment, so plain RSS would count
it once per process).
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from env import child_env
from http_client import request

SHM_DIR = Path("/dev/shm")
SEGMENT_GLOB = "repro-seg-*"
_SERVING = re.compile(r"serving on http://([0-9.]+):(\d+)")
_STARTUP_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0


class ServerError(RuntimeError):
    """The server failed to start, answer its probes, or stop cleanly."""


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently present."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob(SEGMENT_GLOB)}


class Server:
    """One ``repro serve`` process over an index file."""

    def __init__(
        self,
        index: Path,
        work: Path,
        *,
        workers: int,
        shards: int = 0,
        trace: bool = False,
    ) -> None:
        self.argv = [
            sys.executable, "-m", "repro", "serve", str(index),
            "--port", "0", "--workers", str(workers),
        ]
        if shards:
            self.argv += ["--shards", str(shards)]
        if trace:
            self.argv.append("--trace")
        self.work = work
        self.host = "127.0.0.1"
        self.port = 0
        self.proc: "subprocess.Popen | None" = None
        self.setup_s = 0.0
        self._segments_before: set[str] = set()

    def start(self) -> "Server":
        """Launch and wait for the first 200 on ``/healthz``.

        ``setup_s`` is the time from launch to that first 200: interpreter
        start, index open, shared-memory publish, worker spawn and bind.
        """
        self._segments_before = shm_segments()
        log = self.work / f"server-{time.monotonic_ns()}.log"
        self._log = log
        started = time.perf_counter()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                self.argv, stdout=out, stderr=subprocess.STDOUT,
                env=child_env(self.work), cwd=str(self.work),
            )
        deadline = started + _STARTUP_TIMEOUT
        while not self.port:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited during startup:\n{self.log_text()}")
            if time.perf_counter() > deadline:
                self.kill()
                raise ServerError("server did not announce its port in time")
            match = _SERVING.search(log.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.002)
        while request(self.host, self.port, "GET", "/healthz", timeout=5.0).status != 200:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.kill()
                raise ServerError(f"/healthz never answered 200:\n{self.log_text()}")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        return self

    def log_text(self) -> str:
        try:
            return self._log.read_text(errors="replace")[-4000:]
        except OSError:
            return ""

    # ------------------------------------------------------------------
    def metrics(self) -> "dict[str, float]":
        """``/metrics`` as ``{series{labels}: value}``."""
        reply = request(self.host, self.port, "GET", "/metrics")
        if reply.status != 200:
            raise ServerError(f"GET /metrics answered {reply.status}")
        series = {}
        for line in reply.body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        return series

    def pss_mb(self) -> float:
        """Proportional set size of the server and its descendants, in MiB."""
        assert self.proc is not None
        return pss_mb_of([self.proc.pid, *descendants(self.proc.pid)])

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """SIGTERM, then require exit 0 and no leftover shm segment."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        children = descendants(proc.pid)
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ServerError("server ignored SIGTERM") from None
        if code != 0:
            raise ServerError(f"server exited with {code} after SIGTERM:\n{self.log_text()}")
        deadline = time.perf_counter() + _STOP_TIMEOUT
        while any(_running(pid) for pid in children):
            if time.perf_counter() > deadline:
                raise ServerError(f"server processes outlived it: {children}")
            time.sleep(0.01)
        leaked = shm_segments() - self._segments_before
        if leaked:
            raise ServerError(f"server left shared memory behind: {sorted(leaked)}")

    def kill(self) -> None:
        """Stop on an error path, without assertions.

        SIGTERM first, so the server still unlinks its shared memory and
        stops its workers; SIGKILL only when it does not exit in time.
        """
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def descendants(pid: int) -> list[int]:
    """Every process below ``pid`` (workers, resource tracker)."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        fields = text[text.rfind(")") + 2 :].split()
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive (a zombie awaiting its reaper has ended)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return text[text.rfind(")") + 2] != "Z"


def _pss_kb(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    match = re.search(r"^Pss:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def pss_mb_of(pids: "list[int]") -> float:
    """Proportional set size of the given processes, in MiB."""
    return sum(_pss_kb(pid) for pid in pids) / 1024.0

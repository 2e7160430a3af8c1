"""The three workloads and their end-to-end measurements.

``serve-point``   open loop of ``GET /query`` (one uniform pair each) against
                  a fresh unsharded ``repro serve --workers <nproc>``: latency
                  at a fixed offered rate, then the highest rate that meets
                  the p99 limit without a growing backlog.
``serve-batch``   closed loop of ``POST /query_batch`` (1,024 uniform pairs
                  each) against a fresh ``--shards 2`` server.
``build``         in-process parallel builds of the dense IN stand-in (time
                  in the distance rounds) and the small FB stand-in (time in
                  worker spawn), every index checked bit-identical.

Each phase returns a :class:`Phase`: the end-to-end metrics plus the raw
material (server counters, build profiles) the traced run turns into
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from env import quantile
from http_client import (
    LoopResult,
    backlog_grew,
    closed_loop,
    open_loop,
    request,
    windowed_rate,
)
from oracle import (
    build_config,
    build_serve_index,
    expected_answers,
    same_store,
    store_arrays,
    uniform_pairs,
)
from server import Server, descendants, pss_mb_of

from repro.api import build_index
from repro.experiments.datasets import load_dataset

#: Offered rate (requests/s) for the point-latency percentiles: a
#: bit under half of what two connections sustain on a 2-CPU host.
FIXED_RATE = 150.0
#: Seconds of traffic before a serve phase's timed part (answers checked).
WARMUP_S = 1.0
#: p99 limit a rate must meet to count towards the highest sustained rate.
P99_LIMIT_S = 0.050
#: Share of a serve-point phase spent at the fixed rate; the rest searches
#: for the highest sustained rate.
FIXED_SHARE = 0.8
#: Share of the rate search spent measuring back-to-back capacity, and the
#: ladder's rung as a fraction of that capacity (rungs: 95%, 90%, ...).
CAPACITY_SHARE = 0.3
LADDER_STEP = 0.05
#: Generator wake-up lateness above which a run is invalid.  Taken at p90:
#: a stray hiccup of the client delays a few sends, a generator that falls
#: behind delays most of them.
LATE_LIMIT_S = 0.005
#: Pairs per ``POST /query_batch``.
BATCH_PAIRS = 1024
#: Distinct point pairs / batch bodies cycled through by the load client.
POINT_PAIRS = 8192
BATCH_BODIES = 32
#: Server launches per serve phase; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Dataset loads per build phase; ``setup_s`` is their median.
SETUP_LOADS = 9
#: Build jobs per build phase at least, whatever the time budget.
MIN_BUILDS = 3
#: Shards of the serve-batch server.
BATCH_SHARDS = 2


class InvalidRun(RuntimeError):
    """The load generator, not the system, set the pace."""


@dataclass
class Ctx:
    """What every phase needs: scratch dir, seed, budget, concurrency."""

    work: Path
    seed: int
    seconds: float
    conns: int
    #: smoke self-test: corrupt one expected answer to prove it is caught
    corrupt: bool = False


@dataclass
class Phase:
    """One measured phase: end-to-end metrics, op counts, layer material."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: raw samples and counters the traced run derives layer metrics from
    layers: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    """The served index file and the seeded traffic with expected answers."""

    path: Path
    #: bytes of the packed label arrays the server maps
    index_bytes: int
    point_pairs: np.ndarray
    point_expected: np.ndarray
    batch_pairs: np.ndarray
    batch_expected: np.ndarray
    #: pre-encoded ``POST /query_batch`` bodies, one per batch
    bodies: list


def prepare_serve(ctx: Ctx) -> ServeInputs:
    """Build and save the IN index, draw the traffic, compute the answers."""
    path, index = build_serve_index(ctx.work)
    rng = np.random.default_rng(ctx.seed)
    point = uniform_pairs(index.n, POINT_PAIRS, rng)
    batch = uniform_pairs(index.n, BATCH_BODIES * BATCH_PAIRS, rng)
    inputs = ServeInputs(
        path=path,
        index_bytes=index.store.nbytes(),
        point_pairs=point,
        point_expected=expected_answers(path, point),
        batch_pairs=batch,
        batch_expected=expected_answers(path, batch),
        bodies=[
            json.dumps({"pairs": chunk.tolist()}).encode()
            for chunk in batch.reshape(BATCH_BODIES, BATCH_PAIRS, 2)
        ],
    )
    if ctx.corrupt:
        inputs.point_expected[0, 1] += 1
        inputs.batch_expected[0, 1] += 1
    return inputs


def launch(ctx: Ctx, inputs: ServeInputs, *, shards: int, trace: bool, launches: int) -> "tuple[Server, float]":
    """Start ``launches`` fresh servers, keep the last; median set-up time."""
    setups = []
    for attempt in range(launches):
        server = Server(inputs.path, ctx.work, workers=ctx.conns, shards=shards, trace=trace)
        server.start()
        setups.append(server.setup_s)
        if attempt < launches - 1:
            server.stop()
    return server, median(setups)


def _point_io(inputs: ServeInputs, server: Server, offset: int, trace: bool):
    pairs, expected = inputs.point_pairs, inputs.point_expected

    def send(i: int):
        j = (offset + i) % len(pairs)
        headers = {"X-Repro-Trace-Id": f"{offset + i:016x}"} if trace else None
        return request(
            server.host, server.port, "GET",
            f"/query?s={pairs[j, 0]}&t={pairs[j, 1]}", headers=headers,
        )

    def check(i: int, reply) -> bool:
        if reply.status != 200:
            return False
        j = (offset + i) % len(pairs)
        try:
            body = json.loads(reply.body)
            return (
                body["s"] == pairs[j, 0] and body["t"] == pairs[j, 1]
                and body["dist"] == expected[j, 0] and body["count"] == expected[j, 1]
            )
        except (ValueError, KeyError, TypeError):
            return False

    return send, check


def _batch_io(inputs: ServeInputs, server: Server):
    bodies = inputs.bodies
    expected = inputs.batch_expected.reshape(BATCH_BODIES, BATCH_PAIRS, 2)

    def send(i: int):
        return request(
            server.host, server.port, "POST", "/query_batch", body=bodies[i % BATCH_BODIES]
        )

    def check(i: int, reply) -> bool:
        if reply.status != 200:
            return False
        try:
            results = json.loads(reply.body)["results"]
            got = np.array([(r["dist"], r["count"]) for r in results], dtype=np.int64)
        except (ValueError, KeyError, TypeError, OverflowError):
            return False
        return got.shape == (BATCH_PAIRS, 2) and bool(
            np.array_equal(got, expected[i % BATCH_BODIES])
        )

    return send, check


def _phase_ok(result: LoopResult) -> bool:
    """A rate probe passes: no failure, p99 within the limit, no backlog."""
    return (
        result.failed == 0
        and quantile(result.latency_s, 0.99) <= P99_LIMIT_S
        and not backlog_grew(result, P99_LIMIT_S)
    )


def serve_point(
    ctx: Ctx,
    inputs: ServeInputs,
    seconds: float,
    *,
    trace: bool = False,
    launches: int = SETUP_LAUNCHES,
    sweep: bool = True,
) -> Phase:
    """Point latency at the fixed rate, then the highest sustained rate.

    ``sweep=False`` (a short layer probe) spends all of ``seconds`` at the
    fixed rate and reports no sustained rate.
    """
    server, setup_s = launch(ctx, inputs, shards=0, trace=trace, launches=launches)
    phase = Phase()
    try:
        send, check = _point_io(inputs, server, 0, trace)
        warmup = open_loop(send, check, FIXED_RATE, WARMUP_S, ctx.conns)
        offset = warmup.attempted
        before = server.metrics()
        send, check = _point_io(inputs, server, offset, trace)
        fixed_s = seconds * FIXED_SHARE if sweep else seconds
        fixed = open_loop(send, check, FIXED_RATE, max(fixed_s - WARMUP_S, 1.0), ctx.conns)
        offset += fixed.attempted
        late = quantile(fixed.late_s, 0.9)
        if late > LATE_LIMIT_S:
            raise InvalidRun(
                f"load generator ran {late * 1e3:.2f} ms late at p90 "
                f"(limit {LATE_LIMIT_S * 1e3:.1f} ms)"
            )
        loops = [fixed]
        sustained = FIXED_RATE if _phase_ok(fixed) else 0.0
        if sweep:
            # highest sustained rate: what the same connections carry back
            # to back, then a ladder of open-loop probes down from just
            # under it; the first probe that passes ends the search, so one
            # probe failed by a stray stall costs one rung, not half the range
            budget = seconds * (1.0 - FIXED_SHARE)
            send, check = _point_io(inputs, server, offset, trace)
            capacity = closed_loop(send, check, budget * CAPACITY_SHARE, ctx.conns)
            offset += capacity.attempted
            loops.append(capacity)
            ceiling = windowed_rate(capacity, budget * CAPACITY_SHARE)
            probe_s = budget * (1.0 - CAPACITY_SHARE) / 3
            for step in range(1, 1 + int(1.0 / LADDER_STEP)):
                rate = ceiling * (1.0 - step * LADDER_STEP)
                if rate <= sustained:
                    break
                send, check = _point_io(inputs, server, offset, trace)
                probe = open_loop(send, check, rate, probe_s, ctx.conns)
                offset += probe.attempted
                loops.append(probe)
                if _phase_ok(probe):
                    sustained = rate
                    break
        after = server.metrics()
        phase.metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": quantile(fixed.latency_s, 0.5) * 1e3,
            "latency_p95_ms": quantile(fixed.latency_s, 0.95) * 1e3,
            "throughput_per_s": sustained,
            "rss_mb": server.pss_mb(),
            "index_bytes": float(inputs.index_bytes),
        }
        phase.attempted = warmup.attempted + sum(loop.attempted for loop in loops)
        phase.failed = warmup.failed + sum(loop.failed for loop in loops)
        phase.layers = {
            "loops": loops,
            "fixed": fixed,
            "metrics_delta": _delta(before, after),
            "samples": len(fixed.latency_s),
            "latency_s": fixed.latency_s,
        }
    except BaseException:
        server.kill()
        raise
    server.stop()
    return phase


def serve_batch(ctx: Ctx, inputs: ServeInputs, seconds: float, *, trace: bool = False, launches: int = SETUP_LAUNCHES) -> Phase:
    """Closed loop of 1,024-pair batches on the sharded path."""
    server, setup_s = launch(ctx, inputs, shards=BATCH_SHARDS, trace=trace, launches=launches)
    phase = Phase()
    try:
        send, check = _batch_io(inputs, server)
        warmup = closed_loop(send, check, WARMUP_S, ctx.conns)
        before = server.metrics()
        measured_s = max(seconds - WARMUP_S, 1.0)
        loop = closed_loop(send, check, measured_s, ctx.conns)
        after = server.metrics()
        phase.metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": quantile(loop.latency_s, 0.5) * 1e3,
            "latency_p95_ms": quantile(loop.latency_s, 0.95) * 1e3,
            "throughput_per_s": windowed_rate(loop, measured_s) * BATCH_PAIRS,
            "rss_mb": server.pss_mb(),
            "index_bytes": float(inputs.index_bytes),
        }
        phase.attempted = warmup.attempted + loop.attempted
        phase.failed = warmup.failed + loop.failed
        phase.layers = {
            "loops": [loop],
            "metrics_delta": _delta(before, after),
            "samples": len(loop.latency_s),
            "latency_s": loop.latency_s,
            "pairs_per_request": BATCH_PAIRS,
        }
    except BaseException:
        server.kill()
        raise
    server.stop()
    return phase


def _delta(before: "dict[str, float]", after: "dict[str, float]") -> "dict[str, float]":
    """Counter growth between two ``/metrics`` scrapes."""
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------
#: One build job indexes both stand-ins: the dense one spends its time in
#: the distance rounds, the small one in worker spawn.
BUILD_DATASETS = ("IN", "FB")


@dataclass
class BuildInputs:
    """The graphs of one build job and their vectorized reference stores."""

    graphs: dict
    references: dict
    reference_stats: dict
    setup_s: float


def prepare_build(ctx: Ctx, profile: bool = False) -> BuildInputs:
    """Time the dataset loads and build the vectorized reference stores."""
    loads = []
    for _ in range(SETUP_LOADS):
        load_dataset.cache_clear()
        start = time.perf_counter()
        graphs = {key: load_dataset(key) for key in BUILD_DATASETS}
        loads.append(time.perf_counter() - start)
    references, reference_stats = {}, {}
    for key, graph in graphs.items():
        reference = build_index(graph, config=build_config("vectorized", profile=profile))
        references[key] = store_arrays(reference)
        reference_stats[key] = reference.stats
    if ctx.corrupt:
        indptr, hubs, dists, counts = references["FB"]
        counts = counts.copy()
        counts[0] += 1
        references["FB"] = (indptr, hubs, dists, counts)
    return BuildInputs(graphs, references, reference_stats, median(loads))


class _PeakMemory:
    """Samples the PSS of this process and its workers while builds run."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, pss_mb_of([me, *descendants(me)]))
            self._stop.wait(self.interval)

    def __enter__(self) -> "_PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()


def build_phase(
    ctx: Ctx,
    inputs: BuildInputs,
    seconds: float,
    *,
    profile: bool = False,
    min_jobs: int = MIN_BUILDS,
) -> Phase:
    """Repeated build jobs, every index checked bit-identical to its reference.

    A job is one parallel build (``workers=<nproc>``, 20 landmarks) of each
    dataset in :data:`BUILD_DATASETS`; its latency is their sum.
    """
    phase = Phase()
    jobs: list[float] = []
    per_key: dict = {key: [] for key in BUILD_DATASETS}
    stats: dict = {key: [] for key in BUILD_DATASETS}
    entries = 0
    index_bytes = 0
    with _PeakMemory() as memory:
        start = time.perf_counter()
        while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
            job = 0.0
            index_bytes = 0
            for key in BUILD_DATASETS:
                began = time.perf_counter()
                built = build_index(
                    inputs.graphs[key],
                    config=build_config("parallel", workers=ctx.conns, profile=profile),
                )
                elapsed = time.perf_counter() - began
                job += elapsed
                per_key[key].append(elapsed)
                stats[key].append(built.stats)
                phase.attempted += 1
                if not same_store(store_arrays(built), inputs.references[key]):
                    phase.failed += 1
                entries += built.total_entries()
                index_bytes += built.store.nbytes()
            jobs.append(job)
    phase.metrics = {
        "setup_s": inputs.setup_s,
        "latency_p50_ms": quantile(jobs, 0.5) * 1e3,
        "latency_p95_ms": quantile(jobs, 0.95) * 1e3,
        # label entries per second at the median job (every job builds
        # the same entries, so this is the median, not a mean, of the rate)
        "throughput_per_s": entries / len(jobs) / quantile(jobs, 0.5),
        "rss_mb": memory.peak_mb,
        "index_bytes": float(index_bytes),
    }
    phase.layers = {
        "build_stats": stats,
        "build_times": per_key,
        "samples": len(jobs),
        "latency_s": jobs,
    }
    return phase

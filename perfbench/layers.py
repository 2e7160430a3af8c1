"""Per-layer metrics for the traced run.

Everything here is measured from outside the program: timed calls into each
layer's public functions (``open_index``, ``ShmIndexSegment.publish``,
``WorkerPool``, ``GatherEvaluator``, a compact store's ``query_batch``),
the counters a ``repro serve --trace`` server already exposes on
``/metrics``, and the ``BuildStats`` a ``profile=True`` build returns.

A metric comes from the workload's own traffic when the workload exercises
that layer (``source`` = ``workload``); otherwise from a short probe
(``source`` = ``probe``), so every traced run reports every metric.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from env import quantile

#: (name, unit, layer, end-to-end metric it should move, on which workload)
METRICS = (
    ("client.gen_late_ms", "ms", "client", "none: p99 generator lateness, must stay small"),
    ("trace.overhead_p50_ms", "ms", "obs.trace", "traced minus untraced latency_p50_ms, this workload"),
    ("trace.overhead_throughput_frac", "frac", "obs.trace", "untraced minus traced throughput_per_s over untraced, this workload"),
    ("http.connect_ms", "ms", "serve.http", "latency_p50_ms (serve-point), throughput_per_s (serve-batch)"),
    ("http.edge_ms", "ms", "serve.http", "latency_p50_ms (serve-point), throughput_per_s (serve-batch)"),
    ("http.span_coverage", "frac", "serve.http", "none: share of client time inside server spans"),
    ("http.response_bytes_per_pair", "B/pair", "serve.http", "throughput_per_s (serve-batch)"),
    ("admission.wait_ms", "ms", "serve.async_service", "latency_p50_ms (serve-point); not serve-batch"),
    ("admission.pairs_per_flush", "pairs", "serve.async_service", "latency_p50_ms (serve-point); not serve-batch"),
    ("admission.timeout_flush_frac", "frac", "serve.async_service", "latency_p50_ms (serve-point); not serve-batch"),
    ("pool.pipe_ms", "ms", "serve.pool", "throughput_per_s (serve-batch)"),
    ("pool.batch_ms_1024", "ms", "serve.pool", "throughput_per_s (serve-batch)"),
    ("pool.fallback_queries", "count", "serve.pool", "throughput_per_s (serve-batch)"),
    ("pool.dispatch_retries", "count", "serve.pool", "throughput_per_s (serve-batch)"),
    ("pool.spawn_ms", "ms", "serve.pool", "setup_s (serve-*)"),
    ("router.straddle_frac", "frac", "serve.router", "throughput_per_s (serve-batch); not serve-point"),
    ("router.batch_ms_1024", "ms", "serve.router", "throughput_per_s (serve-batch); not serve-point"),
    ("kernel.call_us", "us", "core.engine", "latency_p50_ms (serve-point)"),
    ("kernel.us_per_pair_1024", "us", "core.engine", "throughput_per_s (serve-batch)"),
    ("kernel.entries_per_pair", "entries", "core.engine", "throughput_per_s (serve-batch)"),
    ("store.open_ms", "ms", "core.store", "setup_s (serve-*)"),
    ("shm.publish_ms", "ms", "serve.shm", "setup_s (serve-*)"),
    ("build.dense_s", "s", "core.procbuild", "latency_p50_ms (build): the IN share of a job"),
    ("build.small_s", "s", "core.procbuild", "latency_p50_ms (build): the FB share of a job"),
    ("build.spawn_s", "s", "core.procbuild", "latency_p50_ms (build), mostly via build.small_s"),
    ("build.iter_s", "s", "core.procbuild", "latency_p50_ms (build), via build.dense_s"),
    ("build.commit_s", "s", "core.procbuild", "latency_p50_ms (build), via build.dense_s"),
    ("build.republish_s", "s", "core.procbuild", "latency_p50_ms (build), via build.dense_s"),
    ("build.pull_merge_s", "s", "core.fastbuild", "latency_p50_ms (build), via build.dense_s"),
    ("build.query_rule_s", "s", "core.fastbuild", "latency_p50_ms (build), via build.dense_s"),
    ("build.landmarks_s", "s", "core.landmarks", "latency_p50_ms (build)"),
    ("build.accept_frac", "frac", "core.procbuild", "none: accepted labels over candidates"),
)

#: The build job's dense and small datasets.
DENSE, SMALL = "IN", "FB"
#: Repetitions of each timed direct call.
OPEN_REPEATS = 20
KERNEL_CALLS = 400
BATCH_CALLS = 20
PUBLISH_REPEATS = 5
SPAWN_REPEATS = 2


class Layer(dict):
    """``{metric: (value, samples, source)}`` with a small adder."""

    def put(self, name: str, value: float, samples: int, source: str) -> None:
        self[name] = (float(value), int(samples), source)


# ----------------------------------------------------------------------
# from traffic against a traced server
# ----------------------------------------------------------------------
def _series(delta: dict, name: str, **labels: str) -> float:
    key = name + ("{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}" if labels else "")
    return delta.get(key, 0.0)


def point_traffic(phase, source: str) -> Layer:
    """Layers of a traced ``GET /query`` phase (HTTP edge and admission)."""
    out = Layer()
    loops, fixed, delta = phase.layers["loops"], phase.layers["fixed"], phase.layers["metrics_delta"]
    service = [s for loop in loops for s in loop.service_s]
    connect = [s for loop in loops for s in loop.connect_s]
    total_sum = _series(delta, "repro_span_latency_seconds_sum", span="total")
    total_count = _series(delta, "repro_span_latency_seconds_count", span="total")
    wait_sum = _series(delta, "repro_span_latency_seconds_sum", span="admission_wait")
    wait_count = _series(delta, "repro_span_latency_seconds_count", span="admission_wait")
    batches = _series(delta, "repro_batches_total")
    out.put("client.gen_late_ms", quantile(fixed.late_s, 0.99) * 1e3, len(fixed.late_s), source)
    out.put("http.connect_ms", median(connect) * 1e3, len(connect), source)
    out.put("http.edge_ms", (sum(service) / len(service) - total_sum / max(total_count, 1)) * 1e3, len(service), source)
    out.put("http.span_coverage", total_sum / sum(service), len(service), source)
    out.put("http.response_bytes_per_pair", sum(loop.response_bytes for loop in loops) / len(service), len(service), source)
    out.put("admission.wait_ms", wait_sum / max(wait_count, 1) * 1e3, int(wait_count), source)
    out.put("admission.pairs_per_flush", _series(delta, "repro_queries_total") / max(batches, 1), int(batches), source)
    out.put("admission.timeout_flush_frac", _series(delta, "repro_flushes_total", reason="timeout") / max(batches, 1), int(batches), source)
    _pool_counters(out, delta, source)
    return out


def batch_traffic(phase, source: str) -> Layer:
    """Layers of a ``POST /query_batch`` phase (HTTP edge only: the bulk
    path carries no spans, so the server's own request-latency histogram
    stands in for the ``total`` span)."""
    out = Layer()
    (loop,), delta = phase.layers["loops"], phase.layers["metrics_delta"]
    server_sum = _series(delta, "repro_request_latency_seconds_sum")
    server_count = _series(delta, "repro_request_latency_seconds_count")
    service = loop.service_s
    out.put("http.connect_ms", median(loop.connect_s) * 1e3, len(loop.connect_s), source)
    out.put("http.edge_ms", (sum(service) / len(service) - server_sum / max(server_count, 1)) * 1e3, len(service), source)
    out.put("http.span_coverage", server_sum / sum(service), len(service), source)
    out.put("http.response_bytes_per_pair", loop.response_bytes / (len(service) * phase.layers["pairs_per_request"]), len(service), source)
    _pool_counters(out, delta, source)
    return out


def _pool_counters(out: Layer, delta: dict, source: str) -> None:
    out.put("pool.fallback_queries", _series(delta, "repro_pool_fallback_queries_total"), 1, source)
    out.put("pool.dispatch_retries", _series(delta, "repro_pool_dispatch_retries_total"), 1, source)


# ----------------------------------------------------------------------
# timed calls into the layers' public functions
# ----------------------------------------------------------------------
def _answers(results) -> np.ndarray:
    return np.array([(r.dist, r.count) for r in results], dtype=np.int64).reshape(-1, 2)


class _Checked:
    """Counts direct calls and wrong answers among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, results, expected: np.ndarray) -> None:
        self.attempted += 1
        if not np.array_equal(_answers(results), expected):
            self.failed += 1


def direct_probes(ctx, inputs) -> "tuple[Layer, _Checked]":
    """Store, kernel, shm, pool and router costs on the served index."""
    from repro.api import open_index
    from repro.core import store as store_module
    from repro.serve.pool import WorkerPool
    from repro.serve.router import GatherEvaluator
    from repro.serve.shm import ShmIndexSegment, ShmSegmentFleet

    out, checked = Layer(), _Checked()
    # the serve-batch bodies' pairs, as arrays: 1,024 pairs per call
    batches = inputs.batch_pairs.reshape(len(inputs.bodies), -1, 2)
    expected = inputs.batch_expected.reshape(len(inputs.bodies), -1, 2)
    flat_pairs, flat_expected = inputs.batch_pairs, inputs.batch_expected

    opens = []
    for _ in range(OPEN_REPEATS):
        start = time.perf_counter()
        counter = open_index(inputs.path, mmap=True)
        opens.append(time.perf_counter() - start)
        counter.close()
    out.put("store.open_ms", median(opens) * 1e3, len(opens), "probe")

    counter = open_index(inputs.path, mmap=True)
    segment = fleet = pool = None
    try:
        store = counter.store
        calls = []
        for i in range(KERNEL_CALLS):
            pair = flat_pairs[2 * i : 2 * i + 2]
            start = time.perf_counter()
            results = store.query_batch(pair)
            calls.append(time.perf_counter() - start)
            checked.check(results, flat_expected[2 * i : 2 * i + 2])
        out.put("kernel.call_us", median(calls) * 1e6, len(calls), "probe")
        out.put("kernel.us_per_pair_1024", _timed_batches(store.query_batch, batches, expected, checked) * 1e6 / 1024, BATCH_CALLS, "probe")
        sizes = np.diff(np.asarray(store.indptr))
        out.put("kernel.entries_per_pair", float(np.mean(sizes[flat_pairs[:, 0]] + sizes[flat_pairs[:, 1]])), len(flat_pairs), "probe")

        publishes = []
        for _ in range(PUBLISH_REPEATS):
            start = time.perf_counter()
            published = ShmIndexSegment.publish(counter)
            publishes.append(time.perf_counter() - start)
            published.close()
            published.unlink()
        out.put("shm.publish_ms", median(publishes) * 1e3, len(publishes), "probe")

        segment = ShmIndexSegment.publish(counter)
        spawns = []
        for attempt in range(SPAWN_REPEATS):
            start = time.perf_counter()
            pool = WorkerPool(segment=segment, workers=ctx.conns)
            spawns.append(time.perf_counter() - start)
            if attempt < SPAWN_REPEATS - 1:
                pool.close()
        out.put("pool.spawn_ms", median(spawns) * 1e3, len(spawns), "probe")
        totals, pipes = [], []
        for k in range(BATCH_CALLS):
            kernel_before = [row["kernel_s"] for row in pool.stats()["per_worker"]]
            start = time.perf_counter()
            results = pool.query_batch(batches[k % len(batches)])
            total = time.perf_counter() - start
            kernel_after = [row["kernel_s"] for row in pool.stats()["per_worker"]]
            checked.check(results, expected[k % len(batches)])
            totals.append(total)
            pipes.append(total - max(a - b for a, b in zip(kernel_after, kernel_before)))
        out.put("pool.batch_ms_1024", median(totals) * 1e3, len(totals), "probe")
        out.put("pool.pipe_ms", median(pipes) * 1e3, len(pipes), "probe")

        fleet = ShmSegmentFleet.publish(counter, shards=2)
        evaluator = GatherEvaluator(fleet)
        out.put("router.batch_ms_1024", _timed_batches(evaluator.query_batch, batches, expected, checked) * 1e3, BATCH_CALLS, "probe")
        homes = store_module.shard_of(fleet.bounds, flat_pairs)
        out.put("router.straddle_frac", float(np.mean(homes[:, 0] != homes[:, 1])), len(flat_pairs), "probe")
    finally:
        if pool is not None:
            pool.close()
        for published in (segment, fleet):
            if published is not None:
                published.close()
                published.unlink()
        counter.close()
    return out, checked


def _timed_batches(call, batches: np.ndarray, expected: np.ndarray, checked: _Checked) -> float:
    """Median seconds of ``BATCH_CALLS`` calls over the probe's batches."""
    times = []
    for k in range(BATCH_CALLS):
        start = time.perf_counter()
        results = call(batches[k % len(batches)])
        times.append(time.perf_counter() - start)
        checked.check(results, expected[k % len(batches)])
    return median(times)


# ----------------------------------------------------------------------
# build profiles
# ----------------------------------------------------------------------
def build_profiles(phase, vectorized: dict, source: str) -> Layer:
    """Phase times of a profiled build phase and the vectorized references.

    ``phase`` is a :func:`workloads.build_phase` run with ``profile=True``;
    ``vectorized`` maps dataset keys to the reference builds' ``BuildStats``.
    Spawn is taken over every parallel build; the distance-round phases,
    landmarks and the acceptance ratio from the dense dataset's builds.
    """
    out = Layer()
    stats, times = phase.layers["build_stats"], phase.layers["build_times"]
    dense = stats[DENSE]

    def engine(one, name: str) -> float:
        return one.profile.get("engine_phases", {}).get(name, 0.0)

    every = [one for key in stats for one in stats[key]]
    out.put("build.dense_s", median(times[DENSE]), len(times[DENSE]), source)
    out.put("build.small_s", median(times[SMALL]), len(times[SMALL]), source)
    out.put("build.spawn_s", median([one.phase("spawn") for one in every]), len(every), source)
    out.put("build.landmarks_s", median([one.phase("landmarks") for one in dense]), len(dense), source)
    for name in ("iter", "commit", "republish"):
        out.put(f"build.{name}_s", median([engine(one, name) for one in dense]), len(dense), source)
    for name in ("pull_merge", "query_rule"):
        out.put(f"build.{name}_s", engine(vectorized[DENSE], name), 1, source)
    ratios = []
    for one in dense:
        accepted = sum(one.iteration_labels)
        ratios.append(accepted / (accepted + one.pruned_by_rank + one.pruned_by_query))
    out.put("build.accept_frac", median(ratios), len(ratios), source)
    return out


def render(layer: Layer, workload: str) -> str:
    """The per-layer table printed above the traced run's JSON line."""
    lines = [
        f"per-layer metrics, workload {workload}",
        f"{'layer':<20} {'metric':<32} {'value':>12} {'unit':<8} {'n':>6} {'source':<8} moves",
    ]
    for name, unit, module, moves in METRICS:
        value, samples, source = layer[name]
        lines.append(f"{module:<20} {name:<32} {value:>12.4f} {unit:<8} {samples:>6} {source:<8} {moves}")
    return "\n".join(lines)

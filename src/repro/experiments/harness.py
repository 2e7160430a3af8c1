"""Experiment harness: one function per table/figure of the paper.

Every function returns a list of plain-dict rows (JSON-friendly) and is
invoked by the corresponding module under ``benchmarks/`` as well as by the
CLI (``python -m repro bench``).  Wall-clock numbers are measured on the
single-threaded builds; multi-thread numbers ("PSPC+", the speedup curves)
come from the deterministic work-unit simulation described in
:mod:`repro.core.parallel`:

``simulated_seconds(t) = serial_phases + construction_seconds *
sim_units(t) / sim_units(1)``

i.e. the measured construction wall-clock is scaled by the simulated
parallel efficiency, while the ordering and landmark phases (serial in the
paper too) are charged in full.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.index import PSPCIndex
from repro.core.parallel import simulated_build_units, simulated_query_units
from repro.core.queries import spc_query
from repro.experiments.datasets import dataset_names, load_dataset, random_query_pairs
from repro.graph.properties import graph_stats
from repro.ordering.hybrid import DEFAULT_DELTA

__all__ = [
    "DEFAULT_THREADS",
    "DEFAULT_QUERY_COUNT",
    "exp_table3_datasets",
    "exp_indexing_time",
    "exp_build_engines",
    "exp_build_engines_directed",
    "exp_build_parallel",
    "exp_build_parallel_directed",
    "exp_index_size",
    "exp_query_time",
    "exp_query_batch",
    "exp_query_service",
    "exp_serve_scaling",
    "exp_serve_chaos",
    "exp_build_speedup",
    "exp_query_speedup",
    "exp_ablation_landmarks",
    "exp_ablation_schedule",
    "exp_ablation_order",
    "exp_delta_effect",
    "exp_landmark_count",
    "exp_time_breakdown",
    "format_rows",
]

#: "PSPC+" in the paper is PSPC on 20 threads.
DEFAULT_THREADS = 20
#: Queries per dataset (the paper uses 10k-100k; see DESIGN.md substitutions).
DEFAULT_QUERY_COUNT = 2000
#: Ordering used for the headline experiments.
DEFAULT_ORDERING = "degree"
#: Landmark count (paper Section V-A default).
DEFAULT_LANDMARKS = 100


#: Cache of built indexes shared across experiments within one process, so
#: that e.g. the Fig. 6 size table reuses the indexes timed for Fig. 5.
_INDEX_CACHE: dict[tuple, tuple[PSPCIndex, float]] = {}


def clear_cache() -> None:
    """Drop all cached indexes (used by tests and long sweeps)."""
    _INDEX_CACHE.clear()


def _build(
    graph,
    builder: str,
    ordering=DEFAULT_ORDERING,
    cache_key: str | None = None,
    fresh: bool = False,
    **kwargs,
):
    """Build and return ``(index, wall_seconds)`` including ordering time.

    When ``cache_key`` (a dataset key) is given, results are memoised on
    ``(dataset, builder, ordering, landmarks, engine)``; ``fresh=True``
    forces a rebuild (for experiments whose *point* is the wall-clock) but
    still stores the result for later experiments to reuse.

    The harness defaults to the **reference** build engine: the paper's
    figures are defined in terms of its loops (push-paradigm work units,
    wall-clock shape), and every experiment stays comparable with the seed
    numbers.  Experiments that showcase the vectorized build path pass
    ``engine="vectorized"`` explicitly.
    """
    kwargs.setdefault("engine", "reference")
    ordering_name = ordering if isinstance(ordering, str) else ordering.strategy
    key = (
        cache_key,
        builder,
        ordering_name,
        kwargs.get("num_landmarks", 0),
        kwargs["engine"],
    )
    if cache_key is not None and not fresh and key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    start = time.perf_counter()
    index = PSPCIndex.build(graph, ordering=ordering, builder=builder, **kwargs)
    result = (index, time.perf_counter() - start)
    if cache_key is not None:
        _INDEX_CACHE[key] = result
    return result


def _simulated_seconds(index: PSPCIndex, threads: int, schedule: str = "dynamic") -> float:
    """Projected wall-clock on ``threads`` threads (see module docstring).

    The ordering phase is serial; the landmark phase is a set of independent
    BFS runs, so it parallelises up to ``min(threads, num_landmarks)``.
    """
    stats = index.stats
    landmark_workers = max(1, min(threads, stats.num_landmarks))
    serial = stats.phase("order") + stats.phase("landmarks") / landmark_workers
    construction = stats.phase("construction")
    if threads == 1 or not stats.iteration_costs:
        return serial + construction
    base = simulated_build_units(stats, index.order, 1, schedule)
    target = simulated_build_units(stats, index.order, threads, schedule)
    return serial + construction * (target / base)


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def exp_table3_datasets(keys: Sequence[str] | None = None) -> list[dict]:
    """Stand-in dataset statistics (Table III)."""
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        stats = graph_stats(graph, name=key)
        rows.append(
            {
                "dataset": key,
                "V": stats.n,
                "E": stats.m,
                "davg": round(stats.avg_degree, 1),
                "diameter_lb": stats.diameter_lb,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Exp 1 / Fig 5 — indexing time
# ----------------------------------------------------------------------
def exp_indexing_time(
    keys: Sequence[str] | None = None,
    threads: int = DEFAULT_THREADS,
    num_landmarks: int = DEFAULT_LANDMARKS,
    engine: str = "reference",
) -> list[dict]:
    """Indexing time (s): HP-SPC vs PSPC (1 thread) vs PSPC+ (simulated).

    ``engine`` selects the PSPC label-construction engine; the default
    keeps the paper-faithful reference loops, ``"vectorized"`` times the
    production array-kernel path instead (same index either way).
    """
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        _, hpspc_seconds = _build(graph, "hpspc", cache_key=key, fresh=True)
        pspc_index, pspc_seconds = _build(
            graph, "pspc", cache_key=key, fresh=True,
            num_landmarks=num_landmarks, engine=engine,
        )
        rows.append(
            {
                "dataset": key,
                "hpspc_s": round(hpspc_seconds, 3),
                "pspc_s": round(pspc_seconds, 3),
                "pspc_plus_s": round(_simulated_seconds(pspc_index, threads), 3),
                "threads": threads,
            }
        )
    return rows


def exp_build_engines(
    keys: Sequence[str] | None = None,
    num_landmarks: int = DEFAULT_LANDMARKS,
) -> list[dict]:
    """Reference vs vectorized single-thread build wall-clock (fig5-style).

    Both engines build the same canonical index (asserted per row); the
    speedup column tracks the vectorized frontier-kernel path against the
    per-vertex reference loops, including ordering and landmark phases.
    """
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        ref_index, ref_seconds = _build(
            graph, "pspc", cache_key=key, fresh=True,
            num_landmarks=num_landmarks, engine="reference",
        )
        vec_index, vec_seconds = _build(
            graph, "pspc", cache_key=key, fresh=True,
            num_landmarks=num_landmarks, engine="vectorized",
        )
        rows.append(
            {
                "dataset": key,
                "V": graph.n,
                "reference_s": round(ref_seconds, 3),
                "vectorized_s": round(vec_seconds, 3),
                "speedup": round(ref_seconds / vec_seconds, 2),
                "identical": ref_index.labels == vec_index.labels,
            }
        )
    return rows


def exp_build_parallel(
    keys: Sequence[str] | None = None,
    num_landmarks: int = DEFAULT_LANDMARKS,
    workers: Sequence[int] = (1, 2, 4),
) -> list[dict]:
    """Measured (not simulated) process-parallel build speedup.

    For each dataset the single-process vectorized build is the baseline
    (``workers=0`` row), then the same index is rebuilt with
    ``engine="parallel"`` at each worker count — spawned processes over
    shared-memory CSR and label arrays, wall-clock actually measured.
    Every parallel row asserts a **bit-identical** store and identical
    pruning/work counters against the baseline; ``construction_s`` is the
    iteration-loop phase alone (worker spawn excluded), the honest
    steady-state comparison on hosts where process startup dominates.

    Real scaling needs real cores: on a single-CPU host the rows measure
    coordination overhead (the ``cpus`` column records what the host
    offered) — unlike the Fig. 8 simulation, which models a 20-core
    machine from recorded work units, these numbers are whatever the
    hardware actually delivered.
    """
    import multiprocessing

    cpus = multiprocessing.cpu_count()
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        base, base_seconds = _build(
            graph, "pspc", cache_key=key, fresh=True,
            num_landmarks=num_landmarks, engine="vectorized",
        )
        rows.append(
            {
                "dataset": key,
                "V": graph.n,
                "workers": 0,
                "build_s": round(base_seconds, 3),
                "construction_s": round(base.stats.phase("construction"), 3),
                "speedup": None,
                "identical": True,
                "cpus": cpus,
            }
        )
        for count in workers:
            index, seconds = _build(
                graph, "pspc", fresh=True,
                num_landmarks=num_landmarks, engine="parallel", workers=count,
            )
            identical = (
                index.store == base.store
                and index.stats.pruned_by_rank == base.stats.pruned_by_rank
                and index.stats.pruned_by_query == base.stats.pruned_by_query
                and index.stats.landmark_hits == base.stats.landmark_hits
                and index.stats.iteration_labels == base.stats.iteration_labels
                and index.stats.total_work == base.stats.total_work
            )
            rows.append(
                {
                    "dataset": key,
                    "V": graph.n,
                    "workers": count,
                    "build_s": round(seconds, 3),
                    "construction_s": round(index.stats.phase("construction"), 3),
                    "speedup": round(base_seconds / seconds, 2),
                    "identical": identical,
                    "cpus": cpus,
                }
            )
    return rows


def exp_build_engines_directed(
    keys: Sequence[str] | None = None,
    num_landmarks: int = 32,
) -> list[dict]:
    """Directed build: reference vs vectorized wall-clock (fig5-style).

    The directed analogue of :func:`exp_build_engines`, over the bundled
    oriented datasets: both engines build the same canonical two-label
    ``Lin``/``Lout`` index (asserted per row, along with identical pruning
    counters), and the speedup column tracks the two-stream frontier
    kernels against the per-vertex reference loops.
    """
    from repro.digraph.index import DirectedSPCIndex
    from repro.experiments.datasets import directed_dataset_names, load_directed_dataset

    rows = []
    for key in keys or directed_dataset_names():
        graph = load_directed_dataset(key)
        start = time.perf_counter()
        ref = DirectedSPCIndex.build(
            graph, num_landmarks=num_landmarks, engine="reference"
        )
        ref_seconds = time.perf_counter() - start
        start = time.perf_counter()
        vec = DirectedSPCIndex.build(
            graph, num_landmarks=num_landmarks, engine="vectorized"
        )
        vec_seconds = time.perf_counter() - start
        rows.append(
            {
                "dataset": key,
                "V": graph.n,
                "reference_s": round(ref_seconds, 3),
                "vectorized_s": round(vec_seconds, 3),
                "speedup": round(ref_seconds / vec_seconds, 2),
                "identical": ref.labels == vec.labels
                and ref.stats.pruned_by_rank == vec.stats.pruned_by_rank
                and ref.stats.pruned_by_query == vec.stats.pruned_by_query
                and ref.stats.total_work == vec.stats.total_work,
            }
        )
    return rows


def exp_build_parallel_directed(
    keys: Sequence[str] | None = None,
    num_landmarks: int = 32,
    workers: Sequence[int] = (1, 2, 4),
) -> list[dict]:
    """Measured process-parallel directed build vs the vectorized baseline.

    The directed analogue of :func:`exp_build_parallel`: the ``workers=0``
    row is the single-process vectorized build, then the same two-label
    index is rebuilt with ``engine="parallel"`` at each worker count, each
    row asserting a bit-identical store and identical pruning/work
    counters.  ``construction_s`` again excludes worker spawn, and real
    scaling still needs real cores (see the ``cpus`` column).
    """
    import multiprocessing

    from repro.digraph.index import DirectedSPCIndex
    from repro.experiments.datasets import directed_dataset_names, load_directed_dataset

    cpus = multiprocessing.cpu_count()
    rows = []
    for key in keys or directed_dataset_names():
        graph = load_directed_dataset(key)
        start = time.perf_counter()
        base = DirectedSPCIndex.build(
            graph, num_landmarks=num_landmarks, engine="vectorized"
        )
        base_seconds = time.perf_counter() - start
        rows.append(
            {
                "dataset": key,
                "V": graph.n,
                "workers": 0,
                "build_s": round(base_seconds, 3),
                "construction_s": round(base.stats.phase("construction"), 3),
                "speedup": None,
                "identical": True,
                "cpus": cpus,
            }
        )
        for count in workers:
            start = time.perf_counter()
            index = DirectedSPCIndex.build(
                graph, num_landmarks=num_landmarks, engine="parallel", workers=count
            )
            seconds = time.perf_counter() - start
            identical = (
                index.labels == base.labels
                and index.stats.pruned_by_rank == base.stats.pruned_by_rank
                and index.stats.pruned_by_query == base.stats.pruned_by_query
                and index.stats.landmark_hits == base.stats.landmark_hits
                and index.stats.iteration_labels == base.stats.iteration_labels
                and index.stats.total_work == base.stats.total_work
            )
            rows.append(
                {
                    "dataset": key,
                    "V": graph.n,
                    "workers": count,
                    "build_s": round(seconds, 3),
                    "construction_s": round(index.stats.phase("construction"), 3),
                    "speedup": round(base_seconds / seconds, 2),
                    "identical": identical,
                    "cpus": cpus,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Exp 2 / Fig 6 — index size
# ----------------------------------------------------------------------
def exp_index_size(keys: Sequence[str] | None = None) -> list[dict]:
    """Index size (MB) for the three algorithms; PSPC == PSPC+ by design."""
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        hpspc_index, _ = _build(graph, "hpspc", cache_key=key)
        pspc_index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        rows.append(
            {
                "dataset": key,
                "hpspc_mb": round(hpspc_index.size_mb(), 4),
                "pspc_mb": round(pspc_index.size_mb(), 4),
                "pspc_plus_mb": round(pspc_index.size_mb(), 4),
                "identical": hpspc_index.labels == pspc_index.labels,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Exp 3 / Fig 7 — query time
# ----------------------------------------------------------------------
def exp_query_time(
    keys: Sequence[str] | None = None,
    n_queries: int = DEFAULT_QUERY_COUNT,
    threads: int = DEFAULT_THREADS,
) -> list[dict]:
    """Mean query latency (microseconds) and the PSPC+ parallel projection."""
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        pairs = random_query_pairs(graph, n_queries, seed=7)
        start = time.perf_counter()
        for s, t in pairs:
            index.query(s, t)
        elapsed = time.perf_counter() - start
        mean_us = elapsed / n_queries * 1e6
        costs = index.query_batch_costs(pairs)
        base = simulated_query_units(costs, 1)
        target = simulated_query_units(costs, threads)
        rows.append(
            {
                "dataset": key,
                "queries": n_queries,
                "mean_us": round(mean_us, 2),
                "pspc_plus_mean_us": round(mean_us * target / base, 2),
                "threads": threads,
            }
        )
    return rows


def exp_query_batch(
    keys: Sequence[str] = ("FB", "GO"),
    n_queries: int = 10_000,
) -> list[dict]:
    """Vectorized ``query_batch`` vs the per-pair tuple-merge loop.

    The per-pair column replays the pre-store-layer serving path (a Python
    two-pointer merge over the tuple labels for every pair); the batch
    column answers the same workload in one call to the vectorized join
    over the compact store.  Directed keys (``"FB-D"``, ...) build the
    two-label index and join ``Lout(s)`` with ``Lin(t)``.
    """
    from repro.digraph.index import DirectedSPCIndex
    from repro.digraph.labels import spc_query_directed
    from repro.experiments.datasets import DIRECTED_DATASETS, load_directed_dataset

    rows = []
    for key in keys:
        if key in DIRECTED_DATASETS:
            graph = load_directed_dataset(key)
            index = DirectedSPCIndex.build(graph, num_landmarks=DEFAULT_LANDMARKS)
            tuple_labels = index.labels.to_directed_index()

            def loop_query(s: int, t: int):
                return spc_query_directed(tuple_labels, s, t)
        else:
            graph = load_dataset(key)
            index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
            undirected_labels = index.labels  # the seed representation

            def loop_query(s: int, t: int):
                return spc_query(undirected_labels, s, t)

        pairs = random_query_pairs(graph, n_queries, seed=7)

        start = time.perf_counter()
        loop_results = [loop_query(s, t) for s, t in pairs]
        loop_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch_results = index.query_batch(pairs)
        batch_seconds = time.perf_counter() - start

        if batch_results != loop_results:
            raise AssertionError(f"batch kernel diverged from tuple merge on {key}")
        rows.append(
            {
                "dataset": key,
                "queries": n_queries,
                "loop_us": round(loop_seconds / n_queries * 1e6, 2),
                "batch_us": round(batch_seconds / n_queries * 1e6, 2),
                "speedup": round(loop_seconds / batch_seconds, 2),
            }
        )
    return rows


def exp_query_service(
    keys: Sequence[str] = ("FB", "GO"),
    n_queries: int = 10_000,
    batch_size: int = 512,
    max_wait: float = 0.002,
) -> list[dict]:
    """Admission-batched :class:`~repro.api.QueryService` vs direct batching.

    Runs the same workload through one direct ``query_batch`` call and
    through the service's ``ceil(n / batch_size)`` admission-sized kernel
    flushes (asserting identical answers), reporting the per-query cost of
    each path, the batch count, and the service's per-batch flush latency —
    the serving-layer view of the Fig. 7b experiment.
    """
    from repro.api import QueryService

    rows = []
    for key in keys:
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        pairs = random_query_pairs(graph, n_queries, seed=7)

        start = time.perf_counter()
        direct_results = index.query_batch(pairs)
        direct_seconds = time.perf_counter() - start

        service = QueryService(index, batch_size=batch_size, max_wait=max_wait)
        start = time.perf_counter()
        service_results = service.query_batch(pairs)
        service_seconds = time.perf_counter() - start

        if service_results != direct_results:
            raise AssertionError(f"QueryService diverged from direct batching on {key}")
        stats = service.stats()
        rows.append(
            {
                "dataset": key,
                "queries": n_queries,
                "batch_size": batch_size,
                "batches": stats["batches"],
                "direct_us": round(direct_seconds / n_queries * 1e6, 2),
                "service_us": round(service_seconds / n_queries * 1e6, 2),
                "mean_flush_us": stats["mean_flush_us"],
                "max_flush_us": stats["max_flush_us"],
            }
        )
    return rows


def exp_serve_scaling(
    keys: Sequence[str] = ("FB",),
    n_queries: int = 20_000,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
) -> list[dict]:
    """Batch-query throughput of the :class:`~repro.serve.pool.WorkerPool`
    vs worker count, against the PR-3 single-process service baseline.

    For each dataset the fig7-style random workload is answered three ways,
    always asserting identical results:

    * ``mode="service"`` (workers=0) — the synchronous
      :class:`~repro.api.QueryService` baseline (one process,
      admission-sized kernel calls);
    * ``mode="pool"`` (workers=N) — the same workload split across N
      spawn-based processes attached to one shared-memory segment;
    * ``mode="sharded"`` — the shard fleet: the index partitioned into
      4 vertex-range shards (one mmap-cold), shard-owning workers, and
      the home-shard scatter/gather router in front.

    ``qps`` is end-to-end throughput (queries / wall-clock second, best of
    ``repeats`` runs so process-scheduling noise does not mask scaling);
    ``speedup`` is relative to the 1-worker pool row.  Real scaling needs
    real cores: on a single-CPU host the pool rows only measure dispatch
    overhead (the ``cpus`` column records what the host offered).
    """
    import multiprocessing

    from repro.api import QueryService
    from repro.serve.pool import WorkerPool
    from repro.serve.shm import ShmIndexSegment

    cpus = multiprocessing.cpu_count()
    rows = []
    for key in keys:
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        pairs = random_query_pairs(graph, n_queries, seed=7)
        expected = index.query_batch(pairs)

        with QueryService(index, batch_size=512) as service:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                served = service.query_batch(pairs)
                best = min(best, time.perf_counter() - start)
            if served != expected:
                raise AssertionError(f"QueryService diverged on {key}")
        rows.append(
            {
                "dataset": key,
                "mode": "service",
                "workers": 0,
                "shards": 0,
                "queries": n_queries,
                "qps": round(n_queries / best),
                "speedup": None,
                "cpus": cpus,
            }
        )

        # one shm publish per dataset, shared across pool sizes: the
        # measured variable is worker count, not segment-copy cost
        segment = ShmIndexSegment.publish(index)
        try:
            base_seconds = None
            for count in workers:
                with WorkerPool(segment=segment, workers=count) as pool:
                    pool.query_batch(pairs[:64])  # warm the workers
                    best = float("inf")
                    for _ in range(repeats):
                        start = time.perf_counter()
                        answers = pool.query_batch(pairs)
                        best = min(best, time.perf_counter() - start)
                    if answers != expected:
                        raise AssertionError(
                            f"WorkerPool diverged on {key} at {count} workers"
                        )
                if base_seconds is None:
                    base_seconds = best
                rows.append(
                    {
                        "dataset": key,
                        "mode": "pool",
                        "workers": count,
                        "shards": 0,
                        "queries": n_queries,
                        "qps": round(n_queries / best),
                        "speedup": round(base_seconds / best, 2),
                        "cpus": cpus,
                    }
                )
        finally:
            segment.close()
            segment.unlink()

        # the shard fleet at the largest pool size: 4 vertex-range
        # shards, one mmap-cold, shard-owning workers behind the
        # home-shard router — same workload, still bit-identical
        shard_workers = max(workers)
        shard_count = 4
        with WorkerPool(
            index, workers=shard_workers, shards=shard_count, cold=(shard_count - 1,)
        ) as pool:
            pool.query_batch(pairs[:64])  # warm the workers
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                answers = pool.query_batch(pairs)
                best = min(best, time.perf_counter() - start)
            if answers != expected:
                raise AssertionError(
                    f"sharded WorkerPool diverged on {key} at "
                    f"{shard_count} shards"
                )
        rows.append(
            {
                "dataset": key,
                "mode": "sharded",
                "workers": shard_workers,
                "shards": shard_count,
                "queries": n_queries,
                "qps": round(n_queries / best),
                "speedup": round(base_seconds / best, 2),
                "cpus": cpus,
            }
        )
    return rows


def exp_serve_chaos(
    key: str = "FB",
    wave: int = 64,
) -> list[dict]:
    """Serving availability and latency under injected worker faults.

    Four scenarios drive the :class:`~repro.serve.async_service.
    AsyncQueryService` + :class:`~repro.serve.pool.WorkerPool` stack over
    one shared-memory segment, each under a different deterministic
    :class:`~repro.serve.faults.FaultPlan`:

    * ``clean``            — no faults: the latency baseline;
    * ``worker-crash``     — worker 0 hard-exits every 4th batch forever;
      respawn + shard resubmission must keep availability at 100%;
    * ``crash-quarantine`` — worker 0 dies on *every* batch it receives,
      exhausting its crash-streak budget: the slot retires, survivors keep
      serving, health degrades (never a request failure);
    * ``slow-deadline``    — every kernel call sleeps 150 ms while a flood
      of requests carries an 80 ms budget behind ``max_inflight=1`` and a
      bounded queue: admission control sheds with 429/504 instead of
      grinding through answers nobody is waiting for.

    Every answered request is asserted bit-identical to the direct
    single-process ``query_batch`` answer; any exception that is not an
    admission shed (:class:`~repro.errors.OverloadError` /
    :class:`~repro.errors.DeadlineError`) counts in ``errors`` and fails
    the experiment.  ``availability`` is answered / submitted; the
    ``worker-crash`` row gates it at >= 0.99 — the headline robustness
    claim of the serving path.
    """
    import asyncio

    import numpy as np

    from repro.errors import DeadlineError, OverloadError
    from repro.serve.async_service import AsyncQueryService
    from repro.serve.faults import NO_FAULTS, FaultPlan
    from repro.serve.pool import WorkerPool
    from repro.serve.shm import ShmIndexSegment

    graph = load_dataset(key)
    index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
    pairs = random_query_pairs(graph, 1536, seed=13)
    expected = index.query_batch(pairs)

    # (scenario, plan, pool kwargs, service kwargs, deadline_ms, requests, paced)
    scenarios = [
        ("clean", NO_FAULTS, {}, {}, None, 1024, True),
        (
            "worker-crash",
            FaultPlan(crash_on_batch=4, workers=(0,)),
            {},
            {},
            None,
            1536,
            True,
        ),
        (
            "crash-quarantine",
            FaultPlan(crash_on_batch=1, workers=(0,)),
            {"max_respawns": 1},
            {},
            None,
            512,
            True,
        ),
        (
            "slow-deadline",
            FaultPlan(slow_ms=150.0),
            {},
            {"max_inflight": 1, "max_pending": 256},
            80.0,
            512,
            False,
        ),
    ]

    # one publish shared by every scenario's pool: the variable under test
    # is the fault plan, not segment-copy cost
    segment = ShmIndexSegment.publish(index)
    rows = []
    try:
        for name, plan, pool_kwargs, svc_kwargs, deadline_ms, requests, paced in scenarios:
            pool = WorkerPool(segment=segment, workers=2, faults=plan, **pool_kwargs)
            answered: dict[int, object] = {}
            latencies: list[float] = []
            shed = errors = 0

            async def _drive() -> dict:
                nonlocal shed, errors
                async with AsyncQueryService(
                    pool=pool, batch_size=wave, max_wait=0.002, **svc_kwargs
                ) as service:

                    async def one(i: int) -> None:
                        nonlocal shed, errors
                        s, t = pairs[i]
                        begin = time.perf_counter()
                        try:
                            result = await service.submit(
                                s, t, deadline_ms=deadline_ms
                            )
                        except (OverloadError, DeadlineError):
                            shed += 1
                            return
                        except Exception:  # noqa: BLE001 - counted, gated below
                            errors += 1
                            return
                        latencies.append(time.perf_counter() - begin)
                        answered[i] = result

                    if paced:  # wave-at-a-time: a steady closed-loop client
                        for base in range(0, requests, wave):
                            await asyncio.gather(
                                *(one(i) for i in range(base, min(base + wave, requests)))
                            )
                    else:  # flood: everything at once, admission control decides
                        await asyncio.gather(*(one(i) for i in range(requests)))
                    return service.stats()

            try:
                stats = asyncio.run(_drive())
                pool_stats = pool.stats()
            finally:
                pool.close()

            for i, result in answered.items():
                if result != expected[i]:
                    raise AssertionError(
                        f"chaos scenario {name!r}: answer for pair {pairs[i]} "
                        f"diverged from the single-process kernel"
                    )
            if errors:
                raise AssertionError(
                    f"chaos scenario {name!r}: {errors} non-admission failures "
                    "(expected only OverloadError/DeadlineError sheds)"
                )
            availability = len(answered) / requests
            if name == "worker-crash" and availability < 0.99:
                raise AssertionError(
                    f"availability {availability:.4f} under sustained worker "
                    "crashes is below the 0.99 gate"
                )
            if name == "crash-quarantine" and pool_stats["health"] == "ok":
                raise AssertionError(
                    "crash-quarantine scenario never degraded: the fault plan "
                    "did not retire worker 0"
                )
            lat_ms = np.asarray(latencies if latencies else [0.0]) * 1e3
            rows.append(
                {
                    "scenario": name,
                    "requests": requests,
                    "ok": len(answered),
                    "shed": shed,
                    "availability": round(availability, 4),
                    "p50_ms": round(float(np.percentile(lat_ms, 50)), 3),
                    "p99_ms": round(float(np.percentile(lat_ms, 99)), 3),
                    "respawns": pool_stats["respawns"],
                    "retired": pool_stats["retired_workers"],
                    "health": pool_stats["health"],
                    "overloads": stats["overloads"],
                    "deadline_shed": stats["deadline_shed"],
                }
            )
    finally:
        segment.close()
        segment.unlink()
    return rows


def exp_serve_traced(
    key: str = "FB",
    n_queries: int = 4096,
    wave: int = 64,
    repeats: int = 3,
    sample: int = 8,
    max_overhead: float = 0.05,
    max_full_overhead: float = 0.25,
) -> list[dict]:
    """Tracing overhead and end-to-end trace completeness.

    Drives the same wave-paced workload through the
    :class:`~repro.serve.async_service.AsyncQueryService` +
    :class:`~repro.serve.pool.WorkerPool` stack three times — untraced
    (the baseline), full tracing (every request), and 1-in-``sample``
    deterministic sampling — asserting:

    * every answered request is bit-identical across all passes (and to
      the direct single-process kernel);
    * with the tracer on, every retained trace record carries the full
      serving span set (``admission_wait``/``flush``/``kernel``/``pipe``/
      ``reassembly``/``total``) and status ``ok`` — the ``/debug/trace``
      completeness contract;
    * the sampled configuration (the recommended production setting)
      costs less than ``max_overhead`` of baseline throughput, and even
      trace-everything stays under ``max_full_overhead`` — both on
      best-of-``repeats`` wall clock, so scheduler noise does not decide
      the gate.

    The rows mirror :data:`BENCH_serve.json`'s qps convention so the CI
    ``obs-smoke`` job can print them next to the recorded baseline.
    """
    import asyncio

    from repro.obs.trace import SPAN_NAMES, Tracer
    from repro.serve.async_service import AsyncQueryService
    from repro.serve.pool import WorkerPool
    from repro.serve.shm import ShmIndexSegment

    graph = load_dataset(key)
    index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
    pairs = random_query_pairs(graph, n_queries, seed=13)
    expected = index.query_batch(pairs)

    async def _drive(service: AsyncQueryService) -> list:
        async with service:

            async def one(i: int):
                s, t = pairs[i]
                return await service.submit(s, t)

            answers: list = []
            for base in range(0, n_queries, wave):
                answers.extend(
                    await asyncio.gather(
                        *(one(i) for i in range(base, min(base + wave, n_queries)))
                    )
                )
            return answers

    def _assert_complete(tracer: Tracer) -> int:
        records = tracer.traces()
        if not records:
            raise AssertionError("traced pass retained no trace records")
        required = set(SPAN_NAMES) - {"cache_lookup"}
        for record in records:
            if record.get("cache") == "hit":
                continue  # cache hits legitimately skip the kernel spans
            missing = required - set(record["spans_ms"])
            if missing or record["status"] != "ok":
                raise AssertionError(
                    f"incomplete trace {record['trace_id']}: "
                    f"missing={sorted(missing)} status={record['status']}"
                )
        return len(records)

    modes = [("untraced", None), ("traced", 1), ("sampled", sample)]
    segment = ShmIndexSegment.publish(index)
    rows = []
    try:
        seconds: dict[str, float] = {}
        for mode, rate in modes:
            tracer = Tracer(sample=rate) if rate is not None else None
            best = float("inf")
            for _ in range(repeats):
                pool = WorkerPool(segment=segment, workers=2)
                service = AsyncQueryService(
                    pool=pool, batch_size=wave, max_wait=0.002, tracer=tracer
                )
                try:
                    start = time.perf_counter()
                    answers = asyncio.run(_drive(service))
                    best = min(best, time.perf_counter() - start)
                finally:
                    pool.close()
                if answers != expected:
                    raise AssertionError(
                        f"{mode} serving pass diverged from the direct kernel"
                    )
            seconds[mode] = best
            overhead = best / seconds["untraced"] - 1.0
            rows.append(
                {
                    "mode": mode,
                    "sample": rate,
                    "queries": n_queries,
                    "qps": round(n_queries / best),
                    "overhead_pct": round(overhead * 100, 2)
                    if mode != "untraced"
                    else None,
                    "traces": _assert_complete(tracer) if tracer is not None else 0,
                }
            )
        full = seconds["traced"] / seconds["untraced"] - 1.0
        thin = seconds["sampled"] / seconds["untraced"] - 1.0
        if thin > max_overhead:
            raise AssertionError(
                f"sampled (1/{sample}) tracing overhead {thin:.1%} exceeds the "
                f"{max_overhead:.0%} budget"
            )
        if full > max_full_overhead:
            raise AssertionError(
                f"full tracing overhead {full:.1%} exceeds the "
                f"{max_full_overhead:.0%} sanity bound"
            )
    finally:
        segment.close()
        segment.unlink()
    return rows


# ----------------------------------------------------------------------
# Exp 4 / Figs 8-9 — speedup curves
# ----------------------------------------------------------------------
def exp_build_speedup(
    keys: Sequence[str] = ("FB", "GO", "GW", "WI"),
    threads: Iterable[int] = (1, 2, 4, 8, 12, 16, 20),
    schedule: str = "dynamic",
) -> list[dict]:
    """Indexing speedup vs thread count (Fig. 8), from the work-unit model."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        base = simulated_build_units(index.stats, index.order, 1, schedule)
        for t in threads:
            units = simulated_build_units(index.stats, index.order, t, schedule)
            rows.append(
                {
                    "dataset": key,
                    "threads": t,
                    "speedup": round(base / units, 2),
                }
            )
    return rows


def exp_query_speedup(
    keys: Sequence[str] = ("FB", "GO", "GW", "WI"),
    threads: Iterable[int] = (1, 2, 4, 8, 12, 16, 20),
    n_queries: int = DEFAULT_QUERY_COUNT,
) -> list[dict]:
    """Query-batch speedup vs thread count (Fig. 9)."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        pairs = random_query_pairs(graph, n_queries, seed=7)
        costs = index.query_batch_costs(pairs)
        base = simulated_query_units(costs, 1)
        for t in threads:
            units = simulated_query_units(costs, t)
            rows.append(
                {
                    "dataset": key,
                    "threads": t,
                    "speedup": round(base / units, 2),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Exp 5 / Fig 10 — ablations
# ----------------------------------------------------------------------
def exp_ablation_landmarks(
    keys: Sequence[str] = ("FB", "GW", "WI", "GO"),
    threads: int = DEFAULT_THREADS,
    num_landmarks: int = DEFAULT_LANDMARKS,
) -> list[dict]:
    """Fig. 10(a): indexing time with (LL) and without (NLL) landmarks."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        no_lm, _ = _build(graph, "pspc", cache_key=key, num_landmarks=0)
        with_lm, _ = _build(graph, "pspc", cache_key=key, num_landmarks=num_landmarks)
        rows.append(
            {
                "dataset": key,
                "nll_s": round(_simulated_seconds(no_lm, threads), 3),
                "ll_s": round(_simulated_seconds(with_lm, threads), 3),
                # machine-independent view: construction work units
                "nll_work": no_lm.stats.total_work,
                "ll_work": with_lm.stats.total_work,
                "identical_index": no_lm.labels == with_lm.labels,
            }
        )
    return rows


def exp_ablation_schedule(
    keys: Sequence[str] = ("FB", "GW", "WI", "GO"),
    threads: int = DEFAULT_THREADS,
) -> list[dict]:
    """Fig. 10(b): static vs cost-function dynamic schedule at 20 threads."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=DEFAULT_LANDMARKS)
        rows.append(
            {
                "dataset": key,
                "static_s": round(_simulated_seconds(index, threads, "static"), 3),
                "dynamic_s": round(_simulated_seconds(index, threads, "dynamic"), 3),
            }
        )
    return rows


def exp_ablation_order(
    keys: Sequence[str] = ("FB", "GW", "WI", "GO", "BE", "YT"),
    threads: int = DEFAULT_THREADS,
) -> list[dict]:
    """Fig. 10(c): degree vs significant-path vs hybrid node order."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        row: dict = {"dataset": key}
        for label, ordering in (
            ("degree_s", "degree"),
            ("sig_s", "significant-path"),
            ("hybrid_s", "hybrid"),
        ):
            index, _ = _build(graph, "pspc", cache_key=key, ordering=ordering)
            row[label] = round(_simulated_seconds(index, threads), 3)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Exp 6 / Fig 11 — hybrid threshold delta
# ----------------------------------------------------------------------
def exp_delta_effect(
    keys: Sequence[str] = ("FB", "GW", "WI", "GO"),
    deltas: Sequence[int] = (0, 2, 5, 10, 20),
    n_queries: int = 500,
    threads: int = DEFAULT_THREADS,
) -> list[dict]:
    """Fig. 11: index time / size / query time as the hybrid delta varies."""
    from repro.ordering.hybrid import hybrid_order  # local to avoid cycle

    rows = []
    for key in keys:
        graph = load_dataset(key)
        pairs = random_query_pairs(graph, n_queries, seed=7)
        for delta in deltas:
            order = hybrid_order(graph, delta=delta)
            index, _ = _build(graph, "pspc", cache_key=key, ordering=order)
            start = time.perf_counter()
            for s, t in pairs:
                index.query(s, t)
            query_us = (time.perf_counter() - start) / n_queries * 1e6
            rows.append(
                {
                    "dataset": key,
                    "delta": delta,
                    "index_s": round(_simulated_seconds(index, threads), 3),
                    "size_mb": round(index.size_mb(), 4),
                    "query_us": round(query_us, 2),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Exp 7 / Fig 12 — number of landmarks
# ----------------------------------------------------------------------
def exp_landmark_count(
    keys: Sequence[str] = ("FB", "GO", "GW", "WI"),
    counts: Sequence[int] = (0, 50, 100, 150, 200, 250),
    threads: int = DEFAULT_THREADS,
) -> list[dict]:
    """Fig. 12: indexing time as the landmark count sweeps 0..250."""
    rows = []
    for key in keys:
        graph = load_dataset(key)
        for count in counts:
            index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=count)
            rows.append(
                {
                    "dataset": key,
                    "landmarks": count,
                    "index_s": round(_simulated_seconds(index, threads), 3),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Exp 8 / Fig 13 — phase breakdown
# ----------------------------------------------------------------------
def exp_time_breakdown(
    keys: Sequence[str] | None = None,
    num_landmarks: int = DEFAULT_LANDMARKS,
) -> list[dict]:
    """Fig. 13: ordering vs landmark-labeling vs label-construction time."""
    rows = []
    for key in keys or dataset_names():
        graph = load_dataset(key)
        index, _ = _build(graph, "pspc", cache_key=key, num_landmarks=num_landmarks)
        stats = index.stats
        rows.append(
            {
                "dataset": key,
                "order_s": round(stats.phase("order"), 4),
                "landmarks_s": round(stats.phase("landmarks"), 4),
                "construction_s": round(stats.phase("construction"), 4),
            }
        )
    return rows


# ----------------------------------------------------------------------
def format_rows(rows: list[dict], title: str = "") -> str:
    """Render rows as an aligned text table (for benches and the CLI)."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)

"""Quickstart: one API — build_index, open_index, QueryService.

Every counter kind in the library — the PSPC index, the HP-SPC baseline,
the reduced/directed/dynamic variants and the index-free BFS counters — is
built through one registry call, persists to one versioned ``.npz`` format,
and serves through one batched facade.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import BuildConfig, QueryService, SPCounter, build_index, method_names, open_index
from repro.graph import barabasi_albert


def main() -> None:
    # 1. get a graph (any undirected, unweighted graph; here a synthetic
    #    scale-free network standing in for a social graph)
    graph = barabasi_albert(2000, 5, seed=7)
    print(f"graph: {graph}")
    print(f"registered counter methods: {', '.join(method_names())}")

    # 2. build through the unified facade: one BuildConfig drives every
    #    method.  Degree ordering + 100 landmarks is the paper's default
    #    PSPC configuration.
    config = BuildConfig(ordering="degree", num_landmarks=100)
    index = build_index(graph, method="pspc", config=config)
    assert isinstance(index, SPCounter)
    print(f"index: {index.total_entries()} label entries, {index.size_mb():.2f} MB")

    # 3. ask queries: distance AND number of shortest paths, in microseconds
    for s, t in [(3, 721), (0, 1999), (42, 43)]:
        result = index.query(s, t)
        print(f"SPC({s}, {t}) = {result.count} shortest paths of length {result.dist}")

    # 4. persistence round-trips through one versioned container for every
    #    kind — open_index sniffs the payload and returns the right class
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "social.npz"
        index.save(path)
        reopened = open_index(path)
        assert type(reopened).__name__ == "PSPCIndex"
        assert reopened.query(3, 721) == index.query(3, 721)
        print(f"saved and reopened via open_index: {reopened!r}")

    # 5. serve workloads through the admission-batched QueryService: the
    #    whole batch flushes through ONE vectorized kernel call per
    #    batch_size queries, with per-batch latency stats
    workload = [(3, 721), (0, 1999), (42, 43)] * 200
    with QueryService(index, batch_size=256) as service:
        results = service.query_batch(workload)
        stats = service.stats()
    print(
        f"QueryService answered {stats['queries']} queries in "
        f"{stats['batches']} kernel calls "
        f"(mean flush {stats['mean_flush_us']:.0f} us)"
    )

    # 6. the same facade builds the index-free oracle — handy for
    #    cross-checking (and the registry accepts your own methods too)
    oracle = build_index(graph, method="bfs")
    assert results[0] == oracle.query(3, 721)
    print("index agrees with the BFS oracle")

    # 7. async serving: AsyncQueryService admission-batches thousands of
    #    concurrent awaiters into one kernel call per batch.  workers=N
    #    publishes the compact arrays to shared memory and shards every
    #    batch across N spawned processes (real cores, no GIL); the same
    #    engine powers the HTTP endpoint:
    #
    #        python -m repro build --dataset FB --no-compress --out fb.npz
    #        python -m repro serve fb.npz --workers 4 --port 8080
    #        curl 'http://127.0.0.1:8080/query?s=3&t=721'
    #
    #    --shards K partitions the index by contiguous vertex ranges into
    #    a fleet of segments: each worker attaches only its own shards
    #    hot, --cold-shards keeps chosen shards on disk (mmap), and the
    #    batch router scatters by home shard / gathers the far endpoint's
    #    label slice — answers stay bit-identical to unsharded serving
    #    while the index can exceed RAM-per-worker:
    #
    #        python -m repro serve fb.npz --shards 4 --workers 4 \
    #            --cold-shards 3 --port 8080
    import asyncio

    from repro import AsyncQueryService

    async def serve_async():
        async with AsyncQueryService(index, batch_size=256, cache_size=1024) as service:
            answers = await asyncio.gather(
                *(service.submit(s, t) for s, t in workload)
            )
            # once a batch has flushed, hot repeated pairs skip the kernel
            for _ in range(100):
                await service.submit(3, 721)
            return list(answers), service.stats()

    async_answers, async_stats = asyncio.run(serve_async())
    assert async_answers == results
    print(
        f"AsyncQueryService answered {async_stats['queries']} submits "
        f"in {async_stats['batches']} kernel calls "
        f"({async_stats['cache_hits']} LRU cache hits)"
    )

    # 8. operating a server: admission control sheds with typed errors
    #    instead of queueing forever, and /metrics exposes everything a
    #    dashboard needs.  The same knobs exist on the CLI:
    #
    #        python -m repro serve fb.npz --workers 4 \
    #            --max-pending 4096 --max-inflight 4 --deadline-ms 250
    #        curl 'http://127.0.0.1:8080/query?s=3&t=721&deadline_ms=50'
    #        curl http://127.0.0.1:8080/metrics   # Prometheus text format
    #        curl http://127.0.0.1:8080/healthz   # ok/degraded/critical
    #
    #    A full pending queue answers HTTP 429, a missed deadline 504, and
    #    /healthz turns 503 when every worker is gone (requests still get
    #    answered by the in-process fallback).  In embedded use the same
    #    behaviour surfaces as OverloadError / DeadlineError:
    from repro.errors import DeadlineError, OverloadError

    async def overload_demo():
        async with AsyncQueryService(
            index, batch_size=64, max_wait=0.05, max_pending=2
        ) as service:
            first = [asyncio.ensure_future(service.submit(3, i)) for i in (1, 2)]
            await asyncio.sleep(0)  # both submits are now pending
            try:
                await service.submit(3, 9)
            except OverloadError:
                pass  # HTTP layer would answer 429
            await service.flush()
            await asyncio.gather(*first)
            try:  # the queue has room again; now miss a tiny budget
                await service.submit(3, 9, deadline_ms=1e-6)
            except DeadlineError:
                pass  # budget expired before the batch flushed -> 504
            return service.stats()

    ops_stats = asyncio.run(overload_demo())
    print(
        f"admission control: {ops_stats['overloads']} overload rejection(s), "
        f"{ops_stats['deadline_shed']} deadline shed(s), "
        f"flush p99 {ops_stats['flush_latency']['p99_ms']} ms"
    )


if __name__ == "__main__":
    main()

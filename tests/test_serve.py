"""The multi-process serving subsystem: shm segments, worker pool, asyncio.

Covers the PR's acceptance surface:

* shm publish/attach round-trips equal the source store bit-for-bit, for
  the undirected compact store AND the directed two-label variant;
* closed/unlinked segments leave nothing behind in ``/dev/shm``;
* :class:`WorkerPool` answers match the BFS ground truth
  (``verify_counter``) on every bundled generator family and are identical
  to single-process ``query_batch``;
* worker crashes are detected and respawned exactly once per slot;
* :class:`AsyncQueryService` stays correct under 1000 concurrent submits
  and mirrors the sync service's close semantics with ``aclose``;
* the stdlib HTTP front-end and the ``python -m repro serve`` entry point
  answer over loopback and shut down cleanly.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.index import PSPCIndex
from repro.core.verify import verify_counter
from repro.digraph.digraph import DiGraph
from repro.digraph.index import DirectedSPCIndex
from repro.digraph.labels import CompactDirectedLabelIndex
from repro.errors import QueryError, ServeError
from repro.graph.generators import (
    barabasi_albert,
    grid_road_network,
    powerlaw_cluster,
    watts_strogatz,
)
from repro.serve import (
    SEGMENT_PREFIX,
    AsyncQueryService,
    HttpFrontend,
    LRUCache,
    ShmIndexSegment,
    WorkerPool,
)

#: One small instance per bundled generator family (mirrors test_store).
GENERATORS = {
    "barabasi_albert": lambda: barabasi_albert(120, 3, seed=5),
    "watts_strogatz": lambda: watts_strogatz(90, 6, 0.2, seed=6),
    "powerlaw_cluster": lambda: powerlaw_cluster(110, 3, 0.5, seed=7),
    "grid_road_network": lambda: grid_road_network(9, 9, extra_edges=8, seed=8),
}

_DEV_SHM = Path("/dev/shm")


def _segment_files() -> set[str]:
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in _DEV_SHM.iterdir() if p.name.startswith(SEGMENT_PREFIX)}


def _random_pairs(n: int, count: int, seed: int = 3) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [(int(s), int(t)) for s, t in rng.integers(n, size=(count, 2))]


@pytest.fixture(scope="module")
def served_index(request) -> PSPCIndex:
    """One shared small index for the process-spawning tests."""
    return PSPCIndex.build(barabasi_albert(150, 3, seed=11), num_landmarks=10)


@pytest.fixture(scope="module")
def directed_index() -> DirectedSPCIndex:
    rng = np.random.default_rng(17)
    edges = [(int(u), int(v)) for u, v in rng.integers(60, size=(150, 2)) if u != v]
    return DirectedSPCIndex.build(DiGraph(60, edges))


# ----------------------------------------------------------------------
# shm segments
# ----------------------------------------------------------------------
class TestShmSegment:
    def test_publish_attach_round_trip_bit_for_bit(self, served_index):
        with ShmIndexSegment.publish(served_index) as segment:
            with ShmIndexSegment.attach(segment.manifest) as twin:
                # CompactLabelIndex equality is np.array_equal on every array
                assert twin.store == served_index.store
                assert not twin.store.hubs.flags.writeable
                assert twin.store.query(0, 50) == served_index.query(0, 50)

    def test_publish_attach_directed_round_trip(self, directed_index):
        # directed builds freeze to the compact store by default
        assert isinstance(directed_index.labels, CompactDirectedLabelIndex)
        with ShmIndexSegment.publish(directed_index) as segment:
            assert segment.manifest["kind"] == "directed-compact"
            with ShmIndexSegment.attach(segment.manifest) as twin:
                assert twin.store == directed_index.labels
                tuples = directed_index.labels.to_directed_index()
                assert twin.store.to_directed_index() == tuples
                for s, t in _random_pairs(directed_index.n, 50):
                    assert twin.store.query(s, t) == directed_index.query(s, t)

    def test_manifest_json_round_trip(self, served_index):
        with ShmIndexSegment.publish(served_index) as segment:
            with ShmIndexSegment.attach(segment.manifest_json()) as twin:
                assert twin.store == served_index.store

    def test_no_dev_shm_leak_after_close(self, served_index):
        before = _segment_files()
        # reprolint: disable=R001 (manual close/unlink lifecycle is the subject under test)
        segment = ShmIndexSegment.publish(served_index)
        name = segment.name
        if _DEV_SHM.is_dir():
            assert name in _segment_files()
        segment.close()
        segment.unlink()
        assert _segment_files() == before
        with pytest.raises(ServeError):
            # reprolint: disable=R001 (attach on an unlinked segment must raise)
            ShmIndexSegment.attach({**segment.manifest})

    def test_close_is_idempotent_and_store_raises(self, served_index):
        # reprolint: disable=R001 (idempotent close/unlink is the behaviour being asserted)
        segment = ShmIndexSegment.publish(served_index)
        segment.close()
        segment.close()
        with pytest.raises(ServeError):
            _ = segment.store
        segment.unlink()
        segment.unlink()

    def test_attach_rejects_garbage(self):
        with pytest.raises(ServeError):
            # reprolint: disable=R001 (attach on a bad manifest must raise, nothing to release)
            ShmIndexSegment.attach({"format": "something-else"})
        with pytest.raises(ServeError):
            # reprolint: disable=R001 (attach on malformed json must raise, nothing to release)
            ShmIndexSegment.attach("{not json")

    def test_tuple_store_is_frozen_on_publish(self, served_index):
        tuple_index = PSPCIndex.build(
            barabasi_albert(60, 3, seed=2), store="tuple"
        )
        with ShmIndexSegment.publish(tuple_index) as segment:
            assert segment.manifest["kind"] == "compact"
            with ShmIndexSegment.attach(segment.manifest) as twin:
                assert twin.store.to_label_index() == tuple_index.store

    def test_publish_rejects_unknown_objects(self):
        with pytest.raises(ServeError):
            # reprolint: disable=R001 (publish of an unknown object must raise, nothing to release)
            ShmIndexSegment.publish(object())


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_matches_ground_truth_on_every_generator(self):
        for name, make in GENERATORS.items():
            graph = make()
            index = PSPCIndex.build(graph)
            pairs = _random_pairs(graph.n, 300)
            expected = index.query_batch(pairs)
            with WorkerPool(index, workers=2) as pool:
                assert pool.query_batch(pairs) == expected, name
                verify_counter(pool, graph, samples=25)

    def test_directed_pool_matches_ground_truth(self, directed_index):
        with WorkerPool(directed_index, workers=1) as pool:
            pairs = _random_pairs(directed_index.n, 200)
            assert pool.query_batch(pairs) == directed_index.query_batch(pairs)

    def test_sharding_is_contiguous_and_ordered(self, served_index):
        pairs = _random_pairs(served_index.n, 101)
        with WorkerPool(served_index, workers=3) as pool:
            results = pool.query_batch(pairs)
            assert [(r.s, r.t) for r in results] == pairs
            stats = pool.stats()
            # ceil(101 / 3) = 34 pairs on the first two workers, 33 on the last
            assert [w["queries"] for w in stats["per_worker"]] == [34, 34, 33]
            assert stats["queries"] == 101
            assert stats["batches"] == 1

    def test_worker_crash_respawns_and_recovers(self, served_index):
        pairs = _random_pairs(served_index.n, 64)
        expected = served_index.query_batch(pairs)
        with WorkerPool(served_index, workers=2) as pool:
            victim = pool._slots[0].pid
            os.kill(victim, signal.SIGKILL)
            assert pool.query_batch(pairs) == expected
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["per_worker"][0]["pid"] != victim

    def test_respawn_budget_bounds_crash_loops_not_uptime(self, served_index):
        # regression: max_respawns used to be a per-slot *lifetime* budget,
        # so a long-lived server died on the second isolated crash of one
        # slot no matter how far apart.  A completed batch must reopen the
        # budget: the pool survives arbitrarily many crash/recover cycles,
        # while the streak bound still stops genuine crash loops.
        pairs = _random_pairs(served_index.n, 48)
        expected = served_index.query_batch(pairs)
        with WorkerPool(served_index, workers=2, max_respawns=1) as pool:
            for round_number in range(3):
                os.kill(pool._slots[0].pid, signal.SIGKILL)
                assert pool.query_batch(pairs) == expected, round_number
            stats = pool.stats()
            # every crash respawned (lifetime counter keeps reporting them)
            assert stats["respawns"] == 3
            assert all(slot.crash_streak == 0 for slot in pool._slots)

    def test_exhausted_respawn_budget_degrades_instead_of_raising(self, served_index):
        # max_respawns=0: the very first crash exceeds the streak budget.
        # The slot is retired — but the batch is still answered correctly
        # by the surviving worker + in-process fallback, and the pool
        # reports the degradation instead of failing requests.
        pairs = _random_pairs(served_index.n, 16)
        with WorkerPool(served_index, workers=2, max_respawns=0) as pool:
            os.kill(pool._slots[0].pid, signal.SIGKILL)
            assert pool.query_batch(pairs) == served_index.query_batch(pairs)
            assert pool.health() == "degraded"
            stats = pool.stats()
            assert stats["live_workers"] == 1
            assert stats["retired_workers"] == 1
            assert stats["per_worker"][0]["retired"] is True
            # later batches re-shard over the survivor only, still correct
            more = _random_pairs(served_index.n, 32, seed=5)
            assert pool.query_batch(more) == served_index.query_batch(more)

    def test_all_slots_retired_serves_in_process_critical(self, served_index):
        pairs = _random_pairs(served_index.n, 24)
        with WorkerPool(served_index, workers=2, max_respawns=0) as pool:
            for slot in pool._slots:
                os.kill(slot.pid, signal.SIGKILL)
            assert pool.query_batch(pairs) == served_index.query_batch(pairs)
            assert pool.health() == "critical"
            stats = pool.stats()
            assert stats["live_workers"] == 0
            assert stats["fallback_queries"] >= len(pairs)

    def test_validation_and_lifecycle(self, served_index):
        with pytest.raises(ServeError):
            WorkerPool(served_index, workers=0)
        with WorkerPool(served_index, workers=1) as pool:
            assert pool.query_batch([]) == []
            with pytest.raises(QueryError):
                pool.query_batch([(0, served_index.n)])
            assert pool.query(0, 5) == served_index.query(0, 5)
        with pytest.raises(ServeError):
            pool.query_batch([(0, 1)])

    def test_no_shm_leak_after_close(self, served_index):
        before = _segment_files()
        pool = WorkerPool(served_index, workers=1)
        pool.query_batch(_random_pairs(served_index.n, 16))
        pool.close()
        pool.close()  # idempotent
        assert _segment_files() == before


# ----------------------------------------------------------------------
# async service
# ----------------------------------------------------------------------
class TestAsyncQueryService:
    def test_thousand_concurrent_submits(self, served_index):
        pairs = _random_pairs(served_index.n, 1000)
        expected = served_index.query_batch(pairs)

        async def main():
            async with AsyncQueryService(served_index, batch_size=64) as service:
                results = await asyncio.gather(
                    *(service.submit(s, t) for s, t in pairs)
                )
                return list(results), service.stats()

        results, stats = asyncio.run(main())
        assert results == expected
        assert stats["queries"] == 1000
        # admission batching really happened: far fewer kernel calls than
        # queries, each batch bounded by batch_size
        assert stats["batches"] >= 1000 // 64
        assert stats["batches"] < 1000
        assert stats["mean_batch_size"] <= 64

    def test_bulk_path_matches_direct(self, served_index):
        pairs = _random_pairs(served_index.n, 500)

        async def main():
            async with AsyncQueryService(served_index, batch_size=128) as service:
                return await service.query_batch(pairs), service.stats()

        results, stats = asyncio.run(main())
        assert results == served_index.query_batch(pairs)
        assert stats["bulk_flushes"] == 4  # ceil(500 / 128)

    def test_timeout_flush_and_aclose_semantics(self, served_index, held_kernel):
        async def main():
            kernel = held_kernel(served_index)
            kernel.release()
            service = AsyncQueryService(kernel, batch_size=1000, max_wait=0.01)
            # a lone submit finds nothing in flight: an idle flush, no timer
            result = await asyncio.wait_for(service.submit(0, 5), timeout=5.0)
            assert result == served_index.query(0, 5)
            stats = service.stats()
            assert (stats["idle_flushes"], stats["timeout_flushes"]) == (1, 0)
            # a submit behind an in-flight batch is flushed by the max_wait
            # timer, not held until that batch completes
            kernel.hold()
            blocker = asyncio.ensure_future(service.submit(0, 9))
            while len(kernel.calls) < 2:
                await asyncio.sleep(0.001)
            late = asyncio.ensure_future(service.submit(1, 7))
            while len(kernel.calls) < 3:  # dispatched while the blocker is held
                await asyncio.sleep(0.001)
            kernel.release()
            assert (await blocker) == served_index.query(0, 9)
            assert (await late) == served_index.query(1, 7)
            assert kernel.calls == [[(0, 5)], [(0, 9)], [(1, 7)]]
            stats = service.stats()
            assert (stats["idle_flushes"], stats["timeout_flushes"]) == (2, 1)
            # aclose flushes stragglers instead of stranding them
            waiter = asyncio.ensure_future(service.submit(1, 7))
            await asyncio.sleep(0)  # let the submit enqueue
            await service.aclose()
            assert (await waiter) == served_index.query(1, 7)
            assert service.closed
            with pytest.raises(QueryError):
                await service.submit(2, 3)

        asyncio.run(main())

    def test_lone_submit_does_not_wait_out_max_wait(self, served_index):
        async def main():
            async with AsyncQueryService(
                served_index, batch_size=64, max_wait=5.0
            ) as service:
                result = await asyncio.wait_for(service.submit(0, 5), timeout=1.0)
                return result, service.stats()

        result, stats = asyncio.run(main())
        assert result == served_index.query(0, 5)
        assert (stats["idle_flushes"], stats["timeout_flushes"]) == (1, 0)

    def test_submits_behind_an_inflight_batch_go_out_as_one(
        self, served_index, held_kernel
    ):
        pairs = _random_pairs(served_index.n, 5, seed=8)

        async def main():
            kernel = held_kernel(served_index)
            async with AsyncQueryService(
                kernel, batch_size=64, max_wait=5.0
            ) as service:
                blocker = asyncio.ensure_future(service.submit(0, 9))
                while not kernel.calls:
                    await asyncio.sleep(0.001)
                behind = asyncio.gather(*(service.submit(s, t) for s, t in pairs))
                while service.pending < len(pairs):
                    await asyncio.sleep(0)
                kernel.release()
                results = await asyncio.wait_for(behind, timeout=1.0)
                await blocker
                return list(results), kernel.calls, service.stats()

        results, calls, stats = asyncio.run(main())
        assert results == served_index.query_batch(pairs)
        # dispatched together the moment the blocker completed: no timer
        assert calls == [[(0, 9)], pairs]
        assert (stats["batches"], stats["idle_flushes"], stats["timeout_flushes"]) == (
            2, 2, 0,
        )

    def test_cache_short_circuits_kernel(self, served_index):
        async def main():
            async with AsyncQueryService(
                served_index, batch_size=4, cache_size=16
            ) as service:
                first = [await service.submit(0, 9) for _ in range(5)]
                stats = service.stats()
                return first, stats

        results, stats = asyncio.run(main())
        assert all(r == served_index.query(0, 9) for r in results)
        assert stats["cache_hits"] == 4
        assert stats["cache_misses"] == 1
        assert stats["batches"] == 1

    def test_reversed_pair_hits_for_undirected_counters(self, served_index):
        # regression: same canonical-key fix as the sync service — the
        # reversed direction of a hot pair must hit the point cache
        async def main():
            async with AsyncQueryService(
                served_index, batch_size=4, cache_size=16
            ) as service:
                forward = await service.submit(2, 9)
                backward = await service.submit(9, 2)
                return forward, backward, service.stats()

        forward, backward, stats = asyncio.run(main())
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert (backward.s, backward.t) == (9, 2)
        assert backward == served_index.query(9, 2)
        assert (forward.dist, forward.count) == (backward.dist, backward.count)

    def test_directed_counter_keeps_asymmetric_cache_keys(self, directed_index):
        async def main():
            async with AsyncQueryService(
                directed_index, batch_size=4, cache_size=16
            ) as service:
                forward = await service.submit(0, 7)
                backward = await service.submit(7, 0)
                return forward, backward, service.stats()

        forward, backward, stats = asyncio.run(main())
        # a digraph answers s -> t and t -> s differently: no cross-hit
        assert stats["cache_hits"] == 0
        assert forward == directed_index.query(0, 7)
        assert backward == directed_index.query(7, 0)

    def test_pool_backed_service(self, served_index):
        pairs = _random_pairs(served_index.n, 300)
        expected = served_index.query_batch(pairs)

        async def main():
            async with AsyncQueryService(
                served_index, workers=2, batch_size=64
            ) as service:
                results = await asyncio.gather(
                    *(service.submit(s, t) for s, t in pairs)
                )
                return list(results), service.stats()

        results, stats = asyncio.run(main())
        assert results == expected
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["queries"] == 300
        assert _segment_files() == set()  # aclose unlinked the segment


# ----------------------------------------------------------------------
# LRU cache unit behaviour
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["entries"] == 2

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
async def _http_request(
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    content_length: "str | None" = None,
) -> tuple[int, dict]:
    """One request; ``content_length`` overrides the header's value."""
    length = str(len(body)) if content_length is None else content_length
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    status_line = (await reader.readline()).decode()
    status = int(status_line.split()[1])
    while (await reader.readline()).strip():
        pass  # drain headers
    payload = await reader.read()
    writer.close()
    await writer.wait_closed()
    return status, json.loads(payload)


class TestHttpFrontend:
    def test_routes_over_loopback(self, served_index):
        from repro.serve.http import serve

        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            stop = asyncio.Event()
            server_task = asyncio.ensure_future(
                serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            _, port = await asyncio.wait_for(ready, timeout=10)

            status, health = await _http_request(port, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
            assert health["n"] == served_index.n

            status, point = await _http_request(port, "GET", "/query?s=0&t=5")
            assert status == 200

            body = json.dumps({"pairs": [[0, 5], [3, 7], [2, 2]]}).encode()
            status, batch = await _http_request(port, "POST", "/query_batch", body)
            assert status == 200 and len(batch["results"]) == 3

            status, stats = await _http_request(port, "GET", "/stats")
            assert status == 200 and stats["batches"] >= 1

            status, err = await _http_request(port, "GET", "/query?s=0")
            assert status == 400 and "t" in err["error"]
            status, err = await _http_request(port, "GET", "/query?s=0&t=999999")
            assert status == 400
            status, _ = await _http_request(port, "GET", "/nope")
            assert status == 404
            status, _ = await _http_request(port, "POST", "/query")
            assert status == 405

            stop.set()
            await asyncio.wait_for(server_task, timeout=10)
            return point, batch

        point, batch = asyncio.run(main())
        assert point["count"] == served_index.query(0, 5).count
        expected = served_index.query_batch([(0, 5), (3, 7), (2, 2)])
        assert [(r["dist"], r["count"]) for r in batch["results"]] == [
            (r.dist, r.count) for r in expected
        ]


class TestHttpUnhappyPaths:
    """Malformed/hostile clients map to precise 4xx codes, never a 500."""

    @staticmethod
    async def _serve(service):
        from repro.serve.http import serve

        ready: asyncio.Future = asyncio.get_running_loop().create_future()
        stop = asyncio.Event()
        task = asyncio.ensure_future(serve(service, "127.0.0.1", 0, ready=ready, stop=stop))
        _, port = await asyncio.wait_for(ready, timeout=10)
        return port, stop, task

    def test_bad_framing_and_method_mismatch_on_every_route(self, served_index):
        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            port, stop, task = await self._serve(service)

            async def raw(request: bytes) -> int:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(request)
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                writer.close()
                await writer.wait_closed()
                return status

            # oversized declared body: rejected from the header alone
            assert await raw(
                b"POST /query_batch HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            ) == 413
            # negative and garbled Content-Length
            assert await raw(
                b"POST /query_batch HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            ) == 400
            assert await raw(
                b"POST /query_batch HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            ) == 400
            # wrong method on every route
            for request in (
                b"POST /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                b"GET /query_batch HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                b"POST /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            ):
                assert await raw(request) == 405
            # the server survived all of it
            status, _ = await _http_request(port, "GET", "/query?s=0&t=5")
            assert status == 200
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())

    def test_body_cut_off_mid_read_is_a_400(self, served_index):
        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            port, stop, task = await self._serve(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /query_batch HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"pa"
            )
            await writer.drain()
            writer.write_eof()  # half-close: the body never finishes
            status = int((await reader.readline()).split()[1])
            writer.close()
            await writer.wait_closed()
            assert status == 400
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("POST", "/query_batch", {"pairs": [[1.7, 2.9]]}),
            ("POST", "/query_batch", {"pairs": [[True, False]]}),
            ("POST", "/query_batch", {"pairs": [["3", "4"]]}),
            ("POST", "/query_batch", {"pairs": [[0, 5]], "deadline_ms": True}),
            ("POST", "/query_batch", {"pairs": [[0, 5]], "deadline_ms": float("nan")}),
            ("POST", "/query_batch", {"pairs": [[0, 5]], "deadline_ms": 10**400}),
            ("GET", "/query?s=1_0&t=2", None),
            ("GET", "/query?s=+5&t=2", None),
            ("GET", "/query?s=%D9%A3&t=2", None),  # Arabic-Indic digit three
            ("GET", "/query?s=0&t=2&deadline_ms=nan", None),
            ("GET", "/query?s=0&t=2&deadline_ms=1_0", None),
            ("GET", "/query?s=0&t=2&deadline_ms=1e3", None),
            ("GET", "/query?s=0&t=2&deadline_ms=+5", None),  # "+" decodes to " "
            ("GET", "/query?s=0&t=2&deadline_ms=5.", None),
            ("RAW", "+19", {"pairs": [[0, 5]]}),
            ("RAW", "1_9", {"pairs": [[0, 5]]}),
            ("RAW", "19.0", {"pairs": [[0, 5]]}),
        ],
        ids=[
            "float", "bool", "string", "bool-deadline", "nan-deadline",
            "huge-deadline", "underscore", "plus", "non-ascii", "nan-deadline-param",
            "underscore-deadline-param", "exponent-deadline-param",
            "plus-deadline-param", "bare-point-deadline-param",
            "plus-content-length", "underscore-content-length",
            "fraction-content-length",
        ],
    )
    def test_malformed_numbers_are_a_400(self, served_index, method, path, body):
        """Each was answered before: as another vertex (int() coerces
        floats, bools, strings, "1_0", " 5" and non-ASCII digits), with no
        deadline (NaN), with a float() reading of the deadline ("1_0" was
        10 ms), as a 500 (float() overflow), or as a body framed by an
        int() reading of Content-Length ("+19" and "1_9" framed 19 bytes).
        ``RAW`` cases send ``path`` as the Content-Length header value."""

        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            port, stop, task = await self._serve(service)
            payload = json.dumps(body).encode() if body is not None else b""
            if method == "RAW":
                status, err = await _http_request(
                    port, "POST", "/query_batch", payload, content_length=path
                )
            else:
                status, err = await _http_request(port, method, path, payload)
            stats = service.stats()
            stop.set()
            await asyncio.wait_for(task, timeout=10)
            return status, err, stats

        status, err, stats = asyncio.run(main())
        assert status == 400 and "error" in err
        assert stats["batches"] == 0  # refused before any kernel call

    def test_stalled_request_times_out_as_408(self, served_index, monkeypatch):
        import repro.serve.http as http_mod

        monkeypatch.setattr(http_mod, "_READ_TIMEOUT", 0.2)

        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            port, stop, task = await self._serve(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /query?s=0")  # never finish the request line
            await writer.drain()
            status = int((await asyncio.wait_for(reader.readline(), timeout=10)).split()[1])
            writer.close()
            await writer.wait_closed()
            assert status == 408
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())

    def test_metrics_and_healthz_on_a_clean_service(self, served_index):
        async def main():
            service = AsyncQueryService(served_index, batch_size=16)
            port, stop, task = await self._serve(service)
            await _http_request(port, "GET", "/query?s=0&t=5")

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            content_type = ""
            while True:
                header = (await reader.readline()).decode().strip()
                if not header:
                    break
                if header.lower().startswith("content-type:"):
                    content_type = header.partition(":")[2].strip()
            text = (await reader.read()).decode()
            writer.close()
            await writer.wait_closed()

            assert status == 200
            assert content_type.startswith("text/plain")
            for series in (
                "repro_queries_total",
                "repro_shed_total{cause=\"overload\"} 0",
                "repro_health 0",
                "repro_flush_latency_seconds_bucket",
                "repro_request_latency_seconds_count",
                "repro_http_responses_total{code=\"200\"}",
            ):
                assert series in text, series

            status, health = await _http_request(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(main())


# ----------------------------------------------------------------------
# `python -m repro serve` end to end
# ----------------------------------------------------------------------
def test_cli_serve_end_to_end(tmp_path):
    """Build, serve with workers over HTTP, query, SIGTERM, no shm leak."""
    import urllib.request

    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    index_path = tmp_path / "fb.npz"
    graph = barabasi_albert(100, 3, seed=4)
    index = PSPCIndex.build(graph)
    index.save(index_path, compress=False)

    before = _segment_files()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(index_path),
            "--workers", "1", "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:  # EOF: the server died before reporting a port
                break
            if "serving on" in line:
                port = int(line.rsplit(":", 1)[1].split()[0])
                break
        assert port is not None, "server never reported its port"
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/query?s=0&t=42", timeout=30
        ) as response:
            answer = json.loads(response.read())
        expected = index.query(0, 42)
        assert (answer["dist"], answer["count"]) == (expected.dist, expected.count)
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    assert _segment_files() == before


# ----------------------------------------------------------------------
# review regressions: stale-reply quarantine and count overflow
# ----------------------------------------------------------------------
def _overflow_store():
    """A tiny compact store whose query count exceeds int64.

    Stored counts fit int64 (2**40) but the query-time product is 2**80 —
    the regime where the kernels fall back to Python-int accumulation and
    the worker protocol must not truncate.
    """
    from repro.core.compact import CompactLabelIndex
    from repro.ordering.base import VertexOrder

    big = 2**40
    order = VertexOrder.from_order(np.array([2, 0, 1]), 3, strategy="custom")
    # ranks: v2 -> 0, v0 -> 1, v1 -> 2; labels sorted by hub rank
    indptr = np.array([0, 2, 4, 5], dtype=np.int64)
    hubs = np.array([0, 1, 0, 2, 0], dtype=np.int32)
    dists = np.array([1, 0, 1, 0, 0], dtype=np.int16)
    counts = np.array([big, 1, big, 1, 1], dtype=np.int64)
    weights = np.ones(3, dtype=np.int64)
    return CompactLabelIndex(order, indptr, hubs, dists, counts, weights)


def test_pool_preserves_counts_beyond_int64():
    store = _overflow_store()
    direct = store.query(0, 1)
    assert direct.count == 2**80  # the scenario is real
    with WorkerPool(store, workers=1) as pool:
        assert pool.query_batch([(0, 1), (1, 0), (2, 2)]) == store.query_batch(
            [(0, 1), (1, 0), (2, 2)]
        )
        assert pool.query(0, 1).count == 2**80


def test_counts_beyond_int64_exact_on_every_transport():
    """The overflow store through the store, a 2-shard pool and HTTP."""
    from repro.core.queries import spc_query

    store = _overflow_store()
    pairs = [(0, 1), (1, 0), (2, 2), (0, 2), (2, 1), (1, 1)]
    labels = store.to_label_index()
    expected = [spc_query(labels, s, t) for s, t in pairs]
    assert expected[0].count == 2**80  # the scenario is real
    assert store.query_batch(pairs) == expected
    with WorkerPool(store, workers=2, shards=2) as pool:
        assert pool.query_batch(pairs) == expected

    async def main():
        service = AsyncQueryService(store, workers=2, shards=2)
        port, stop, task = await TestHttpUnhappyPaths._serve(service)
        status, body = await _http_request(
            port, "POST", "/query_batch", json.dumps({"pairs": pairs}).encode()
        )
        point_status, point = await _http_request(
            port, "GET", "/query?s=1&t=0&deadline_ms=2500.5"
        )
        stop.set()
        await asyncio.wait_for(task, timeout=30)
        return status, body, point_status, point

    status, body, point_status, point = asyncio.run(main())
    assert status == 200 and point_status == 200
    assert body["results"] == [
        {"s": r.s, "t": r.t, "dist": r.dist, "count": r.count} for r in expected
    ]
    assert (point["dist"], point["count"]) == (expected[1].dist, 2**80)


def test_batch_encoder_bytes_match_json_dumps():
    """/query_batch encodes from the answer rows, byte for byte as json.dumps
    of the per-pair dicts, counts beyond int64 included."""
    from repro.serve.http import encode_results

    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 10**6, size=(257, 2))
    answers = np.stack(
        [rng.integers(-1, 30, 257), rng.integers(0, 2**62, 257)], axis=1
    )

    def reference(pairs_arr, rows):
        return json.dumps(
            {
                "results": [
                    {"s": s, "t": t, "dist": d, "count": c}
                    for (s, t), (d, c) in zip(pairs_arr.tolist(), rows)
                ]
            }
        ).encode()

    assert encode_results(pairs, answers) == reference(pairs, answers.tolist())
    exact = [(d, c * 2**70) for d, c in answers.tolist()]
    assert encode_results(pairs, exact) == reference(pairs, exact)
    empty = np.empty((0, 2), dtype=np.int64)
    assert encode_results(empty, empty) == reference(empty, [])


def test_failed_batch_never_leaks_stale_replies(served_index):
    """If one shard fails, other workers' replies must not poison batch N+1."""
    pairs_a = _random_pairs(served_index.n, 40, seed=1)
    pairs_b = _random_pairs(served_index.n, 60, seed=2)
    with WorkerPool(served_index, workers=2) as pool:
        original = pool._recv_shard
        state = {"fired": False}

        def failing_recv(slot, shard, trace_id=None):
            if not state["fired"]:
                state["fired"] = True
                raise ServeError("injected shard failure")
            return original(slot, shard, trace_id)

        pool._recv_shard = failing_recv
        with pytest.raises(ServeError, match="injected"):
            pool.query_batch(pairs_a)
        # the quarantine must have drained (or replaced) every worker that
        # still had a reply in flight: the next batch is answered correctly
        assert pool.query_batch(pairs_b) == served_index.query_batch(pairs_b)
        # replacements are observable, and distinct from the crash budget
        stats = pool.stats()
        assert stats["respawns"] == 0
        assert stats["quarantines"] >= 0  # drained promptly or replaced


def test_async_bad_submit_does_not_poison_cobatched_queries(served_index):
    """Validation happens before admission: one bad request fails alone."""

    async def main():
        async with AsyncQueryService(served_index, batch_size=50, max_wait=0.01) as svc:
            good = [svc.submit(s, t) for s, t in _random_pairs(served_index.n, 10)]
            with pytest.raises(QueryError, match="out of range"):
                await svc.submit(0, served_index.n + 5)
            with pytest.raises(QueryError, match="out of range"):
                await svc.query_batch([(0, 1), (-3, 2)])
            return await asyncio.gather(*good)

    results = asyncio.run(main())
    assert results == [served_index.query(r.s, r.t) for r in results]


def test_pool_bulk_chunks_scale_with_workers(served_index):
    """A pool-backed bulk sweep is one pool dispatch, split across workers."""
    pairs = _random_pairs(served_index.n, 300)

    async def main():
        async with AsyncQueryService(
            served_index, workers=2, batch_size=64
        ) as service:
            results = await service.query_batch(pairs)
            return results, service.stats()

    results, stats = asyncio.run(main())
    assert results == served_index.query_batch(pairs)
    assert stats["bulk_flushes"] == 1  # not ceil(300 / batch_size) chunks
    assert stats["pool"]["batches"] == 1
    assert [row["queries"] > 0 for row in stats["pool"]["per_worker"]] == [True, True]


def test_overflow_bound_is_per_store(served_index):
    """A safe store's cached bound never leaks onto another store."""
    pairs = _random_pairs(served_index.n, 8)
    served_index.query_batch(pairs)
    assert served_index.store.overflow_bound < 2**62
    store = _overflow_store()
    assert store.overflow_bound is None  # nothing cached before its first batch
    assert [r.count for r in store.query_batch([(0, 1), (1, 0), (2, 2)])] == [
        2**80, 2**80, 1,
    ]
    assert store.overflow_bound >= 2**62


def test_pool_ragged_batch_raises_query_error(served_index):
    with WorkerPool(served_index, workers=1) as pool:
        with pytest.raises(QueryError, match="pairs"):
            pool.query_batch([(1, 2), (3,)])


def test_http_bad_batch_values_return_400(served_index):
    from repro.serve.http import serve

    async def main():
        service = AsyncQueryService(served_index, batch_size=16)
        ready: asyncio.Future = asyncio.get_running_loop().create_future()
        stop = asyncio.Event()
        task = asyncio.ensure_future(
            serve(service, "127.0.0.1", 0, ready=ready, stop=stop)
        )
        _, port = await asyncio.wait_for(ready, timeout=10)
        status, err = await _http_request(
            port, "POST", "/query_batch",
            json.dumps({"pairs": [["a", 2]]}).encode(),
        )
        assert status == 400 and "integer" in err["error"]
        stop.set()
        await asyncio.wait_for(task, timeout=10)

    asyncio.run(main())


def test_serve_surface_imports_lazily():
    """`import repro` must not pay for asyncio/multiprocessing serving code."""
    code = (
        "import sys, repro\n"
        "heavy = [m for m in ('repro.serve.http', 'repro.serve.pool',\n"
        "                     'repro.serve.async_service') if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "from repro import AsyncQueryService, WorkerPool, ShmIndexSegment\n"
        "assert AsyncQueryService.__name__ == 'AsyncQueryService'\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_directed_compact_store_persists_and_opens(directed_index, tmp_path):
    """directed-compact rides the same pack_store/unpack_store schema as shm."""
    from repro.api import open_index

    compact = directed_index.labels  # compact is the default store
    assert isinstance(compact, CompactDirectedLabelIndex)
    path = tmp_path / "directed_compact.npz"
    compact.save(path, compress=False)
    loaded = CompactDirectedLabelIndex.load(path, mmap=True)
    assert loaded == compact
    assert isinstance(loaded.hubs_in, np.memmap)

    facade = open_index(path, mmap=True)
    assert isinstance(facade, DirectedSPCIndex)
    # the facade serves the packed arrays directly — no tuple thaw
    assert isinstance(facade.labels, CompactDirectedLabelIndex)
    pairs = _random_pairs(directed_index.n, 40)
    assert facade.query_batch(pairs) == directed_index.query_batch(pairs)
    assert facade.query(*pairs[0]) == directed_index.query(*pairs[0])

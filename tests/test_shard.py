"""The shard fleet: partitioning, scatter/gather routing, shard-owner pools.

Covers the sharding PR's acceptance surface:

* ``partition_store`` splits the compact arrays by contiguous vertex
  ranges into global-shaped per-shard stores, for the undirected AND
  directed representations, and the shard files round-trip through
  ``write_shard``/``read_shard`` checksummed;
* fleet manifests are built and fenced only by the ``core.store``
  helpers (schema errors are typed and specific);
* the parity matrix: ``k ∈ {1, 2, 4, 7}`` shards are **bit-identical**
  to single-segment serving on every bundled generator family, for both
  orientations, through the store-level gather evaluator and through
  real shard-owning worker pools — including the degraded path where a
  shard's only owner has been retired;
* partial publish failures roll back every already-published segment
  and the spill directory (satellite of the ``/dev/shm`` leak gate);
* the LRU point cache sits *above* the shard router: repeated pairs hit
  in the sync and async services alike, never re-entering the fleet.
"""

from __future__ import annotations

import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import QueryService, open_index
from repro.core import store as store_module
from repro.core.index import PSPCIndex
from repro.core.store import (
    build_fleet_manifest,
    check_fleet_manifest,
    is_fleet_manifest,
    partition_store,
    read_shard,
    shard_bounds,
    shard_of,
    write_shard,
)
from repro.digraph.digraph import DiGraph
from repro.digraph.index import DirectedSPCIndex
from repro.errors import PersistenceError, ServeError
from repro.graph.generators import (
    barabasi_albert,
    grid_road_network,
    powerlaw_cluster,
    watts_strogatz,
)
from repro.serve import (
    AsyncQueryService,
    GatherEvaluator,
    ShmIndexSegment,
    ShmSegmentFleet,
    WorkerPool,
    home_shards,
    split_by_home_shard,
)

#: One small instance per bundled generator family (mirrors test_serve).
GENERATORS = {
    "barabasi_albert": lambda: barabasi_albert(120, 3, seed=5),
    "watts_strogatz": lambda: watts_strogatz(90, 6, 0.2, seed=6),
    "powerlaw_cluster": lambda: powerlaw_cluster(110, 3, 0.5, seed=7),
    "grid_road_network": lambda: grid_road_network(9, 9, extra_edges=8, seed=8),
}

#: the shard counts of the parity matrix: trivial, even, power-of-two,
#: and a count that does not divide any generator's vertex count
SHARD_COUNTS = (1, 2, 4, 7)


def _random_pairs(n: int, count: int, seed: int = 3) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [(int(s), int(t)) for s, t in rng.integers(n, size=(count, 2))]


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def generator_index(request) -> PSPCIndex:
    return PSPCIndex.build(GENERATORS[request.param]())


@pytest.fixture(scope="module")
def served_index() -> PSPCIndex:
    """One shared index for the process-spawning tests."""
    return PSPCIndex.build(barabasi_albert(150, 3, seed=11), num_landmarks=10)


@pytest.fixture(scope="module")
def directed_index() -> DirectedSPCIndex:
    rng = np.random.default_rng(17)
    edges = [(int(u), int(v)) for u, v in rng.integers(60, size=(150, 2)) if u != v]
    return DirectedSPCIndex.build(DiGraph(60, edges))


def _cold_choice(k: int) -> tuple[int, ...]:
    """Keep the last shard out of shared memory whenever there is one."""
    return (k - 1,) if k > 1 else ()


# ----------------------------------------------------------------------
# partitioning: bounds, slicing, shard files
# ----------------------------------------------------------------------
class TestPartitionStore:
    def test_bounds_cover_and_are_monotone(self):
        bounds = shard_bounds(120, 7)
        assert bounds[0] == 0 and bounds[-1] == 120
        assert np.all(np.diff(bounds) >= 1)
        assert shard_bounds(8, 8).tolist() == list(range(9))

    def test_bounds_validation(self):
        with pytest.raises(PersistenceError):
            shard_bounds(10, 0)
        with pytest.raises(PersistenceError):
            shard_bounds(5, 6)

    def test_shard_of_routes_every_vertex(self):
        bounds = shard_bounds(120, 4)
        owners = shard_of(bounds, np.arange(120))
        assert owners.min() == 0 and owners.max() == 3
        # ownership is exactly the half-open ranges of the bounds
        for shard in range(4):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            assert np.all(owners[lo:hi] == shard)

    def test_shards_are_global_shaped_and_cover_the_labels(self, generator_index):
        store = generator_index.store
        shards, bounds = partition_store(store, 4)
        assert len(shards) == 4
        total = 0
        for shard, part in enumerate(shards):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            # global-shaped: same n, empty label slices outside [lo, hi)
            assert part.n == store.n
            assert part.indptr[lo] == 0
            total += int(part.indptr[-1])
            for v in range(lo, hi):
                np.testing.assert_array_equal(
                    part.hubs[part.indptr[v] : part.indptr[v + 1]],
                    store.hubs[store.indptr[v] : store.indptr[v + 1]],
                )
        assert total == len(store.hubs)

    def test_local_pairs_answer_on_the_bare_shard(self, generator_index):
        store = generator_index.store
        shards, bounds = partition_store(store, 2)
        lo, hi = int(bounds[0]), int(bounds[1])
        rng = np.random.default_rng(9)
        pairs = [
            (int(s), int(t))
            for s, t in rng.integers(low=lo, high=hi, size=(40, 2))
        ]
        assert shards[0].query_batch(pairs) == store.query_batch(pairs)

    def test_shard_file_round_trip_checksummed(self, generator_index, tmp_path):
        store = generator_index.store
        shards, bounds = partition_store(store, 2)
        path = tmp_path / "shard-000.npz"
        entry = write_shard(
            path, shards[0],
            vertex_lo=int(bounds[0]), vertex_hi=int(bounds[1]),
            shard_index=0, shard_count=2,
        )
        assert entry["nbytes"] > 0
        loaded, meta = read_shard(path, mmap=True, verify=True)
        assert meta["shard_index"] == 0 and meta["shard_count"] == 2
        assert loaded == shards[0]
        store_module.close_store(loaded)

    def test_shard_file_opens_through_open_index(self, generator_index, tmp_path):
        store = generator_index.store
        shards, bounds = partition_store(store, 3)
        path = tmp_path / "s1.npz"
        write_shard(
            path, shards[1],
            vertex_lo=int(bounds[1]), vertex_hi=int(bounds[2]),
            shard_index=1, shard_count=3,
        )
        facade = open_index(path)
        lo, hi = int(bounds[1]), int(bounds[2])
        pairs = [(lo, hi - 1), (lo + 1, lo + 2)]
        assert facade.query_batch(pairs) == store.query_batch(pairs)

    def test_directed_partition_keeps_both_sides(self, directed_index):
        labels = directed_index.labels
        shards, bounds = partition_store(labels, 3)
        for shard, part in enumerate(shards):
            lo = int(bounds[shard])
            for side in ("in", "out"):
                indptr = getattr(part, f"indptr_{side}")
                full = getattr(labels, f"indptr_{side}")
                assert indptr[lo] == 0
                assert len(getattr(part, f"hubs_{side}")) == int(
                    full[int(bounds[shard + 1])] - full[lo]
                )


# ----------------------------------------------------------------------
# fleet manifests: only the canonical helpers speak the schema
# ----------------------------------------------------------------------
class TestFleetManifest:
    def _manifest(self, n: int = 10, k: int = 2) -> dict:
        bounds = shard_bounds(n, k)
        shards = [
            {
                "shard": i,
                "vertex_lo": int(bounds[i]),
                "vertex_hi": int(bounds[i + 1]),
                "nbytes": 100,
                "checksum": 0,
                "npz": f"/tmp/s{i}.npz",
            }
            for i in range(k)
        ]
        return build_fleet_manifest(
            n=n, store_kind="compact", bounds=bounds, shards=shards
        )

    def test_build_and_json_round_trip(self):
        manifest = self._manifest()
        assert is_fleet_manifest(manifest)
        import json

        parsed = check_fleet_manifest(json.dumps(manifest))
        assert parsed["bounds"] == manifest["bounds"]

    def test_extra_keys_tolerated(self):
        manifest = dict(self._manifest(), hot=[0])
        assert check_fleet_manifest(manifest)["hot"] == [0]

    def test_format_fence(self):
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(self._manifest(), format="something-else"))
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(self._manifest(), version=99))

    def test_bounds_must_cover_and_be_monotone(self):
        manifest = self._manifest()
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(manifest, bounds=[0, 7, 10, 9]))
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(manifest, bounds=[1, 5, 10]))

    def test_shard_entries_must_match_bounds(self):
        manifest = self._manifest()
        broken = [dict(entry) for entry in manifest["shards"]]
        broken[1]["vertex_lo"] = 3
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(manifest, shards=broken))
        with pytest.raises(PersistenceError):
            check_fleet_manifest(dict(manifest, shards=manifest["shards"][:1]))

    def test_not_a_fleet(self):
        assert not is_fleet_manifest({"format": "repro-shm-segment-v1"})
        assert not is_fleet_manifest("nope")


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_home_shard_is_parity_owner(self):
        # inside one shard: that shard; straddling: the shard of s when
        # s + t is even, the shard of t when it is odd
        bounds = shard_bounds(100, 4)
        pairs = np.array(
            [[10, 80], [80, 10], [99, 0], [30, 30], [11, 80], [80, 11], [26, 27]],
            dtype=np.int64,
        )
        homes = home_shards(bounds, pairs)
        assert homes.tolist() == [0, 3, 0, 1, 3, 0, 1]

    @pytest.mark.parametrize("k", (2, 4, 7))
    def test_uniform_pairs_load_every_shard_evenly(self, k):
        # min-vertex routing gave shard i a (2(k-i)-1)/k^2 share (3/4 vs
        # 1/4 at k=2); parity routing gives each shard 1/k
        bounds = shard_bounds(700, k)
        pairs = np.random.default_rng(k).integers(700, size=(20_000, 2))
        shares = np.bincount(home_shards(bounds, pairs), minlength=k) / len(pairs)
        assert np.all(np.abs(shares - 1 / k) <= 0.1 / k), shares

    def test_split_preserves_positions(self):
        bounds = shard_bounds(100, 4)
        rng = np.random.default_rng(12)
        pairs = rng.integers(100, size=(64, 2)).astype(np.int64)
        groups = split_by_home_shard(bounds, pairs)
        seen = np.concatenate([positions for _, positions in groups])
        assert sorted(seen.tolist()) == list(range(64))
        homes = home_shards(bounds, pairs)
        for shard, positions in groups:
            assert np.all(homes[positions] == shard)


# ----------------------------------------------------------------------
# the parity matrix: k shards ≡ one segment, bit for bit
# ----------------------------------------------------------------------
class TestShardParity:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_gather_evaluator_matches_single_segment(self, generator_index, k):
        index = generator_index
        pairs = _random_pairs(index.n, 200)
        expected = index.query_batch(pairs)
        with ShmSegmentFleet.publish(index, shards=k, cold=_cold_choice(k)) as fleet:
            evaluator = GatherEvaluator(fleet)
            assert evaluator.query_batch(pairs) == expected
            if k > 1:
                # the fleet genuinely exceeds what this handle has mapped hot
                assert fleet.attached_bytes < fleet.total_label_bytes

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_directed_gather_matches_single_segment(self, directed_index, k):
        index = directed_index
        pairs = _random_pairs(index.n, 200, seed=21)
        expected = index.query_batch(pairs)
        with ShmSegmentFleet.publish(index, shards=k, cold=_cold_choice(k)) as fleet:
            assert GatherEvaluator(fleet).query_batch(pairs) == expected

    def test_sharded_pool_matches_single_segment(self, served_index):
        pairs = _random_pairs(served_index.n, 300)
        expected = served_index.query_batch(pairs)
        with WorkerPool(served_index, workers=2, shards=4, cold=(3,)) as pool:
            assert pool.query_batch(pairs) == expected
            stats = pool.stats()
            assert stats["fleet"]["shards"] == 4
            assert sum(s["queries"] for s in stats["fleet"]["per_shard"]) > 0
            # every shard has exactly one owner even with workers < shards
            owned = sorted(
                shard for row in stats["per_worker"] for shard in row["shards"]
            )
            assert owned == [0, 1, 2, 3]

    def test_more_workers_than_shards_replicates(self, served_index):
        pairs = _random_pairs(served_index.n, 120, seed=7)
        expected = served_index.query_batch(pairs)
        with WorkerPool(served_index, workers=5, shards=2) as pool:
            assert pool.query_batch(pairs) == expected

    def test_directed_sharded_pool_matches(self, directed_index):
        pairs = _random_pairs(directed_index.n, 200, seed=31)
        expected = directed_index.query_batch(pairs)
        with WorkerPool(directed_index, workers=2, shards=4, cold=(3,)) as pool:
            assert pool.directed is True
            assert pool.query_batch(pairs) == expected

    def test_retired_shard_owner_stays_bit_identical(self, served_index):
        # kill the sole owner of shard 0 with no respawn budget: its
        # batches reroute to the parent's in-process gather evaluator,
        # results stay bit-identical, and the degradation is observable
        # per shard
        pairs = _random_pairs(served_index.n, 160, seed=13)
        expected = served_index.query_batch(pairs)
        with WorkerPool(
            served_index, workers=3, shards=3, max_respawns=0
        ) as pool:
            victim = next(s for s in pool._slots if 0 in s.shards)
            os.kill(victim.pid, signal.SIGKILL)
            for _ in range(2):
                assert pool.query_batch(pairs) == expected
            assert pool.health() == "degraded"
            states = pool.shard_states()
            assert states[0]["live_owners"] == 0
            assert states[0]["fallback_queries"] > 0
            assert all(s["live_owners"] == 1 for s in states[1:])


# ----------------------------------------------------------------------
# publish failure: no half-published fleets
# ----------------------------------------------------------------------
class TestPartialPublishRollback:
    def _spill_dirs(self) -> set[str]:
        tmp = Path(tempfile.gettempdir())
        return {p.name for p in tmp.glob("repro-fleet-*")}

    def test_failed_shard_publish_unlinks_predecessors(
        self, served_index, monkeypatch
    ):
        real_publish = ShmIndexSegment.publish.__func__
        calls = {"count": 0}

        def failing(cls, store, name=None):
            calls["count"] += 1
            if calls["count"] == 3:
                raise ServeError("synthetic publish failure on shard 2")
            return real_publish(cls, store, name=name)

        monkeypatch.setattr(
            ShmIndexSegment, "publish", classmethod(failing)
        )
        shm_before = set(os.listdir("/dev/shm"))
        spill_before = self._spill_dirs()
        with pytest.raises(ServeError, match="synthetic publish failure"):
            # reprolint: disable=R001 (the publish raises; rollback-on-failure is the subject under test)
            ShmSegmentFleet.publish(served_index, shards=4)
        # shards 0 and 1 were live when shard 2 failed: both unlinked,
        # and the spill directory is gone with them
        assert set(os.listdir("/dev/shm")) == shm_before
        assert self._spill_dirs() == spill_before

    def test_failed_attach_detaches_predecessors(self, served_index):
        with ShmSegmentFleet.publish(served_index, shards=3) as fleet:
            broken = dict(fleet.manifest, hot=[0, 1, 2])
            entries = [dict(e) for e in broken["shards"]]
            entries[2] = dict(
                entries[2],
                shm=dict(entries[2]["shm"], shm_name="repro-seg-nonexistent"),
            )
            broken["shards"] = entries
            with pytest.raises(ServeError):
                # reprolint: disable=R001 (the attach raises; partial-attach rollback is the subject under test)
                ShmSegmentFleet.attach(broken)
            # the owner's segments must still be attachable afterwards:
            # the failed attach released its partial mappings
            twin = ShmSegmentFleet.attach(fleet.manifest, hot=(0, 1))
            try:
                assert twin.hot_shards == (0, 1)
            finally:
                twin.close()


# ----------------------------------------------------------------------
# the LRU point cache sits above the router
# ----------------------------------------------------------------------
class TestCacheAboveRouter:
    def test_sync_service_hits_on_sharded_pool(self, served_index):
        with WorkerPool(served_index, workers=2, shards=2) as pool:
            service = QueryService(pool, batch_size=4, cache_size=16)
            expected = served_index.query(3, 140)
            for _ in range(5):
                assert service.query(3, 140) == expected
            # undirected keys canonicalise: the reversed pair hits too
            reverse = service.query(140, 3)
            assert (reverse.dist, reverse.count) == (expected.dist, expected.count)
            stats = service.stats()
            assert stats["cache_misses"] == 1
            assert stats["cache_hits"] == 5
            service.close()

    def test_async_service_hits_on_sharded_pool(self, served_index):
        import asyncio

        async def main():
            service = AsyncQueryService(
                served_index, workers=2, shards=2, batch_size=4, cache_size=16
            )
            try:
                expected = served_index.query(7, 120)
                for _ in range(4):
                    assert await service.submit(7, 120) == expected
                reverse = await service.submit(120, 7)
                assert (reverse.dist, reverse.count) == (
                    expected.dist, expected.count
                )
                return service.stats()
            finally:
                await service.aclose()

        stats = asyncio.run(main())
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 4

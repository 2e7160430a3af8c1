"""Tests for the QueryEngine dispatch layer and the vectorized batch kernel."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.compact import CompactLabelIndex
from repro.core.engine import QueryEngine, query_batch_compact
from repro.core.index import PSPCIndex
from repro.core.queries import spc_query, spc_query_with_cost
from repro.errors import QueryError
from repro.graph.generators import barabasi_albert, grid_road_network, watts_strogatz
from repro.graph.graph import Graph


@pytest.fixture
def built(social_graph):
    index = PSPCIndex.build(social_graph, store="tuple")
    compact = CompactLabelIndex.from_index(index.labels)
    return social_graph, index.labels, compact


class TestDispatch:
    def test_kind_property(self, built):
        _, labels, compact = built
        assert QueryEngine(labels).kind == "tuple"
        assert QueryEngine(compact).kind == "compact"

    def test_engines_agree_per_pair(self, built):
        graph, labels, compact = built
        tuple_engine = QueryEngine(labels)
        compact_engine = QueryEngine(compact)
        rng = np.random.default_rng(3)
        for _ in range(150):
            s, t = (int(x) for x in rng.integers(graph.n, size=2))
            assert tuple_engine.query(s, t) == compact_engine.query(s, t)

    def test_shortcuts(self, built):
        _, _, compact = built
        engine = QueryEngine(compact)
        result = engine.query(0, 5)
        assert engine.spc(0, 5) == result.count
        assert engine.distance(0, 5) == result.dist


class TestVectorizedBatch:
    def test_matches_tuple_kernel(self, built):
        graph, labels, compact = built
        rng = np.random.default_rng(5)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(500, 2))]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_crosses_chunk_boundaries(self, built, monkeypatch):
        graph, labels, compact = built
        monkeypatch.setattr(engine_module, "_BATCH_CHUNK", 7)
        rng = np.random.default_rng(6)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(40, 2))]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_identity_and_unreachable(self, two_components):
        index = PSPCIndex.build(two_components)
        results = index.query_batch([(1, 1), (0, 4), (0, 2)])
        assert (results[0].dist, results[0].count) == (0, 1)
        assert (results[1].dist, results[1].count) == (-1, 0)
        assert (results[2].dist, results[2].count) == (2, 1)

    def test_empty_batch(self, built):
        _, _, compact = built
        assert query_batch_compact(compact, []) == []

    def test_out_of_range_rejected(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(0, 10_000)])
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(-1, 0)])

    def test_bad_shape_rejected(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            query_batch_compact(compact, [(1, 2, 3)])

    def test_ndarray_input_accepted(self, built):
        graph, labels, compact = built
        pairs = np.array([[0, 5], [3, 9], [7, 7]])
        expected = [spc_query(labels, int(s), int(t)) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected

    def test_weighted_graph_batch(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weights=[1, 5, 1])
        index = PSPCIndex.build(g)
        assert index.store.kind == "compact"
        results = index.query_batch([(0, 2), (0, 1), (2, 2)])
        assert [r.count for r in results] == [5, 1, 1]

    def test_overflow_guard_falls_back(self, built, monkeypatch):
        # the exact fallback is the per-pair Python-int kernel that also
        # serves CompactLabelIndex.query
        _, labels, compact = built
        calls = {"per_pair": 0}
        original = engine_module.join_pair

        def counting_join_pair(*args):
            calls["per_pair"] += 1
            return original(*args)

        monkeypatch.setattr(engine_module, "join_pair", counting_join_pair)
        monkeypatch.setattr(engine_module, "_SAFE_LIMIT", 1)  # everything "unsafe"
        pairs = [(0, 5), (3, 9)]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        assert query_batch_compact(compact, pairs) == expected
        assert calls["per_pair"] == len(pairs)

    def test_overflow_bound_scanned_once_per_store(self, built, monkeypatch):
        _, labels, compact = built
        scans = []
        original = engine_module._scan_overflow_bound

        def spy(store):
            scans.append(store)
            return original(store)

        monkeypatch.setattr(engine_module, "_scan_overflow_bound", spy)
        pairs = [(0, 5), (3, 9)]
        expected = [spc_query(labels, s, t) for s, t in pairs]
        for _ in range(3):
            assert query_batch_compact(compact, pairs) == expected
            assert compact.query_batch(pairs) == expected
        assert len(scans) == 1 and scans[0] is compact
        # another store scans its own counts; the cache is not equality
        twin = CompactLabelIndex.from_index(labels)
        assert twin == compact and twin.overflow_bound is None
        assert QueryEngine(twin).query_batch(pairs) == expected
        assert len(scans) == 2 and scans[1] is twin


class TestJoinPaths:
    """The dense probe table and the searchsorted probe, each forced."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(41)
        yield barabasi_albert(140, 4, seed=3)
        yield watts_strogatz(90, 6, 0.2, seed=6)
        yield grid_road_network(8, 9, extra_edges=6, seed=8)
        # equivalence-style multiplicities: the weighted join
        yield Graph(
            60,
            [tuple(e) for e in rng.integers(60, size=(150, 2))],
            vertex_weights=rng.integers(1, 4, size=60).tolist(),
        )

    @pytest.mark.parametrize("cells", [0, 1 << 30], ids=["searchsorted", "dense"])
    def test_forced_path_matches_tuple_kernel(self, monkeypatch, cells):
        tables = []
        original = engine_module._join_chunk

        def spy(*args):
            tables.append(args[-1] is not None)
            return original(*args)

        monkeypatch.setattr(engine_module, "_join_chunk", spy)
        monkeypatch.setattr(engine_module, "_TABLE_CELLS", cells)
        monkeypatch.setattr(engine_module, "_BATCH_CHUNK", 37)  # several chunks
        for graph in self._graphs():
            index = PSPCIndex.build(graph, store="tuple")
            compact = CompactLabelIndex.from_index(index.labels)
            rng = np.random.default_rng(graph.n)
            pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(300, 2))]
            expected = [spc_query(index.labels, s, t) for s, t in pairs]
            assert query_batch_compact(compact, pairs) == expected
        assert tables and all(tables) == bool(cells) and any(tables) == bool(cells)

    def test_paths_agree_bit_for_bit(self, built, monkeypatch):
        graph, _, compact = built
        pairs = np.random.default_rng(12).integers(graph.n, size=(700, 2))
        answers = {}
        for cells in (0, 1 << 30):
            monkeypatch.setattr(engine_module, "_TABLE_CELLS", cells)
            answers[cells] = compact.answer_batch(pairs)
        assert answers[0].dtype == np.int64
        assert np.array_equal(answers[0], answers[1 << 30])


class TestCosts:
    def test_costs_match_tuple_kernel(self, built):
        graph, labels, compact = built
        rng = np.random.default_rng(9)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(100, 2))]
        expected = [spc_query_with_cost(labels, s, t)[1] for s, t in pairs]
        assert QueryEngine(compact).query_costs(pairs) == expected
        assert QueryEngine(labels).query_costs(pairs) == expected

    def test_costs_out_of_range(self, built):
        _, _, compact = built
        with pytest.raises(QueryError):
            QueryEngine(compact).query_costs([(0, 10_000)])


class TestFacadeIntegration:
    def test_default_serving_store_is_compact(self, social_graph):
        index = PSPCIndex.build(social_graph)
        assert index.store.kind == "compact"
        assert index.engine.kind == "compact"

    def test_all_entry_points_agree_with_tuple_build(self):
        graph = barabasi_albert(130, 3, seed=29)
        compact_index = PSPCIndex.build(graph)
        tuple_index = PSPCIndex.build(graph, store="tuple")
        rng = np.random.default_rng(31)
        pairs = [(int(a), int(b)) for a, b in rng.integers(graph.n, size=(200, 2))]
        assert compact_index.query_batch(pairs) == tuple_index.query_batch(pairs)
        for s, t in pairs[:50]:
            assert compact_index.query(s, t) == tuple_index.query(s, t)
            assert compact_index.spc(s, t) == tuple_index.spc(s, t)
            assert compact_index.distance(s, t) == tuple_index.distance(s, t)

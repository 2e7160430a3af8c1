"""Unit tests for the directed-graph subsystem (DiGraph + directed ESPC)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.digraph import (
    DiGraph,
    DirectedSPCIndex,
    bfs_counting_directed,
    bfs_distances_directed,
    build_hpspc_directed,
    build_pspc_directed,
    degree_order_directed,
    spc_pair_directed,
    spc_query_directed,
)
from repro.digraph.generators import (
    directed_barabasi_albert,
    directed_cycle,
    directed_grid_road_network,
    directed_powerlaw_cluster,
    directed_watts_strogatz,
)
from repro.errors import GraphError, IndexBuildError, QueryError, VertexError
from repro.graph.traversal import UNREACHABLE


@pytest.fixture
def dag() -> DiGraph:
    """Two directed routes 0->3 plus a back-arc 3->0."""
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])


@pytest.fixture
def random_digraph() -> DiGraph:
    rng = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in rng.integers(60, size=(260, 2)) if a != b]
    return DiGraph(60, edges)


class TestDiGraph:
    def test_arcs_are_directional(self, dag):
        assert dag.has_edge(0, 1)
        assert not dag.has_edge(1, 0)
        assert list(dag.out_neighbors(0)) == [1, 2]
        assert list(dag.in_neighbors(0)) == [3]

    def test_degrees(self, dag):
        assert dag.out_degree(0) == 2
        assert dag.in_degree(0) == 1
        assert int(dag.degrees()[3]) == 3

    def test_duplicates_and_self_loops(self):
        g = DiGraph(3, [(0, 1), (0, 1), (1, 1)])
        assert g.m == 1

    def test_reverse(self, dag):
        rev = dag.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.m == dag.m

    def test_validation(self):
        with pytest.raises(VertexError):
            DiGraph(2, [(0, 5)])
        with pytest.raises(GraphError):
            DiGraph(-1, [])

    def test_edges_iteration(self, dag):
        assert sorted(dag.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]

    def test_equality(self):
        assert DiGraph(2, [(0, 1)]) == DiGraph(2, [(0, 1)])
        assert DiGraph(2, [(0, 1)]) != DiGraph(2, [(1, 0)])


class TestDirectedTraversal:
    def test_forward_distances(self, dag):
        dist = bfs_distances_directed(dag, 0)
        assert list(dist) == [0, 1, 1, 2]

    def test_reverse_distances(self, dag):
        dist = bfs_distances_directed(dag, 0, reverse=True)
        assert int(dist[3]) == 1  # 3 -> 0 directly

    def test_counting_two_routes(self, dag):
        _, count = bfs_counting_directed(dag, 0)
        assert count[3] == 2

    def test_reverse_counting(self, dag):
        _, count = bfs_counting_directed(dag, 3, reverse=True)
        assert count[0] == 2  # two shortest 0 -> 3 paths

    def test_pair_unreachable(self):
        g = DiGraph(3, [(0, 1)])
        assert spc_pair_directed(g, 1, 0) == (UNREACHABLE, 0)

    def test_pair_identity(self, dag):
        assert spc_pair_directed(dag, 2, 2) == (0, 1)


class TestDirectedBuilders:
    def test_pspc_equals_hpspc(self, random_digraph):
        order = degree_order_directed(random_digraph)
        hp, _ = build_hpspc_directed(random_digraph, order)
        ps, _ = build_pspc_directed(random_digraph, order)
        assert hp == ps

    def test_all_pairs_match_bfs(self, dag):
        order = degree_order_directed(dag)
        index, _ = build_pspc_directed(dag, order)
        for s in range(4):
            for t in range(4):
                got = spc_query_directed(index, s, t)
                assert (got.dist, got.count) == spc_pair_directed(dag, s, t)

    def test_asymmetric_answers(self, dag):
        index, _ = build_pspc_directed(dag, degree_order_directed(dag))
        forward = spc_query_directed(index, 0, 3)
        backward = spc_query_directed(index, 3, 0)
        assert (forward.dist, forward.count) == (2, 2)
        assert (backward.dist, backward.count) == (1, 1)

    def test_landmarks_do_not_change_index(self, random_digraph):
        order = degree_order_directed(random_digraph)
        plain, _ = build_pspc_directed(random_digraph, order)
        filtered, stats = build_pspc_directed(random_digraph, order, num_landmarks=8)
        assert plain == filtered
        assert stats.landmark_hits > 0

    def test_random_queries_match_bfs(self, random_digraph):
        index, _ = build_pspc_directed(random_digraph, degree_order_directed(random_digraph))
        rng = np.random.default_rng(9)
        for _ in range(120):
            s, t = (int(x) for x in rng.integers(random_digraph.n, size=2))
            got = spc_query_directed(index, s, t)
            assert (got.dist, got.count) == spc_pair_directed(random_digraph, s, t)

    def test_max_iterations_enforced(self, random_digraph):
        with pytest.raises(IndexBuildError):
            build_pspc_directed(
                random_digraph, degree_order_directed(random_digraph), max_iterations=1
            )

    def test_cycle_graph_directed(self):
        # directed cycle: exactly one path in each direction around the ring
        g = DiGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        index, _ = build_pspc_directed(g, degree_order_directed(g))
        assert spc_query_directed(index, 0, 3).dist == 3
        assert spc_query_directed(index, 3, 0).dist == 3
        assert spc_query_directed(index, 0, 3).count == 1


class TestDirectedFacade:
    def test_build_and_query(self, dag):
        index = DirectedSPCIndex.build(dag)
        assert index.spc(0, 3) == 2
        assert index.distance(3, 0) == 1
        assert index.n == 4

    def test_hpspc_builder_option(self, dag):
        a = DirectedSPCIndex.build(dag, builder="hpspc")
        b = DirectedSPCIndex.build(dag, builder="pspc")
        assert a.labels == b.labels

    def test_unknown_builder(self, dag):
        with pytest.raises(IndexBuildError):
            DirectedSPCIndex.build(dag, builder="nope")

    def test_verify(self, random_digraph):
        DirectedSPCIndex.build(random_digraph).verify_against_bfs(samples=40)

    def test_out_of_range_query(self, dag):
        index = DirectedSPCIndex.build(dag)
        with pytest.raises(QueryError):
            index.query(0, 9)

    def test_label_views(self, dag):
        index = DirectedSPCIndex.build(dag)
        assert any(d == 0 for _, d, _ in index.labels.label_in(0))
        assert any(d == 0 for _, d, _ in index.labels.label_out(0))

    def test_compact_store_is_default(self, random_digraph):
        from repro.digraph.labels import CompactDirectedLabelIndex

        index = DirectedSPCIndex.build(random_digraph)
        assert isinstance(index.labels, CompactDirectedLabelIndex)

    def test_tuple_store_opt_out(self, random_digraph):
        from repro.digraph.labels import DirectedLabelIndex

        index = DirectedSPCIndex.build(random_digraph, store="tuple")
        assert isinstance(index.labels, DirectedLabelIndex)

    def test_save_load_round_trip(self, random_digraph, tmp_path):
        # label-level round trip of the tuple representation
        index = DirectedSPCIndex.build(random_digraph, store="tuple")
        path = tmp_path / "directed.npz"
        index.labels.save(path)
        from repro.digraph.labels import DirectedLabelIndex

        assert DirectedLabelIndex.load(path) == index.labels


class TestDirectedBatchJoin:
    """``CompactDirectedLabelIndex.query_batch`` is the two-view join of
    ``Lout(s)`` and ``Lin(t)``; it must equal per-pair ``query`` (and the
    tuple kernel) on every directed generator family."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: directed_barabasi_albert(120, 3, seed=5),
            lambda: directed_watts_strogatz(90, 6, 0.2, seed=6),
            lambda: directed_powerlaw_cluster(110, 3, 0.5, seed=7),
            lambda: directed_grid_road_network(8, 9, extra_edges=6, seed=8),
            lambda: directed_cycle(25),
        ],
        ids=["barabasi_albert", "watts_strogatz", "powerlaw_cluster", "grid", "cycle"],
    )
    def test_batch_equals_per_pair_queries(self, make):
        from repro.digraph.labels import CompactDirectedLabelIndex

        graph = make()
        labels = DirectedSPCIndex.build(graph).labels
        assert isinstance(labels, CompactDirectedLabelIndex)
        tuple_labels = labels.to_directed_index()
        rng = np.random.default_rng(graph.n)
        pairs = [(int(s), int(t)) for s, t in rng.integers(graph.n, size=(400, 2))]
        pairs += [(0, 0), (graph.n - 1, 0)]
        batch = labels.query_batch(pairs)
        assert batch == [labels.query(s, t) for s, t in pairs]
        assert batch == [spc_query_directed(tuple_labels, s, t) for s, t in pairs]
        assert labels.overflow_bound is not None  # cached by the first batch

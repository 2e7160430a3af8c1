"""Property-based tests (hypothesis) for the core invariants.

These are the strongest checks in the suite: on arbitrary random graphs and
arbitrary total orders, the PSPC index must (1) equal the HP-SPC index,
(2) answer every query exactly like the BFS oracle, and (3) be invariant to
the propagation paradigm and the landmark filter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hpspc import hpspc_index
from repro.core.pspc import pspc_index
from repro.core.queries import spc_query

# property tests target the raw label builders through their deprecated
# shims (the invariants are about the builders, not the facades)
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")
from repro.graph.graph import Graph
from repro.graph.traversal import spc_pair
from repro.ordering.base import VertexOrder
from repro.ordering.degree import degree_order
from repro.reduction.pipeline import ReducedSPCIndex


@st.composite
def random_graphs(draw, max_n: int = 14) -> Graph:
    """Arbitrary undirected graphs with up to ``max_n`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)) if possible else []
    return Graph(n, edges)


@st.composite
def graphs_with_orders(draw, max_n: int = 12) -> tuple[Graph, VertexOrder]:
    graph = draw(random_graphs(max_n))
    perm = draw(st.permutations(range(graph.n)))
    return graph, VertexOrder.from_order(np.array(perm, dtype=np.int64), graph.n)


@settings(max_examples=60, deadline=None)
@given(graphs_with_orders())
def test_pspc_equals_hpspc_for_any_order(data):
    graph, order = data
    assert pspc_index(graph, order) == hpspc_index(graph, order)


@settings(max_examples=60, deadline=None)
@given(graphs_with_orders())
def test_index_answers_match_bfs_for_all_pairs(data):
    graph, order = data
    index = pspc_index(graph, order)
    for s in range(graph.n):
        for t in range(graph.n):
            result = spc_query(index, s, t)
            assert (result.dist, result.count) == spc_pair(graph, s, t)


@settings(max_examples=40, deadline=None)
@given(graphs_with_orders())
def test_push_and_pull_build_identical_indexes(data):
    graph, order = data
    assert pspc_index(graph, order, paradigm="push") == pspc_index(graph, order, paradigm="pull")


@settings(max_examples=40, deadline=None)
@given(graphs_with_orders(), st.integers(min_value=1, max_value=6))
def test_landmarks_never_change_the_index(data, k):
    graph, order = data
    assert pspc_index(graph, order, num_landmarks=k) == pspc_index(graph, order)


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_reduction_pipeline_is_exact(graph):
    reduced = ReducedSPCIndex.build(graph, ordering="degree")
    for s in range(graph.n):
        for t in range(graph.n):
            got = reduced.query(s, t)
            assert (got.dist, got.count) == spc_pair(graph, s, t)


@settings(max_examples=40, deadline=None)
@given(
    random_graphs(max_n=10),
    st.lists(st.integers(min_value=1, max_value=4), min_size=10, max_size=10),
)
def test_weighted_counting_matches_blowup(graph, weights):
    """Vertex-weighted counting == plain counting on the expanded graph.

    Each vertex v with weight w is replaced by w copies wired identically;
    a query between copy-0 endpoints must agree with the weighted count.
    """
    weights = weights[: graph.n]
    weighted = Graph(graph.n, list(graph.edges()), vertex_weights=weights)

    # build the blow-up graph: vertex (v, i) for i < w(v)
    offsets = np.concatenate([[0], np.cumsum(weights)]).astype(int)
    blow_edges = []
    for u, v in graph.edges():
        for i in range(weights[u]):
            for j in range(weights[v]):
                blow_edges.append((offsets[u] + i, offsets[v] + j))
    blown = Graph(int(offsets[-1]), blow_edges)

    index = pspc_index(weighted, degree_order(weighted))
    for s in range(graph.n):
        for t in range(graph.n):
            if s == t:
                continue
            expected = spc_pair(blown, int(offsets[s]), int(offsets[t]))
            got = spc_query(index, s, t)
            assert (got.dist, got.count) == expected


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_bidirectional_bfs_matches_unidirectional(graph):
    from repro.baselines.bidirectional import bidirectional_spc

    for s in range(graph.n):
        for t in range(graph.n):
            assert bidirectional_spc(graph, s, t) == spc_pair(graph, s, t)


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_compact_index_matches_tuple_index(graph):
    from repro.core.compact import CompactLabelIndex

    index = pspc_index(graph, degree_order(graph))
    compact = CompactLabelIndex.from_index(index)
    for s in range(graph.n):
        for t in range(graph.n):
            got = compact.query(s, t)
            ref = spc_query(index, s, t)
            assert (got.dist, got.count) == (ref.dist, ref.count)


@st.composite
def random_digraphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)) if possible else []
    from repro.digraph import DiGraph

    return DiGraph(n, edges)


@settings(max_examples=40, deadline=None)
@given(random_digraphs())
def test_directed_pspc_equals_hpspc_and_bfs(graph):
    from repro.digraph import (
        build_hpspc_directed,
        build_pspc_directed,
        degree_order_directed,
        spc_pair_directed,
        spc_query_directed,
    )

    order = degree_order_directed(graph)
    hp, _ = build_hpspc_directed(graph, order)
    ps, _ = build_pspc_directed(graph, order)
    assert hp == ps
    for s in range(graph.n):
        for t in range(graph.n):
            got = spc_query_directed(ps, s, t)
            assert (got.dist, got.count) == spc_pair_directed(graph, s, t)


@settings(max_examples=30, deadline=None)
@given(graphs_with_orders(max_n=10))
def test_full_audit_accepts_every_built_index(data):
    from repro.core.verify import audit_full

    graph, order = data
    index = pspc_index(graph, order)
    audit_full(index, graph, query_samples=None)


# ----------------------------------------------------------------------
# graph construction: the fast load path against the original algorithms
# ----------------------------------------------------------------------
def _reference_canonical_pairs(n: int, edges) -> np.ndarray:
    """The original canonicalisation: per-edge ints, row-wise unique."""
    rows = [(int(u), int(v)) for u, v in edges]
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    arr = np.sort(arr, axis=1)
    if not arr.size:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(arr, axis=0)


def _reference_csr(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The original CSR build: lexsort plus an ``add.at`` degree count."""
    heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
    tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((tails, heads))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, heads[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, tails[order].astype(np.int32)


def _reference_components(graph: Graph) -> np.ndarray:
    """The original Python DFS labelling (ids in discovery order)."""
    comp = np.full(graph.n, -1, dtype=np.int64)
    cid = 0
    for s in range(graph.n):
        if comp[s] >= 0:
            continue
        comp[s] = cid
        stack = [s]
        while stack:
            u = stack.pop()
            for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]:
                if comp[v] < 0:
                    comp[v] = cid
                    stack.append(int(v))
        cid += 1
    return comp


@st.composite
def raw_edge_lists(draw, max_n: int = 40) -> tuple[int, list[tuple[int, int]]]:
    """Edge lists as callers write them: duplicates, both orientations,
    self-loops, few or many components."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, edges


@settings(max_examples=150, deadline=None)
@given(raw_edge_lists(), st.booleans())
def test_graph_construction_matches_reference(data, packed_keys):
    from unittest import mock

    n, edges = data
    indptr, indices = _reference_csr(n, _reference_canonical_pairs(n, edges))
    # packed_keys=False forces the n^2 >= 2^63 fallback (row-wise unique,
    # lexsort) that huge vertex counts take
    with mock.patch.object(Graph, "_packable", lambda self: packed_keys):
        graph = Graph(n, edges)
        from_array = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    assert graph.indptr.dtype == indptr.dtype and graph.indices.dtype == indices.dtype
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)
    assert from_array == graph


@settings(max_examples=150, deadline=None)
@given(raw_edge_lists())
def test_components_match_reference_dfs(data):
    from repro.graph.properties import connected_components, largest_component

    graph = Graph(*data)
    expected = _reference_components(graph)
    assert np.array_equal(connected_components(graph), expected)
    sub, keep = largest_component(graph)
    best = int(np.argmax(np.bincount(expected)))
    assert np.array_equal(keep, np.flatnonzero(expected == best))
    assert sub == graph.subgraph(keep)[0]

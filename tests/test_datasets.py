"""Unit tests for the benchmark dataset registry."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError
from repro.experiments.datasets import (
    DATASETS,
    PAPER_STATS,
    dataset_names,
    load_dataset,
    random_query_pairs,
)
from repro.graph.properties import is_connected


class TestRegistry:
    def test_ten_paper_datasets(self):
        names = dataset_names()
        assert len(names) == 10
        assert names[0] == "FB"
        assert names[-1] == "IN"

    def test_road_dataset_optional(self):
        assert "ROAD" in dataset_names(include_road=True)
        assert "ROAD" not in dataset_names()

    def test_all_specs_have_paper_stats(self):
        for key in dataset_names():
            assert key in PAPER_STATS
            v, e, davg = PAPER_STATS[key]
            assert v > 0 and e > 0 and davg > 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("XX")


class TestLoadedGraphs:
    def test_connected(self):
        for key in ("FB", "YT", "ROAD"):
            assert is_connected(load_dataset(key))

    def test_cached(self):
        assert load_dataset("FB") is load_dataset("FB")

    def test_relative_density_preserved(self):
        """PE and IN are the dense datasets, YT the sparsest (as in Table III)."""
        davg = {k: load_dataset(k).average_degree() for k in ("PE", "IN", "YT", "GW")}
        assert davg["PE"] > davg["GW"]
        assert davg["IN"] > davg["GW"]
        assert davg["YT"] < davg["GW"]

    def test_size_ordering_of_extremes(self):
        assert load_dataset("FB").n < load_dataset("YT").n

    def test_road_is_low_degree(self):
        road = load_dataset("ROAD")
        assert road.average_degree() < 5


class TestQueryWorkload:
    def test_deterministic(self):
        g = load_dataset("FB")
        assert random_query_pairs(g, 50, seed=1) == random_query_pairs(g, 50, seed=1)

    def test_count_and_range(self):
        g = load_dataset("FB")
        pairs = random_query_pairs(g, 25, seed=2)
        assert len(pairs) == 25
        assert all(0 <= s < g.n and 0 <= t < g.n for s, t in pairs)


#: sha1 of ``indptr`` + ``indices`` + ``vertex_weights`` bytes of every
#: registry graph: the load path may get faster, never different.
REGISTRY_DIGESTS = {
    "FB": "468f1fdfd8e6836ba545c9fd4661ff6b92527a8d",
    "GW": "d843e7821691a7793781509ab0d584cf8f56c70a",
    "WI": "77f9ec787b3e1f48e288b091d570b40897093e87",
    "GO": "f35f8732bc9ae0a3bf74e0fa65f4a7b4dc603ef0",
    "DB": "7c2416572fd8b2536af264c6189d1ac88722bd6c",
    "BE": "c645ac1e6f943697605528349f006586312fd87b",
    "YT": "eef1276e34c900946c3efb66695dd83297b74652",
    "PE": "c6585fd4a03c2290c827383993a3c3885d3c91a2",
    "FL": "ceb43d14709a20db625301b8a60ee95dd8016026",
    "IN": "cb987157d2399c5f1715cf8edb9f7f4f98ea06e7",
    "ROAD": "d32cd4af49a5474b93c5ebfbe9f6acaf5198bf53",
}


@pytest.mark.parametrize("key", sorted(REGISTRY_DIGESTS))
def test_registry_graphs_are_pinned(key):
    import hashlib

    import numpy as np

    graph = load_dataset(key)
    digest = hashlib.sha1()
    for array in (graph.indptr, graph.indices, graph.vertex_weights):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == REGISTRY_DIGESTS[key]

"""Equivalence suite for the process-parallel build backend.

The repository's central invariant, extended once more: for a fixed total
order, ``engine="parallel"`` must produce the **bit-identical** canonical
ESPC index (same store, same pruning counters, same per-vertex work
units) that the single-process vectorized kernels produce — on every
bundled generator, for any worker count, with and without landmarks, on
vertex-weighted and reduction-derived graphs, and across the
int64-overflow fallback.

Spawned workers make these tests slower than the in-process suites; the
generator matrix is kept to one instance per family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastbuild import build_pspc_vectorized
from repro.core.index import BuildConfig, PSPCIndex
from repro.core.labels import LabelIndex
from repro.core.procbuild import build_pspc_parallel
from repro.core.queries import spc_query
from repro.errors import IndexBuildError
from repro.graph.generators import (
    barabasi_albert,
    grid_road_network,
    powerlaw_cluster,
    watts_strogatz,
)
from repro.graph.graph import Graph
from repro.ordering.degree import degree_order
from repro.reduction.pipeline import ReducedSPCIndex

#: One small instance per bundled generator family (mirrors test_fastbuild).
GENERATORS = {
    "barabasi_albert": lambda: barabasi_albert(120, 3, seed=5),
    "watts_strogatz": lambda: watts_strogatz(90, 6, 0.2, seed=6),
    "powerlaw_cluster": lambda: powerlaw_cluster(110, 3, 0.5, seed=7),
    "grid_road_network": lambda: grid_road_network(9, 9, extra_edges=8, seed=8),
}


def diamond_chain(k: int) -> tuple[Graph, int]:
    """``k`` diamonds in series: ``spc(0, end) == 2**k`` (overflow driver)."""
    edges = []
    prev = 0
    next_id = 1
    for _ in range(k):
        a, b, end = next_id, next_id + 1, next_id + 2
        next_id += 3
        edges += [(prev, a), (prev, b), (a, end), (b, end)]
        prev = end
    return Graph(next_id, edges), prev


def assert_bit_identical(graph, workers: int, num_landmarks: int = 0) -> None:
    """Parallel build == vectorized build: store, counters and work units."""
    order = degree_order(graph)
    vec, vec_stats = build_pspc_vectorized(graph, order, num_landmarks=num_landmarks)
    par, par_stats = build_pspc_parallel(
        graph, order, num_landmarks=num_landmarks, workers=workers
    )
    assert par == vec
    assert par_stats.pruned_by_rank == vec_stats.pruned_by_rank
    assert par_stats.pruned_by_query == vec_stats.pruned_by_query
    assert par_stats.landmark_hits == vec_stats.landmark_hits
    assert par_stats.iteration_labels == vec_stats.iteration_labels
    assert par_stats.total_entries == vec_stats.total_entries
    assert len(par_stats.iteration_costs) == len(vec_stats.iteration_costs)
    for par_costs, vec_costs in zip(
        par_stats.iteration_costs, vec_stats.iteration_costs
    ):
        assert np.array_equal(par_costs, vec_costs)


@pytest.mark.parametrize("num_landmarks", [0, 4], ids=["nolm", "lm4"])
@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestCrossEngineEquivalence:
    def test_bit_identical_index_and_counters(self, name, num_landmarks):
        assert_bit_identical(GENERATORS[name](), workers=2, num_landmarks=num_landmarks)


class TestWorkerCountIndependence:
    def test_one_worker_still_spawns_and_matches(self):
        assert_bit_identical(GENERATORS["barabasi_albert"](), workers=1)

    def test_worker_count_does_not_change_the_index(self):
        # 3 workers over 90 vertices: uneven shards, including the remap
        # path (the labels outgrow the initial 2n capacity on this graph)
        assert_bit_identical(GENERATORS["watts_strogatz"](), workers=3)

    def test_more_workers_than_vertices(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert_bit_identical(graph, workers=8)


class TestWeightedAndReduced:
    def test_weighted_graph_identical(self):
        graph = Graph(
            5,
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            vertex_weights=[1, 2, 1, 3, 1],
        )
        assert_bit_identical(graph, workers=2)

    def test_reduction_pipeline_identical_answers(self, social_graph):
        par = ReducedSPCIndex.build(social_graph, engine="parallel", workers=2)
        vec = ReducedSPCIndex.build(social_graph, engine="vectorized")
        # the reduced core is vertex-weighted, exercising the factor path
        assert par.index.store == vec.index.store
        rng = np.random.default_rng(23)
        for _ in range(25):
            s, t = (int(x) for x in rng.integers(social_graph.n, size=2))
            assert par.query(s, t) == vec.query(s, t)

    def test_empty_and_trivial_graphs(self):
        for graph in (Graph(0, []), Graph(1, []), Graph(3, [])):
            assert_bit_identical(graph, workers=2)


class TestOverflowFallback:
    def test_falls_back_to_reference_and_tuple_store(self):
        graph, end = diamond_chain(70)  # 2**70 shortest paths: beyond int64
        store, stats = build_pspc_parallel(graph, degree_order(graph), workers=2)
        assert isinstance(store, LabelIndex)
        assert stats.engine == "reference"  # the exact loops took over
        assert spc_query(store, 0, end).count == 2**70

    def test_facade_fallback_matches_vectorized_route(self):
        graph, end = diamond_chain(70)
        index = PSPCIndex.build(graph, engine="parallel", workers=2)
        assert index.store.kind == "tuple"
        assert index.stats.engine == "reference"
        assert index.spc(0, end) == 2**70


class TestFacadeAndConfig:
    def test_engine_and_workers_recorded_and_round_tripped(
        self, social_graph, tmp_path
    ):
        index = PSPCIndex.build(social_graph, engine="parallel", workers=2)
        assert index.config.engine == "parallel"
        assert index.config.workers == 2
        assert index.stats.engine == "parallel"
        path = tmp_path / "parallel.npz"
        index.save(path)
        loaded = PSPCIndex.load(path)
        assert loaded.config.engine == "parallel"
        assert loaded.config.workers == 2
        assert loaded.store == index.store

    def test_matches_default_engine_through_the_facade(self, social_graph):
        par = PSPCIndex.build(social_graph, engine="parallel", workers=2)
        vec = PSPCIndex.build(social_graph)
        assert par.store == vec.store
        assert par.stats.total_work == vec.stats.total_work

    def test_build_index_api_route(self, social_graph):
        from repro.api import build_index

        par = build_index(social_graph, method="pspc", engine="parallel", workers=2)
        vec = build_index(social_graph, method="pspc")
        assert par.store == vec.store

    def test_thread_parallelism_is_rejected(self, social_graph):
        with pytest.raises(IndexBuildError):
            PSPCIndex.build(social_graph, engine="parallel", threads=4)

    def test_validation(self, social_graph, paper_order):
        order = degree_order(social_graph)
        with pytest.raises(IndexBuildError):
            build_pspc_parallel(social_graph, order, paradigm="teleport")
        with pytest.raises(IndexBuildError):
            build_pspc_parallel(social_graph, paper_order)
        with pytest.raises(IndexBuildError):
            build_pspc_parallel(social_graph, order, workers=0)

    def test_config_default_workers(self):
        assert BuildConfig().workers == 2


class TestHygiene:
    def test_no_shm_blocks_leak(self, social_graph, assert_no_shm_leak):
        build_pspc_parallel(social_graph, degree_order(social_graph), workers=2)

    def test_spawn_and_construction_phases_recorded(self, social_graph):
        _, stats = build_pspc_parallel(
            social_graph, degree_order(social_graph), workers=2
        )
        assert stats.phase("spawn") > 0.0
        assert stats.phase("construction") > 0.0


def test_back_to_back_parallel_builds_leave_clean_stderr(tmp_path):
    """Workers attach the build's shm blocks without touching the resource
    tracker they share with the parent, so the parent's unlinks never make
    the tracker print a ``KeyError`` traceback (and a real leak warning
    would stay visible)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "two_builds.py"
    script.write_text(
        "from repro.api import build_index\n"
        "from repro.core.index import BuildConfig\n"
        "from repro.experiments.datasets import load_dataset\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    config = BuildConfig(engine='parallel', workers=2, num_landmarks=20)\n"
        "    for key in ('FB', 'FB'):\n"
        "        build_index(load_dataset(key), config=config)\n"
        "    print('built')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "built"
    assert "KeyError" not in proc.stderr, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr

"""Inputs and expected answers.

Inputs come from the seed alone.  Before anything is timed, every expected
``(dist, count)`` is computed in-process from the same index file the
server serves, and a sample of them is checked against the BFS oracle, so
a served answer can be compared with a value that is itself checked.
Builds are compared with the vectorized engine's store, array by array.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api import build_index, open_index
from repro.core.index import BuildConfig
from repro.experiments.datasets import load_dataset
from repro.graph.traversal import spc_pair

#: Dataset every serve workload indexes (dense web-graph stand-in).
SERVE_DATASET = "IN"
#: Landmark count used for every build, as in the paper's setup.
LANDMARKS = 20
#: Pairs checked against the BFS oracle per expected-answer table.
ORACLE_SAMPLES = 24


class WrongAnswer(AssertionError):
    """An expected answer disagrees with the BFS oracle or the reference."""


def build_config(engine: str, workers: int = 1, profile: bool = False) -> BuildConfig:
    return BuildConfig(
        engine=engine, workers=workers, num_landmarks=LANDMARKS, profile=profile
    )


def build_serve_index(work: Path, key: str = SERVE_DATASET):
    """Build ``key`` with the vectorized engine and save it uncompressed.

    Uncompressed so ``repro serve`` memory-maps it (its default open path).
    Returns ``(path, index)``.
    """
    index = build_index(load_dataset(key), config=build_config("vectorized"))
    path = work / f"{key}.npz"
    index.save(path, compress=False)
    return path, index


def uniform_pairs(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform random ``(s, t)`` pairs over ``n`` vertices."""
    return rng.integers(0, n, size=(count, 2), dtype=np.int64)


def expected_answers(index_path: Path, pairs: np.ndarray, key: str = SERVE_DATASET) -> np.ndarray:
    """``(dist, count)`` per pair from the index file, oracle-checked.

    Opens the file the way the server does (memory-mapped), answers every
    pair in one batch, then checks an evenly spaced sample against a BFS
    over the dataset graph.
    """
    counter = open_index(index_path, mmap=True)
    try:
        answers = np.array(
            [(r.dist, r.count) for r in counter.query_batch(pairs)], dtype=np.int64
        ).reshape(-1, 2)
    finally:
        counter.close()
    graph = load_dataset(key)
    step = max(1, len(pairs) // ORACLE_SAMPLES)
    for i in range(0, len(pairs), step):
        s, t = int(pairs[i, 0]), int(pairs[i, 1])
        dist, count = spc_pair(graph, s, t)
        if (dist, count) != (int(answers[i, 0]), int(answers[i, 1])):
            raise WrongAnswer(
                f"index answers ({s}, {t}) = {tuple(answers[i])}, BFS says {(dist, count)}"
            )
    return answers


def store_arrays(index) -> "tuple[np.ndarray, ...]":
    """The compact store's label columns (what bit-identity compares)."""
    store = index.store
    return (store.indptr, store.hubs, store.dists, store.counts)


def same_store(a: "tuple[np.ndarray, ...]", b: "tuple[np.ndarray, ...]") -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a, b)
    )

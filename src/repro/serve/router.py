"""Shard routing and the two-view join evaluator over a segment fleet.

The single-segment pool answers every pair against one whole-index store.
A sharded fleet splits the label arrays by contiguous vertex ranges into
per-shard stores that keep the *global* ``indptr`` shape (vertices outside
a shard's range have empty labels).  A pair ``(s, t)`` needs ``s``'s
s-side label and ``t``'s t-side label; when the two endpoints live on
different shards the pair *straddles*.

The join (:func:`repro.core.engine.join_stores`) takes its s side and its
t side from two different stores, so a straddling pair needs no copying:
:class:`GatherEvaluator` groups a batch by ``(shard(s), shard(t))`` and
runs the join once per group on the two shard stores directly, reading
the shard it holds hot from shared memory and any other shard through
the fleet's lazily-mmapped cold path.  Answers are **bit-identical** to
the single-segment path: the join reads nothing but the two endpoints'
label slices, the vertex order, and the per-rank hub weights (the same
in every shard).

Because any shard's evaluator answers any pair identically, routing is
free to balance load: :func:`home_shards` sends a straddling pair to the
shard of ``s`` when ``s + t`` is even and to the shard of ``t`` when it
is odd, so straddlers split evenly between their two shards (routing on
``min(s, t)`` gave shard ``i`` of ``k`` a ``(2(k-i)-1)/k^2`` share).
The worker pool runs one evaluator per worker (each hot on its own
shards) and the parent keeps one as the in-process fallback for retired
shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import store as store_module
from repro.core.engine import (
    Answers,
    join_stores,
    merge_answers,
    results_of,
    validate_pairs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.queries import SPCResult
    from repro.serve.shm import ShmSegmentFleet

__all__ = ["GatherEvaluator", "home_shards", "split_by_home_shard"]


def home_shards(
    bounds: np.ndarray | Sequence[int], pairs_arr: np.ndarray
) -> np.ndarray:
    """The home shard of each pair: parity routing.

    A pair inside one shard goes to that shard; a straddling pair goes to
    the shard owning ``s`` when ``s + t`` is even and to the shard owning
    ``t`` when it is odd, so uniform traffic loads every shard equally.
    A pure routing key: any owner answers any pair bit-identically, for
    both orientations, so routing never needs to know the store kind.
    """
    owners = store_module.shard_of(bounds, pairs_arr)
    odd = ((pairs_arr[:, 0] + pairs_arr[:, 1]) & 1).astype(bool)
    return np.where(odd, owners[:, 1], owners[:, 0])


def split_by_home_shard(
    bounds: np.ndarray | Sequence[int], pairs_arr: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Group a batch by home shard, keeping original batch positions.

    Returns ``[(shard, positions), ...]`` in ascending shard order, where
    ``positions`` indexes into ``pairs_arr``; the dispatcher uses the
    positions to reassemble answers in submission order.
    """
    homes = home_shards(bounds, pairs_arr)
    return [
        (int(shard), np.flatnonzero(homes == shard).astype(np.int64))
        for shard in np.unique(homes)
    ]


class GatherEvaluator:
    """Answer arbitrary batches against a shard fleet, bit-identically.

    Wraps a :class:`~repro.serve.shm.ShmSegmentFleet` and exposes the
    ``n`` / ``directed`` / ``query_batch`` surface of a whole-index store,
    plus :meth:`answer_batch` returning ``(dist, count)`` rows.  Each
    ``(shard(s), shard(t))`` group of a batch is one two-view join over
    the two shard stores.
    """

    def __init__(self, fleet: "ShmSegmentFleet") -> None:
        self._fleet = fleet
        self._bounds = fleet.bounds
        self._shards = fleet.shard_count

    # ------------------------------------------------------------------
    @property
    def fleet(self) -> "ShmSegmentFleet":
        return self._fleet

    @property
    def n(self) -> int:
        return self._fleet.n

    @property
    def directed(self) -> bool:
        return self._fleet.directed

    # ------------------------------------------------------------------
    def answer_batch(self, pairs: Sequence[tuple[int, int]]) -> Answers:
        """``(dist, count)`` rows of a batch, in input order."""
        pairs_arr = validate_pairs(pairs, self.n)
        if len(pairs_arr) == 0:
            return np.empty((0, 2), dtype=np.int64)
        owners = store_module.shard_of(self._bounds, pairs_arr)
        groups = owners[:, 0] * self._shards + owners[:, 1]
        first = int(groups[0])
        if (groups == first).all():
            return self._join_group(pairs_arr, first)
        order = np.argsort(groups, kind="stable")
        cuts = np.flatnonzero(np.diff(groups[order])) + 1
        parts = [
            (positions, self._join_group(pairs_arr[positions], int(groups[positions[0]])))
            for positions in np.split(order, cuts)
        ]
        return merge_answers(len(pairs_arr), parts)

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> "list[SPCResult]":
        """Evaluate a batch; answers match the single-segment path bit-for-bit."""
        pairs_arr = validate_pairs(pairs, self.n)
        return results_of(pairs_arr, self.answer_batch(pairs_arr))

    def _join_group(self, pairs_arr: np.ndarray, group: int) -> Answers:
        s_shard, t_shard = divmod(group, self._shards)
        return join_stores(
            pairs_arr,
            self._fleet.store_for(s_shard),
            self._fleet.store_for(t_shard),
        )

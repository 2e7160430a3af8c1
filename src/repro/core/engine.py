"""Store-agnostic SPC query evaluation: one engine, one two-view join.

:class:`QueryEngine` wraps any :class:`~repro.core.store.LabelStore` and
serves the four query entry points (``query``, ``spc``, ``distance``,
``query_batch``) by dispatching to the kernel matching the representation:

* **tuple stores** (:class:`~repro.core.labels.LabelIndex`) use the
  two-pointer Python merge in :mod:`repro.core.queries`;
* **compact stores** use :func:`join`, the batch kernel of Equations (1)-(2)
  over two :class:`~repro.core.compact.LabelView` sides.  An undirected
  store passes its own columns twice, the directed store its ``Lout``
  columns for ``s`` and its ``Lin`` columns for ``t``, and a shard fleet
  the stores of the shards owning ``s`` and ``t`` (see
  :mod:`repro.serve.router`).  It returns ``(dist, count)`` rows as one
  ``(B, 2)`` int64 array; :class:`~repro.core.queries.SPCResult` objects
  are built only at the public ``query_batch`` edges.

The join keys each label entry by ``pair_id * n + hub_rank``; within a
chunk of pairs both key arrays are sorted and duplicate-free (hubs are
strictly increasing within a label list), so the t-side entry matching each
s-side key comes from one dense lookup table (a ``pair x hub`` int32 table,
while it fits :data:`_TABLE_CELLS`) or one ``np.searchsorted`` probe.  The
matches of each pair form a contiguous segment reduced with
``np.minimum.reduceat`` / ``np.add.reduceat``.

Counts are the correctness corner: the join accumulates in ``int64`` while
the scalar kernels use Python ints.  The first batch call on a store
therefore scans it once for a conservative overflow bound
(``max_count^2 * max_weight * max_label_size``) and caches it on the store
(its ``overflow_bound`` slot); every call compares the larger bound of the
two sides with the int64 safety limit (the larger per-store bound covers a
product across two stores) and falls back to the exact per-pair path
whenever a batch could overflow.  Answers are identical to the tuple
kernel in every regime; only the speed differs.  The scan is lazy, so
opening or publishing an mmap-cold store never pages its counts in.
"""

from __future__ import annotations

from typing import Protocol, Sequence, Union

import numpy as np

from repro.core.compact import CompactLabelIndex, LabelView, join_pair
from repro.core.labels import LabelIndex
from repro.core.queries import SPCResult, merge_labels, spc_query, spc_query_with_cost
from repro.errors import QueryError
from repro.graph.traversal import UNREACHABLE, slice_positions

__all__ = [
    "Answers",
    "QueryEngine",
    "answer_batch",
    "join",
    "join_stores",
    "merge_answers",
    "query_batch_compact",
    "results_of",
    "validate_pairs",
    "validate_vertex",
]

#: A batch's answers: a ``(B, 2)`` int64 array of ``(dist, count)`` rows or,
#: only when some count exceeds int64, a list of exact Python-int tuples.
Answers = Union[np.ndarray, "list[tuple[int, int]]"]


class JoinStore(Protocol):
    """What the join needs of a compact store (undirected or directed)."""

    overflow_bound: "int | None"

    @property
    def n(self) -> int: ...

    def join_views(self) -> tuple[LabelView, LabelView]: ...


def validate_vertex(v: int, n: int) -> int:
    """Range-check one vertex id against an index over ``n`` vertices.

    The shared pre-admission check of both query services (sync and
    async): one malformed submission must fail alone, with the same
    message everywhere, before it can join a batch.
    """
    v = int(v)
    if not 0 <= v < n:
        raise QueryError(f"vertex {v} out of range for index over {n} vertices")
    return v

#: Products/sums in the vectorized kernel must stay below this bound.
_SAFE_LIMIT = 2**62


def _scan_overflow_bound(store: JoinStore) -> int:
    """``cmax^2 * max(wmax, 1) * max(lmax, 1)``: the largest value a batch
    over ``store`` can accumulate (one full scan of counts and indptr)."""
    s_view, t_view = store.join_views()
    sides = [s_view] if t_view is s_view else [s_view, t_view]
    views = [view for view in sides if len(view.counts)]
    if not views:
        return 0
    cmax = max(int(np.abs(view.counts).max()) for view in views)
    lmax = max(int(np.diff(view.indptr).max()) for view in views)
    weights = getattr(store, "weight_by_rank", None)
    wmax = int(weights.max()) if weights is not None and len(weights) else 1
    return cmax * cmax * max(wmax, 1) * max(lmax, 1)


def _store_bound(store: JoinStore) -> int:
    """The store's cached overflow bound, scanned on first use."""
    bound = store.overflow_bound
    if bound is None:
        # stores are frozen: scan once and cache; two executor threads
        # racing here both write the same int
        bound = store.overflow_bound = _scan_overflow_bound(store)
    return bound


def _weighting(store: JoinStore) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(rank, weight_by_rank)`` when the store carries multiplicities > 1
    (equivalence-reduced graphs only), else ``None``."""
    weights = getattr(store, "weight_by_rank", None)
    if weights is None or not len(weights) or int(weights.max()) <= 1:
        return None
    return store.order.rank, weights  # type: ignore[attr-defined]


#: Most pairs per vectorized chunk; chunks also bound peak memory on huge
#: batches, and pair keys ``pair_id * n + hub_rank`` stay far inside int64.
_BATCH_CHUNK = 512
#: Label entries (both sides) per chunk: sized so the key/probe
#: temporaries stay cache-resident whatever the label lengths.  On IN's
#: ~716 entries per pair that is ~90 pairs per chunk, against 512 pairs of
#: short FB/GO labels.
_CHUNK_ENTRIES = 1 << 16
#: Fewest pairs per chunk, so a batch of huge labels still vectorizes.
_MIN_CHUNK = 16
#: Cell budget of the dense ``pair x hub`` int32 probe table (4 MiB); an
#: index too wide for ``_MIN_CHUNK`` pairs of it probes with
#: ``np.searchsorted`` instead.
_TABLE_CELLS = 1 << 20


def validate_pairs(pairs: Sequence[tuple[int, int]], n: int) -> np.ndarray:
    """Canonicalise a query batch to an int64 ``(B, 2)`` array.

    The one shared validation for every batch entry point (the engine
    kernel here, the worker pool's dispatch side, the async bulk path):
    shape and vertex-range violations raise
    :class:`~repro.errors.QueryError` with identical messages everywhere,
    never a raw numpy error.
    """
    try:
        pairs_arr = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64
        )
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a vertex id beyond int64 is out of range for any
        # index, but must still surface as QueryError, not a numpy error
        raise QueryError(f"batch must be a sequence of (s, t) pairs: {exc}") from None
    if pairs_arr.size == 0:
        return pairs_arr.reshape(0, 2)
    if pairs_arr.ndim != 2 or pairs_arr.shape[1] != 2:
        raise QueryError(
            f"batch must be a sequence of (s, t) pairs, got shape {pairs_arr.shape}"
        )
    if int(pairs_arr.min()) < 0 or int(pairs_arr.max()) >= n:
        bad = pairs_arr[(pairs_arr < 0) | (pairs_arr >= n)][0]
        raise QueryError(f"vertex {int(bad)} out of range for index over {n} vertices")
    return pairs_arr


def results_of(pairs_arr: np.ndarray, answers: Answers) -> list[SPCResult]:
    """Wrap answer rows as :class:`SPCResult` objects (the public edges)."""
    rows = answers.tolist() if isinstance(answers, np.ndarray) else answers
    return [
        SPCResult(s, t, dist, count)
        for (s, t), (dist, count) in zip(pairs_arr.tolist(), rows)
    ]


def merge_answers(
    num: int, parts: Sequence[tuple[np.ndarray, Answers]]
) -> Answers:
    """Reassemble ``(positions, answers)`` parts into one batch's answers.

    Array parts scatter into one int64 array; the per-position loop runs
    only when some part holds exact Python-int rows (counts beyond int64).
    """
    if all(isinstance(answers, np.ndarray) for _, answers in parts):
        out = np.empty((num, 2), dtype=np.int64)
        for positions, answers in parts:
            out[positions] = answers
        return out
    rows: list = [None] * num
    for positions, answers in parts:
        entries = answers.tolist() if isinstance(answers, np.ndarray) else answers
        for position, (dist, count) in zip(positions.tolist(), entries):
            rows[position] = (dist, count)
    return rows


def join_stores(
    pairs_arr: np.ndarray, s_store: JoinStore, t_store: "JoinStore | None" = None
) -> Answers:
    """Answer validated pairs: ``s``'s label from ``s_store``'s s side,
    ``t``'s label from ``t_store``'s t side (default: the same store).

    Vectorized when the larger cached overflow bound of the two stores is
    safe, the exact per-pair path otherwise.
    """
    t_store = s_store if t_store is None else t_store
    s_view = s_store.join_views()[0]
    t_view = t_store.join_views()[1]
    weighting = _weighting(s_store)
    if max(_store_bound(s_store), _store_bound(t_store)) >= _SAFE_LIMIT:
        return _exact_answers(pairs_arr, s_view, t_view, weighting)
    return join(pairs_arr, s_view, t_view, weighting)


def _exact_answers(
    pairs_arr: np.ndarray,
    s_view: LabelView,
    t_view: LabelView,
    weighting: "tuple[np.ndarray, np.ndarray] | None",
) -> Answers:
    """Per-pair Python-int answers; an int64 array when every count fits."""
    rank, weights = weighting if weighting is not None else (None, None)
    rows = [
        join_pair(s_view, t_view, s, t, rank, weights)
        for s, t in pairs_arr.tolist()
    ]
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return rows


def answer_batch(store: JoinStore, pairs: Sequence[tuple[int, int]]) -> Answers:
    """Validate a batch and answer it on one compact store."""
    return join_stores(validate_pairs(pairs, store.n), store)


def query_batch_compact(
    store: JoinStore, pairs: Sequence[tuple[int, int]]
) -> list[SPCResult]:
    """Vectorized batch evaluation over a compact store.

    Falls back to the exact per-pair kernel when int64 overflow is
    possible; answers are always identical to the tuple-merge path.
    """
    pairs_arr = validate_pairs(pairs, store.n)
    return results_of(pairs_arr, join_stores(pairs_arr, store))


def join(
    pairs_arr: np.ndarray,
    s_view: LabelView,
    t_view: LabelView,
    weighting: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """The vectorized two-view join: ``(dist, count)`` int64 rows per pair.

    ``pairs_arr`` must be validated and the batch overflow-safe (see
    :func:`join_stores`).  ``weighting`` is ``(rank, weight_by_rank)`` on
    equivalence-reduced graphs, ``None`` otherwise.
    """
    num = len(pairs_arr)
    out = np.zeros((num, 2), dtype=np.int64)
    if num == 0:
        return out
    out[:, 0] = UNREACHABLE
    n = len(s_view.indptr) - 1
    s = pairs_arr[:, 0]
    t = pairs_arr[:, 1]
    lo_s = s_view.indptr[s]
    len_s = s_view.indptr[s + 1] - lo_s
    lo_t = t_view.indptr[t]
    len_t = t_view.indptr[t + 1] - lo_t
    per_pair = max(1, int(len_s.sum() + len_t.sum()) // num)
    chunk = min(_BATCH_CHUNK, num, max(_MIN_CHUNK, _CHUNK_ENTRIES // per_pair))
    table = None
    if min(chunk, _MIN_CHUNK) * n <= _TABLE_CELLS:
        chunk = min(chunk, _TABLE_CELLS // n)
        table = np.full(chunk * n, -1, dtype=np.int32)
    for start in range(0, num, chunk):
        part = slice(start, start + chunk)
        _join_chunk(
            out[part], s[part], t[part], lo_s[part], len_s[part], lo_t[part],
            len_t[part], s_view, t_view, n, weighting, table,
        )
    return out


def _join_chunk(
    out: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    lo_s: np.ndarray,
    len_s: np.ndarray,
    lo_t: np.ndarray,
    len_t: np.ndarray,
    s_view: LabelView,
    t_view: LabelView,
    n: int,
    weighting: "tuple[np.ndarray, np.ndarray] | None",
    table: "np.ndarray | None",
) -> None:
    """One chunk of :func:`join`, written into ``out`` (preset unreachable)."""
    num = len(s)
    pos_s = slice_positions(lo_s, len_s)
    pos_t = slice_positions(lo_t, len_t)
    pid_s = np.repeat(np.arange(num, dtype=np.int64), len_s)
    keys_s = pid_s * n + s_view.hubs[pos_s]
    keys_t = np.repeat(np.arange(num, dtype=np.int64), len_t) * n + t_view.hubs[pos_t]
    if table is not None:
        # dense probe: each t-side key's cell holds its entry index; the
        # written cells are reset, so the table is clean for the next chunk
        table[keys_t] = np.arange(len(keys_t), dtype=np.int32)
        probe = table[keys_s]
        table[keys_t] = -1
        match = np.flatnonzero(probe >= 0)
    else:
        # both key arrays are sorted and unique, so the common hubs of
        # every pair fall out of one searchsorted probe (no concat-and-sort)
        probe = np.searchsorted(keys_t, keys_s)
        probe_ok = probe < len(keys_t)
        hit = np.zeros(len(keys_s), dtype=bool)
        hit[probe_ok] = keys_t[probe[probe_ok]] == keys_s[probe_ok]
        match = np.flatnonzero(hit)
    if len(match):
        entry_s = pos_s[match]
        entry_t = pos_t[probe[match]]
        pid = pid_s[match]  # nondecreasing: matches inherit the key order
        dsum = s_view.dists[entry_s].astype(np.int32) + t_view.dists[entry_t]

        # per-pair matches are contiguous segments; reduce with reduceat
        seg_mask = np.empty(len(pid), dtype=bool)
        seg_mask[0] = True
        np.not_equal(pid[1:], pid[:-1], out=seg_mask[1:])
        seg_start = np.flatnonzero(seg_mask)
        seg_pid = pid[seg_start]
        seg_best = np.minimum.reduceat(dsum, seg_start)
        best = np.empty(num, dtype=np.int32)
        best[seg_pid] = seg_best
        at_best = dsum == best[pid]

        contrib = s_view.counts[entry_s] * t_view.counts[entry_t]
        if weighting is not None:  # only equivalence-reduced graphs
            rank, weights = weighting
            hub = s_view.hubs[entry_s].astype(np.int64)
            internal = (hub != rank[s[pid]]) & (hub != rank[t[pid]])
            contrib = np.where(internal, contrib * weights[hub], contrib)
        contrib *= at_best
        out[seg_pid, 0] = seg_best
        out[seg_pid, 1] = np.add.reduceat(contrib, seg_start)
    same = s == t
    out[same, 0] = 0
    out[same, 1] = 1


def _merge_steps(hubs_s: Sequence[int], hubs_t: Sequence[int]) -> int:
    """Two-pointer merge step count (the Fig. 9 work unit), hubs only."""
    i = j = steps = 0
    len_s, len_t = len(hubs_s), len(hubs_t)
    while i < len_s and j < len_t:
        steps += 1
        if hubs_s[i] < hubs_t[j]:
            i += 1
        elif hubs_s[i] > hubs_t[j]:
            j += 1
        else:
            i += 1
            j += 1
    return steps


class QueryEngine:
    """Serve SPC queries from any label store with the best kernel for it.

    Examples
    --------
    >>> from repro.graph import cycle_graph
    >>> from repro.core.pspc import build_pspc
    >>> from repro.ordering.degree import degree_order
    >>> g = cycle_graph(6)
    >>> labels, _ = build_pspc(g, degree_order(g))
    >>> QueryEngine(labels).query(0, 3).count
    2
    """

    __slots__ = ("store", "_compact", "point_calls", "batch_calls")

    def __init__(self, store: "LabelIndex | CompactLabelIndex") -> None:
        self.store = store
        self._compact = isinstance(store, CompactLabelIndex)
        #: per-pair kernel invocations served (observability for the
        #: batched serving layer: a healthy :class:`repro.api.QueryService`
        #: keeps ``batch_calls`` high and ``point_calls`` near zero).
        self.point_calls = 0
        #: batch kernel invocations served.
        self.batch_calls = 0

    @property
    def kind(self) -> str:
        """Kernel family in use: ``"compact"`` (vectorized) or ``"tuple"``."""
        return "compact" if self._compact else "tuple"

    @property
    def n(self) -> int:
        """Number of vertices the underlying store serves."""
        return self.store.n

    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> SPCResult:
        """Exact ``(distance, count)`` for one pair."""
        self.point_calls += 1
        if self._compact:
            return self.store.query(s, t)
        return spc_query(self.store, s, t)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest paths between ``s`` and ``t``."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Shortest-path distance (-1 if disconnected)."""
        return self.query(s, t).dist

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many pairs; vectorized on compact stores."""
        self.batch_calls += 1
        if self._compact:
            return query_batch_compact(self.store, pairs)
        return [spc_query(self.store, int(a), int(b)) for a, b in pairs]

    def query_costs(self, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """Per-query label-scan work units (Fig. 9 simulation input).

        Both kernels report the identical two-pointer step count, so the
        speedup simulation is representation-independent.
        """
        if not self._compact:
            return [spc_query_with_cost(self.store, int(a), int(b))[1] for a, b in pairs]
        n = self.store.n
        hubs = self.store.hubs
        indptr = self.store.indptr
        slices: dict[int, list[int]] = {}
        costs = []
        for a, b in pairs:
            a, b = int(a), int(b)
            if not 0 <= a < n:
                raise QueryError(f"source vertex {a} out of range for index over {n} vertices")
            if not 0 <= b < n:
                raise QueryError(f"target vertex {b} out of range for index over {n} vertices")
            if a == b:
                costs.append(1)
                continue
            for v in (a, b):
                if v not in slices:
                    slices[v] = hubs[int(indptr[v]) : int(indptr[v + 1])].tolist()
            costs.append(_merge_steps(slices[a], slices[b]))
        return costs

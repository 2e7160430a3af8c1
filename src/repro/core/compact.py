"""Compact, numpy-packed label store — the default serving representation.

:class:`~repro.core.labels.LabelIndex` stores per-vertex lists of Python
tuples — flexible during construction, heavy to hold and ship.
:class:`CompactLabelIndex` freezes a finished index into four flat arrays
(CSR-style): ``indptr``, ``hubs`` (int32), ``dists`` (int16) and ``counts``
(int64), cutting memory by roughly an order of magnitude and giving the
vectorized query kernels in :mod:`repro.core.engine` contiguous arrays to
operate on.  :meth:`~repro.core.index.PSPCIndex.build` freezes to this
representation by default.

Both classes implement the :class:`~repro.core.store.LabelStore` protocol
(``label``/``label_slice``/``total_entries``/``size_mb``/``save``/``load``,
plus equality), so they are interchangeable everywhere and can be asserted
equivalent directly in tests.

Counts are the one lossy corner: dense small-world graphs can produce path
counts beyond ``2**63``.  Freezing such an index raises
:class:`~repro.errors.IndexStateError` rather than silently truncating —
the facade falls back to the tuple-based index in that regime.

Queries return exactly the same results as the tuple index (asserted by
tests); the merge runs over the packed arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.labels import ENTRY_BYTES, LabelEntry, LabelIndex
from repro.core.queries import SPCResult
from repro.errors import IndexStateError, QueryError
from repro.graph.traversal import UNREACHABLE
from repro.ordering.base import VertexOrder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Answers

__all__ = ["CompactLabelIndex", "LabelView", "join_pair"]

_COUNT_LIMIT = 2**63 - 1


class LabelView(NamedTuple):
    """One side of the two-hop join: CSR label columns over global vertex ids.

    An undirected store's s side and t side are the same view; a directed
    store joins its ``Lout`` view (s side) with its ``Lin`` view (t side);
    a shard fleet joins the views of the shards owning ``s`` and ``t``.
    """

    indptr: np.ndarray
    hubs: np.ndarray
    dists: np.ndarray
    counts: np.ndarray


def join_pair(
    s_view: LabelView,
    t_view: LabelView,
    s: int,
    t: int,
    rank: "np.ndarray | None" = None,
    weights: "np.ndarray | None" = None,
) -> tuple[int, int]:
    """Exact ``(dist, count)`` of one pair, accumulated in Python ints.

    Equations (1)-(2) over ``s_view``'s label of ``s`` and ``t_view``'s
    label of ``t``.  ``rank``/``weights`` (equivalence-reduced graphs only)
    multiply the count of every hub other than the endpoints by its
    multiplicity.  Never overflows, so it is also the batch kernel's
    fallback when int64 accumulation could.
    """
    if s == t:
        return 0, 1
    lo_s, hi_s = int(s_view.indptr[s]), int(s_view.indptr[s + 1])
    lo_t, hi_t = int(t_view.indptr[t]), int(t_view.indptr[t + 1])
    common, idx_s, idx_t = np.intersect1d(
        s_view.hubs[lo_s:hi_s], t_view.hubs[lo_t:hi_t],
        assume_unique=True, return_indices=True,
    )
    if len(common) == 0:
        return UNREACHABLE, 0
    dsum = s_view.dists[lo_s + idx_s].astype(np.int64) + t_view.dists[lo_t + idx_t]
    best = int(dsum.min())
    at_best = np.flatnonzero(dsum == best)
    firsts = s_view.counts[lo_s + idx_s[at_best]].tolist()
    seconds = t_view.counts[lo_t + idx_t[at_best]].tolist()
    if weights is None or rank is None:
        return best, sum(a * b for a, b in zip(firsts, seconds))
    ends = (int(rank[s]), int(rank[t]))
    total = 0
    for hub, a, b in zip(common[at_best].tolist(), firsts, seconds):
        total += a * b if hub in ends else a * b * int(weights[hub])
    return best, total


class CompactLabelIndex:
    """A frozen ESPC index over flat numpy arrays."""

    __slots__ = (
        "order", "indptr", "hubs", "dists", "counts", "weight_by_rank", "overflow_bound"
    )

    #: :class:`~repro.core.store.LabelStore` protocol: representation name.
    kind = "compact"

    def __init__(
        self,
        order: VertexOrder,
        indptr: np.ndarray,
        hubs: np.ndarray,
        dists: np.ndarray,
        counts: np.ndarray,
        weight_by_rank: np.ndarray,
    ) -> None:
        self.order = order
        self.indptr = indptr
        self.hubs = hubs
        self.dists = dists
        self.counts = counts
        self.weight_by_rank = weight_by_rank
        #: the batch kernel's int64 overflow bound, filled on the first
        #: batch call (see :mod:`repro.core.engine`); the store is frozen,
        #: so one scan serves its lifetime.  Not part of equality.
        self.overflow_bound: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: LabelIndex) -> "CompactLabelIndex":
        """Freeze a tuple-based index (labels must fit int16/int64 ranges)."""
        total = index.total_entries()
        indptr = np.zeros(index.n + 1, dtype=np.int64)
        hubs = np.empty(total, dtype=np.int32)
        dists = np.empty(total, dtype=np.int16)
        counts = np.empty(total, dtype=np.int64)
        pos = 0
        for v, entries in enumerate(index.entries):
            for hub_rank, dist, count in entries:
                if count > _COUNT_LIMIT:
                    raise IndexStateError(
                        f"count {count} on vertex {v} exceeds int64; "
                        "keep the tuple-based LabelIndex for this graph"
                    )
                hubs[pos] = hub_rank
                dists[pos] = dist
                counts[pos] = count
                pos += 1
            indptr[v + 1] = pos
        return cls(
            index.order, indptr, hubs, dists, counts,
            np.asarray(index.weight_by_rank, dtype=np.int64),
        )

    def to_label_index(self) -> LabelIndex:
        """Thaw back into the tuple-based representation.

        Decodes the packed columns with three bulk ``tolist`` calls and
        zips per-vertex slices — no per-entry numpy scalar unwrapping, so
        thawing a vectorized build to the tuple store stays cheap.
        """
        hubs = self.hubs.tolist()
        dists = self.dists.tolist()
        counts = self.counts.tolist()
        bounds = self.indptr.tolist()
        entries = [
            list(zip(hubs[lo:hi], dists[lo:hi], counts[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return LabelIndex(self.order, entries, self.weight_by_rank)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of indexed vertices."""
        return len(self.indptr) - 1

    def label_slice(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hubs, dists, counts)`` array views of vertex ``v``'s label."""
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        return self.hubs[lo:hi], self.dists[lo:hi], self.counts[lo:hi]

    def label(self, v: int) -> list[LabelEntry]:
        """Decoded label list of ``v`` with hubs as vertex ids (Table II view)."""
        order = self.order.order
        hubs, dists, counts = self.label_slice(v)
        return [
            LabelEntry(int(order[h]), int(d), int(c))
            for h, d, c in zip(hubs, dists, counts)
        ]

    def label_size(self, v: int) -> int:
        """Number of entries on vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def total_entries(self) -> int:
        """Number of label entries."""
        return len(self.hubs)

    def average_label_size(self) -> float:
        """Mean entries per vertex."""
        return self.total_entries() / self.n if self.n else 0.0

    def max_label_size(self) -> int:
        """Largest per-vertex label list."""
        return int(np.diff(self.indptr).max()) if self.n else 0

    def iter_entries(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(vertex, hub_rank, dist, count)`` for every entry."""
        for v in range(self.n):
            for i in range(int(self.indptr[v]), int(self.indptr[v + 1])):
                yield v, int(self.hubs[i]), int(self.dists[i]), int(self.counts[i])

    def size_bytes(self) -> int:
        """Nominal index size using the compact binary encoding.

        Uses the same :data:`~repro.core.labels.ENTRY_BYTES` unit as the
        tuple store so Fig. 6 size figures are representation-independent.
        """
        return self.total_entries() * ENTRY_BYTES

    def size_mb(self) -> float:
        """Nominal index size in MB (the unit of the paper's Fig. 6)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def nbytes(self) -> int:
        """Actual memory held by the packed arrays."""
        return (
            self.indptr.nbytes + self.hubs.nbytes + self.dists.nbytes + self.counts.nbytes
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def view(self) -> LabelView:
        """The label columns as one join side (both sides, undirected)."""
        return LabelView(self.indptr, self.hubs, self.dists, self.counts)

    def join_views(self) -> tuple[LabelView, LabelView]:
        """``(s side, t side)`` of the two-view join: the same labels."""
        view = self.view()
        return view, view

    def query(self, s: int, t: int) -> SPCResult:
        """Exact ``(distance, count)`` — identical to the tuple index."""
        n = self.n
        if not 0 <= s < n:
            raise QueryError(f"source vertex {s} out of range for index over {n} vertices")
        if not 0 <= t < n:
            raise QueryError(f"target vertex {t} out of range for index over {n} vertices")
        view = self.view()
        weights = self.weight_by_rank if len(self.weight_by_rank) else None
        dist, count = join_pair(view, view, s, t, self.order.rank, weights)
        return SPCResult(s, t, dist, count)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest paths between ``s`` and ``t``."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Shortest-path distance (-1 if disconnected)."""
        return self.query(s, t).dist

    def answer_batch(self, pairs: Sequence[tuple[int, int]]) -> "Answers":
        """``(dist, count)`` rows of many pairs (the batch join, no objects)."""
        from repro.core.engine import answer_batch  # local: engine imports this module

        return answer_batch(self, pairs)

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many pairs with the vectorized batch kernel."""
        from repro.core.engine import QueryEngine

        return QueryEngine(self).query_batch(pairs)

    # ------------------------------------------------------------------
    # persistence (unified versioned .npz — see repro.core.store)
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = True) -> None:
        """Persist to the unified versioned ``.npz`` store format.

        ``compress=False`` writes the members uncompressed so :meth:`load`
        can memory-map the label arrays (``mmap=True``).
        """
        from repro.core import store

        arrays = store.order_arrays(self.order)
        arrays.update(
            indptr=self.indptr,
            hubs=self.hubs,
            dists=self.dists,
            counts=self.counts,
            weight_by_rank=self.weight_by_rank,
        )
        store.write_payload(
            path, self.kind, arrays, meta={"strategy": self.order.strategy},
            compress=compress,
        )

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "CompactLabelIndex":
        """Load an index written by :meth:`save`.

        ``mmap=True`` maps the label arrays read-only out of an
        uncompressed file instead of copying them into memory (compressed
        files fall back to the eager read).
        """
        from repro.core import store

        _, arrays, meta = store.read_payload(path, expect_kind=cls.kind, mmap=mmap)
        order = store.restore_order(arrays, meta)
        return cls(
            order,
            arrays["indptr"].astype(np.int64, copy=False),
            arrays["hubs"].astype(np.int32, copy=False),
            arrays["dists"].astype(np.int16, copy=False),
            arrays["counts"].astype(np.int64, copy=False),
            arrays["weight_by_rank"].astype(np.int64, copy=False),
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactLabelIndex):
            return NotImplemented
        return (
            np.array_equal(self.order.order, other.order.order)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.hubs, other.hubs)
            and np.array_equal(self.dists, other.dists)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.weight_by_rank, other.weight_by_rank)
        )

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return (
            f"CompactLabelIndex(n={self.n}, entries={self.total_entries()}, "
            f"{self.nbytes() / 2**20:.2f}MB packed)"
        )

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
from typing import Iterator, Sequence

import numpy as np

from repro.core.labels import ENTRY_BYTES, LabelEntry, LabelIndex
from repro.core.queries import SPCResult
from repro.errors import IndexStateError, QueryError
from repro.graph.traversal import UNREACHABLE
from repro.ordering.base import VertexOrder

__all__ = ["CompactLabelIndex"]

_COUNT_LIMIT = 2**63 - 1


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
    def query(self, s: int, t: int) -> SPCResult:
        """Exact ``(distance, count)`` — identical to the tuple index."""
        n = self.n
        if not 0 <= s < n:
            raise QueryError(f"source vertex {s} out of range for index over {n} vertices")
        if not 0 <= t < n:
            raise QueryError(f"target vertex {t} out of range for index over {n} vertices")
        if s == t:
            return SPCResult(s, t, 0, 1)
        lo_s, hi_s = int(self.indptr[s]), int(self.indptr[s + 1])
        lo_t, hi_t = int(self.indptr[t]), int(self.indptr[t + 1])
        hubs_s = self.hubs[lo_s:hi_s]
        hubs_t = self.hubs[lo_t:hi_t]
        common, idx_s, idx_t = np.intersect1d(
            hubs_s, hubs_t, assume_unique=True, return_indices=True
        )
        if len(common) == 0:
            return SPCResult(s, t, UNREACHABLE, 0)
        dsum = (
            self.dists[lo_s:hi_s][idx_s].astype(np.int64)
            + self.dists[lo_t:hi_t][idx_t].astype(np.int64)
        )
        best = int(dsum.min())
        at_best = np.flatnonzero(dsum == best)
        rank_s = int(self.order.rank[s])
        rank_t = int(self.order.rank[t])
        total = 0
        for k in at_best:
            hub_rank = int(common[k])
            contribution = int(self.counts[lo_s:hi_s][idx_s[k]]) * int(
                self.counts[lo_t:hi_t][idx_t[k]]
            )
            if hub_rank != rank_s and hub_rank != rank_t:
                contribution *= int(self.weight_by_rank[hub_rank])
            total += contribution
        return SPCResult(s, t, best, total)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest paths between ``s`` and ``t``."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Shortest-path distance (-1 if disconnected)."""
        return self.query(s, t).dist

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many pairs with the vectorized batch kernel."""
        from repro.core.engine import QueryEngine  # local: engine imports this module

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

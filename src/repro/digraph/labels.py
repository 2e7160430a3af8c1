"""Directed ESPC labels: per-vertex in/out label lists and their queries.

As in Section II-A of the paper: each vertex ``v`` carries

* ``Lin(v)`` — entries ``(w, dist(w -> v), count)`` for hub-to-vertex paths;
* ``Lout(v)`` — entries ``(w, dist(v -> w), count)`` for vertex-to-hub paths;

where ``count`` is the number of *trough* shortest paths (the hub is the
highest-ranked vertex on the path).  ``SPC(s, t)`` scans
``Lout(s) x Lin(t)`` for the common hubs minimising
``dist(s -> h) + dist(h -> t)`` and sums the count products — Equations (1)
and (2), directed form.

The directed variant rides on the same store/engine layer as the
undirected index: the merge runs through the shared
:func:`~repro.core.queries.merge_labels` kernel, and persistence uses the
unified versioned ``.npz`` container of :mod:`repro.core.store` (kind
``"directed"``) instead of a private pickle layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.compact import LabelView, join_pair
from repro.core.queries import SPCResult, merge_labels
from repro.errors import IndexStateError, QueryError
from repro.graph.traversal import UNREACHABLE
from repro.ordering.base import VertexOrder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Answers

__all__ = [
    "CompactDirectedLabelIndex",
    "DirectedLabelIndex",
    "spc_query_directed",
    "batch_query_directed",
]

Entry = tuple[int, int, int]  # (hub_rank, dist, count)


class DirectedLabelIndex:
    """The directed 2-hop ESPC index (in-labels and out-labels)."""

    __slots__ = ("order", "entries_in", "entries_out")

    #: store-layer payload kind (see :mod:`repro.core.store`).
    kind = "directed"
    #: queries are asymmetric: caches must not canonicalise (s, t) pairs.
    directed = True

    def __init__(
        self,
        order: VertexOrder,
        entries_in: list[list[Entry]],
        entries_out: list[list[Entry]],
    ) -> None:
        if len(entries_in) != order.n or len(entries_out) != order.n:
            raise IndexStateError(
                f"directed index needs {order.n} in/out label lists, got "
                f"{len(entries_in)}/{len(entries_out)}"
            )
        self.order = order
        self.entries_in = entries_in
        self.entries_out = entries_out

    @property
    def n(self) -> int:
        """Number of indexed vertices."""
        return self.order.n

    def total_entries(self) -> int:
        """Total entries across both label directions."""
        return sum(len(lst) for lst in self.entries_in) + sum(
            len(lst) for lst in self.entries_out
        )

    def size_bytes(self) -> int:
        """Nominal index size using the shared compact entry encoding."""
        from repro.core.labels import ENTRY_BYTES

        return self.total_entries() * ENTRY_BYTES

    def size_mb(self) -> float:
        """Nominal index size in MB (the paper's Fig. 6 unit)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def label_in(self, v: int) -> list[tuple[int, int, int]]:
        """``Lin(v)`` decoded with hubs as vertex ids."""
        order = self.order.order
        return [(int(order[h]), d, c) for h, d, c in self.entries_in[v]]

    def label_out(self, v: int) -> list[tuple[int, int, int]]:
        """``Lout(v)`` decoded with hubs as vertex ids."""
        order = self.order.order
        return [(int(order[h]), d, c) for h, d, c in self.entries_out[v]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedLabelIndex):
            return NotImplemented
        return (
            np.array_equal(self.order.order, other.order.order)
            and self.entries_in == other.entries_in
            and self.entries_out == other.entries_out
        )

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return f"DirectedLabelIndex(n={self.n}, entries={self.total_entries()})"

    # ------------------------------------------------------------------
    # persistence (unified versioned .npz — see repro.core.store)
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = True) -> None:
        """Serialise to the unified versioned ``.npz`` store format."""
        from repro.core import store

        packed_in, enc_in = store.pack_entry_lists(self.entries_in)
        packed_out, enc_out = store.pack_entry_lists(self.entries_out)
        arrays = store.order_arrays(self.order)
        arrays.update({f"{key}_in": value for key, value in packed_in.items()})
        arrays.update({f"{key}_out": value for key, value in packed_out.items()})
        store.write_payload(
            path,
            self.kind,
            arrays,
            meta={
                "strategy": self.order.strategy,
                "counts_in": enc_in,
                "counts_out": enc_out,
            },
            compress=compress,
        )

    @classmethod
    def load(cls, path: str | Path) -> "DirectedLabelIndex":
        """Load an index written by :meth:`save`."""
        from repro.core import store

        _, arrays, meta = store.read_payload(path, expect_kind=cls.kind)
        order = store.restore_order(arrays, meta)
        entries_in = store.unpack_entry_lists(
            arrays["indptr_in"],
            arrays["hubs_in"],
            arrays["dists_in"],
            arrays["counts_in"],
            str(meta.get("counts_in", "int64")),
        )
        entries_out = store.unpack_entry_lists(
            arrays["indptr_out"],
            arrays["hubs_out"],
            arrays["dists_out"],
            arrays["counts_out"],
            str(meta.get("counts_out", "int64")),
        )
        return cls(order, entries_in, entries_out)


class CompactDirectedLabelIndex:
    """The directed two-label index frozen into flat numpy arrays.

    The directed twin of :class:`~repro.core.compact.CompactLabelIndex`:
    ``Lin`` and ``Lout`` each become a CSR-style triple of ``hubs`` (int32),
    ``dists`` (int16) and ``counts`` (int64) arrays plus an ``indptr`` cut
    array.  Flat arrays are what the shared-memory serving segments
    (:mod:`repro.serve.shm`) can expose zero-copy to worker processes —
    the tuple-list representation cannot cross a process boundary without
    a full pickle round-trip.

    Queries answer identically to :func:`spc_query_directed` over the
    tuple-based :class:`DirectedLabelIndex` (asserted by tests); only the
    storage differs.
    """

    __slots__ = (
        "order",
        "indptr_in", "hubs_in", "dists_in", "counts_in",
        "indptr_out", "hubs_out", "dists_out", "counts_out",
        "overflow_bound",
    )

    #: the label columns, in constructor order (``order`` and the cached
    #: ``overflow_bound`` are not columns)
    _COLUMNS = __slots__[1:-1]

    #: store-layer payload kind (shared-memory manifests carry it).
    kind = "directed-compact"
    #: queries are asymmetric: caches must not canonicalise (s, t) pairs.
    directed = True

    def __init__(
        self,
        order: VertexOrder,
        indptr_in: np.ndarray,
        hubs_in: np.ndarray,
        dists_in: np.ndarray,
        counts_in: np.ndarray,
        indptr_out: np.ndarray,
        hubs_out: np.ndarray,
        dists_out: np.ndarray,
        counts_out: np.ndarray,
    ) -> None:
        self.order = order
        self.indptr_in = indptr_in
        self.hubs_in = hubs_in
        self.dists_in = dists_in
        self.counts_in = counts_in
        self.indptr_out = indptr_out
        self.hubs_out = hubs_out
        self.dists_out = dists_out
        self.counts_out = counts_out
        #: the batch join's int64 overflow bound, scanned on the first
        #: batch call (see :mod:`repro.core.engine`).  Not part of equality.
        self.overflow_bound: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: DirectedLabelIndex) -> "CompactDirectedLabelIndex":
        """Freeze a tuple-based directed index into flat arrays.

        Raises :class:`~repro.errors.IndexStateError` when any path count
        exceeds ``int64`` (the packed representation cannot hold it).
        """
        from repro.core import store

        packed = {}
        for side, entries in (("in", index.entries_in), ("out", index.entries_out)):
            arrays, encoding = store.pack_entry_lists(entries)
            if encoding != "int64":
                raise IndexStateError(
                    f"directed L{side} counts exceed int64; keep the tuple-based "
                    "DirectedLabelIndex for this graph"
                )
            packed[side] = arrays
        return cls(
            index.order,
            packed["in"]["indptr"],
            packed["in"]["hubs"].astype(np.int32),
            packed["in"]["dists"].astype(np.int16),
            packed["in"]["counts"],
            packed["out"]["indptr"],
            packed["out"]["hubs"].astype(np.int32),
            packed["out"]["dists"].astype(np.int16),
            packed["out"]["counts"],
        )

    def to_directed_index(self) -> DirectedLabelIndex:
        """Thaw back into the tuple-based representation."""
        from repro.core import store

        entries_in = store.unpack_entry_lists(
            self.indptr_in, self.hubs_in, self.dists_in, self.counts_in, "int64"
        )
        entries_out = store.unpack_entry_lists(
            self.indptr_out, self.hubs_out, self.dists_out, self.counts_out, "int64"
        )
        return DirectedLabelIndex(self.order, entries_in, entries_out)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of indexed vertices."""
        return len(self.indptr_in) - 1

    def total_entries(self) -> int:
        """Total entries across both label directions."""
        return len(self.hubs_in) + len(self.hubs_out)

    def size_bytes(self) -> int:
        """Nominal index size using the shared compact entry encoding."""
        from repro.core.labels import ENTRY_BYTES

        return self.total_entries() * ENTRY_BYTES

    def size_mb(self) -> float:
        """Nominal index size in MB (the paper's Fig. 6 unit)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def nbytes(self) -> int:
        """Actual memory held by the packed arrays."""
        return sum(getattr(self, name).nbytes for name in self._COLUMNS)

    def label_in(self, v: int) -> list[tuple[int, int, int]]:
        """``Lin(v)`` decoded with hubs as vertex ids (tuple-index parity)."""
        lo, hi = int(self.indptr_in[v]), int(self.indptr_in[v + 1])
        order = self.order.order
        return [
            (int(order[h]), int(d), int(c))
            for h, d, c in zip(
                self.hubs_in[lo:hi], self.dists_in[lo:hi], self.counts_in[lo:hi]
            )
        ]

    def label_out(self, v: int) -> list[tuple[int, int, int]]:
        """``Lout(v)`` decoded with hubs as vertex ids (tuple-index parity)."""
        lo, hi = int(self.indptr_out[v]), int(self.indptr_out[v + 1])
        order = self.order.order
        return [
            (int(order[h]), int(d), int(c))
            for h, d, c in zip(
                self.hubs_out[lo:hi], self.dists_out[lo:hi], self.counts_out[lo:hi]
            )
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def join_views(self) -> tuple[LabelView, LabelView]:
        """``(s side, t side)`` of the two-view join: ``Lout`` and ``Lin``."""
        return (
            LabelView(self.indptr_out, self.hubs_out, self.dists_out, self.counts_out),
            LabelView(self.indptr_in, self.hubs_in, self.dists_in, self.counts_in),
        )

    def query(self, s: int, t: int) -> SPCResult:
        """Exact directed ``(distance, count)`` — identical to the tuple index."""
        n = self.n
        if not 0 <= s < n:
            raise QueryError(f"source vertex {s} out of range for index over {n} vertices")
        if not 0 <= t < n:
            raise QueryError(f"target vertex {t} out of range for index over {n} vertices")
        out_view, in_view = self.join_views()
        dist, count = join_pair(out_view, in_view, s, t)
        return SPCResult(s, t, dist, count)

    def spc(self, s: int, t: int) -> int:
        """Number of shortest directed paths ``s -> t``."""
        return self.query(s, t).count

    def distance(self, s: int, t: int) -> int:
        """Directed distance (-1 if unreachable)."""
        return self.query(s, t).dist

    def answer_batch(self, pairs: Sequence[tuple[int, int]]) -> Answers:
        """``(dist, count)`` rows of many directed queries (the batch join)."""
        from repro.core.engine import answer_batch  # local: engine imports compact

        return answer_batch(self, pairs)

    def query_batch(self, pairs: Sequence[tuple[int, int]]) -> list[SPCResult]:
        """Evaluate many directed queries in input order (the batch join)."""
        from repro.core.engine import query_batch_compact

        return query_batch_compact(self, pairs)

    # ------------------------------------------------------------------
    # persistence (unified versioned .npz — see repro.core.store)
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = True) -> None:
        """Serialise via the shared :func:`~repro.core.store.pack_store`."""
        from repro.core import store

        arrays, meta = store.pack_store(self)
        store.write_payload(path, self.kind, arrays, meta=meta, compress=compress)

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "CompactDirectedLabelIndex":
        """Load an index written by :meth:`save`."""
        from repro.core import store

        _, arrays, meta = store.read_payload(path, expect_kind=cls.kind, mmap=mmap)
        restored = store.unpack_store(arrays, meta, path)
        if not isinstance(restored, cls):  # pragma: no cover - schema guard
            raise IndexStateError(f"{path} did not restore a {cls.__name__}")
        return restored

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactDirectedLabelIndex):
            return NotImplemented
        return np.array_equal(self.order.order, other.order.order) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._COLUMNS
        )

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return (
            f"CompactDirectedLabelIndex(n={self.n}, entries={self.total_entries()})"
        )


def spc_query_directed(index: DirectedLabelIndex, s: int, t: int) -> SPCResult:
    """Exact directed ``(distance, count)`` for the pair ``s -> t``.

    Evaluation runs through the shared two-pointer kernel
    :func:`~repro.core.queries.merge_labels` — the directed form of
    Equations (1) and (2) differs only in which label lists are joined.
    """
    n = index.n
    if not 0 <= s < n:
        raise QueryError(f"source vertex {s} out of range for index over {n} vertices")
    if not 0 <= t < n:
        raise QueryError(f"target vertex {t} out of range for index over {n} vertices")
    if s == t:
        return SPCResult(s, t, 0, 1)
    best, total, _ = merge_labels(index.entries_out[s], index.entries_in[t])
    if best < 0:
        return SPCResult(s, t, UNREACHABLE, 0)
    return SPCResult(s, t, best, total)


def batch_query_directed(
    index: DirectedLabelIndex, pairs: Sequence[tuple[int, int]]
) -> list[SPCResult]:
    """Evaluate a batch of directed queries in input order."""
    return [spc_query_directed(index, int(s), int(t)) for s, t in pairs]

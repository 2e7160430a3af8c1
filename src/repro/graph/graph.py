"""Immutable undirected, unweighted graph stored in CSR form.

The paper (Section II) works exclusively with undirected, unweighted graphs;
directed inputs are symmetrised on load.  :class:`Graph` is the substrate for
every other subsystem: orderings, the HP-SPC baseline, the PSPC builder, the
reductions and the benchmark harness all consume this type.

The representation is a standard compressed-sparse-row adjacency:

* ``indptr`` — ``int64`` array of length ``n + 1``;
* ``indices`` — ``int32`` array of length ``2m`` with neighbour lists sorted
  ascending inside each row.

Vertices are dense integers ``0..n-1``.  Construction canonicalises the edge
set: self-loops are dropped, parallel edges are deduplicated and both
directions are stored.  Optional per-vertex integer *weights* (multiplicities)
support the neighbourhood-equivalence reduction of Section IV-B; a plain
graph has weight 1 everywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError, VertexError

__all__ = ["Graph"]


class Graph:
    """An immutable undirected, unweighted graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Order, duplicates and self-loops are
        all tolerated and canonicalised away.
    vertex_weights:
        Optional sequence of positive integer multiplicities, used by the
        equivalence reduction.  ``None`` means weight 1 for every vertex.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.n, g.m
    (3, 2)
    >>> list(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_n", "_indptr", "_indices", "_weights")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        vertex_weights: Sequence[int] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        pairs = self._canonical_pairs(edges)
        self._indptr, self._indices = self._build_csr(pairs)
        self._weights = self._validate_weights(vertex_weights)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _canonical_pairs(self, edges: Iterable[tuple[int, int]]) -> np.ndarray:
        """Return a deduplicated ``(k, 2)`` array of undirected edges ``u < v``,
        sorted lexicographically."""
        if not isinstance(edges, (np.ndarray, list, tuple)):
            edges = list(edges)
        try:
            arr = np.asarray(edges, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"edges must be (u, v) integer pairs: {exc}") from None
        if arr.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {arr.shape}")
        bad = (arr < 0) | (arr >= self._n)
        if bad.any():
            flat = arr[bad]
            raise VertexError(int(flat[0]), self._n)
        arr = arr[arr[:, 0] != arr[:, 1]]  # drop self-loops
        arr = np.sort(arr, axis=1)  # canonical u < v
        if not arr.size:
            return np.empty((0, 2), dtype=np.int64)
        if not self._packable():
            return np.unique(arr, axis=0)
        # one 1-D key per edge: unique keys sort exactly like unique rows
        keys = np.unique(arr[:, 0] * self._n + arr[:, 1])
        return np.stack([keys // self._n, keys % self._n], axis=1)

    def _packable(self) -> bool:
        """Whether ``u * n + v`` keys of this graph fit int64."""
        return self._n * self._n < 2**63

    def _build_csr(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
        tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
        if self._packable():
            # arcs are unique, so one argsort of the packed keys orders
            # them exactly like the (head, tail) lexsort
            order = np.argsort(heads * self._n + tails)
        else:
            order = np.lexsort((tails, heads))
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=self._n), out=indptr[1:])
        return indptr, tails[order].astype(np.int32)

    def _validate_weights(self, weights: Sequence[int] | None) -> np.ndarray:
        if weights is None:
            return np.ones(self._n, dtype=np.int64)
        arr = np.asarray(weights, dtype=np.int64)
        if arr.shape != (self._n,):
            raise GraphError(
                f"vertex_weights must have length {self._n}, got shape {arr.shape}"
            )
        if self._n and int(arr.min()) < 1:
            raise GraphError("vertex weights must be positive integers")
        return arr

    @classmethod
    def _from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> "Graph":
        """Internal trusted constructor used by :meth:`subgraph` and I/O."""
        g = cls.__new__(cls)
        g._n = len(indptr) - 1
        g._indptr = indptr
        g._indices = indices
        g._weights = weights
        return g

    @classmethod
    def _from_pairs(cls, n: int, pairs: np.ndarray, weights: np.ndarray) -> "Graph":
        """Internal trusted constructor from canonical ``u < v`` unique pairs.

        Skips the canonicalisation pass; callers (:meth:`subgraph`,
        :meth:`relabeled`) guarantee the invariants because they derive the
        pairs from an already-canonical CSR structure.
        """
        g = cls.__new__(cls)
        g._n = int(n)
        g._indptr, g._indices = g._build_csr(pairs)
        g._weights = weights
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (length ``n + 1``); treat as read-only."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column array (length ``2m``); treat as read-only."""
        return self._indices

    @property
    def vertex_weights(self) -> np.ndarray:
        """Per-vertex multiplicities (all ones for a plain graph)."""
        return self._weights

    @property
    def is_weighted(self) -> bool:
        """Whether any vertex has multiplicity > 1 (equivalence-reduced graph)."""
        return bool((self._weights != 1).any())

    def degree(self, v: int) -> int:
        """Degree of ``v`` (number of distinct neighbours)."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices as an ``int64`` array."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of ``v`` (a view into CSR storage)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def average_degree(self) -> float:
        """Average degree ``2m / n`` (the paper's ``davg`` column)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self.m / self._n

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, keep: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``keep``.

        Returns the subgraph (with vertices relabelled ``0..len(keep)-1`` in
        the order given) and the mapping array ``old_of_new`` such that
        ``old_of_new[new_id] == old_id``.
        """
        keep_arr = np.asarray(list(keep), dtype=np.int64)
        if len(np.unique(keep_arr)) != len(keep_arr):
            raise GraphError("subgraph vertex list contains duplicates")
        if keep_arr.size:
            bad = (keep_arr < 0) | (keep_arr >= self._n)
            if bad.any():
                raise VertexError(int(keep_arr[bad][0]), self._n)
        new_of_old = np.full(self._n, -1, dtype=np.int64)
        new_of_old[keep_arr] = np.arange(len(keep_arr), dtype=np.int64)
        # vectorized over the full CSR: each undirected edge appears twice,
        # keeping new_u < new_v selects surviving edges exactly once
        heads = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
        new_u = new_of_old[heads]
        new_v = new_of_old[self._indices]
        mask = (new_u >= 0) & (new_v >= 0) & (new_u < new_v)
        pairs = np.stack([new_u[mask], new_v[mask]], axis=1)
        sub = Graph._from_pairs(len(keep_arr), pairs, self._weights[keep_arr])
        return sub, keep_arr

    def relabeled(self, new_of_old: Sequence[int]) -> "Graph":
        """Return a copy with vertex ``v`` renamed to ``new_of_old[v]``.

        ``new_of_old`` must be a permutation of ``0..n-1``.
        """
        perm = np.asarray(new_of_old, dtype=np.int64)
        if perm.shape != (self._n,) or not np.array_equal(
            np.sort(perm), np.arange(self._n)
        ):
            raise GraphError("relabeling must be a permutation of 0..n-1")
        # vectorized: take each undirected edge once (u < v in old ids),
        # rename both endpoints and restore the u < v canonical form
        heads = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
        tails = self._indices.astype(np.int64)
        once = heads < tails
        a = perm[heads[once]]
        b = perm[tails[once]]
        pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
        weights = np.empty(self._n, dtype=np.int64)
        weights[perm] = self._weights
        return Graph._from_pairs(self._n, pairs, weights)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        tag = ", weighted" if self.is_weighted else ""
        return f"Graph(n={self._n}, m={self.m}{tag})"

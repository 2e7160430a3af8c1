"""Graph statistics: components, diameter, degree profiles.

These back Table III of the paper (dataset statistics) and the diameter
``D`` that bounds the number of PSPC distance iterations (Section III-C:
"the index may be constructed in D iterations").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import UNREACHABLE, bfs_distances

__all__ = [
    "GraphStats",
    "connected_components",
    "largest_component",
    "is_connected",
    "diameter_exact",
    "diameter_double_sweep",
    "graph_stats",
]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics in the shape of the paper's Table III row."""

    name: str
    n: int
    m: int
    avg_degree: float
    max_degree: int
    components: int
    diameter_lb: int

    def as_row(self) -> tuple[str, int, int, str, int]:
        """Row formatted like Table III: (name, |V|, |E|, d_avg, diameter lb)."""
        return (self.name, self.n, self.m, f"{self.avg_degree:.1f}", self.diameter_lb)


def connected_components(graph: Graph) -> np.ndarray:
    """Component id per vertex (ids are dense, assigned in discovery order).

    Vectorized min-label propagation: every vertex ends labelled with the
    smallest vertex id of its component (hook each root onto the smallest
    neighbouring label, then pointer-jump to the roots, until no edge joins
    two labels).  Numbering components by that minimum is exactly the order
    in which a scan over ``0..n-1`` discovers them.
    """
    n = graph.n
    label = np.arange(n, dtype=np.int64)
    heads = np.repeat(label, np.diff(graph.indptr))
    tails = graph.indices.astype(np.int64)
    while True:
        low, high = label[heads], label[tails]
        cross = low != high
        if not cross.any():
            break
        # hook: each root takes the smallest label across its edges; roots
        # only ever point at smaller ids, so no cycle can form
        np.minimum.at(label, np.maximum(low[cross], high[cross]),
                      np.minimum(low[cross], high[cross]))
        while True:  # pointer jumping: every vertex straight to its root
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return np.unique(label, return_inverse=True)[1].astype(np.int64)


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns ``(subgraph, old_of_new)`` (see :meth:`Graph.subgraph`).  The
    paper evaluates on connected graphs; the dataset generators use this to
    guarantee connectivity.  A connected graph is returned as is.
    """
    if graph.n == 0:
        return graph, np.empty(0, dtype=np.int64)
    comp = connected_components(graph)
    counts = np.bincount(comp)
    best = int(np.argmax(counts))
    if counts[best] == graph.n:
        return graph, np.arange(graph.n, dtype=np.int64)
    keep = np.flatnonzero(comp == best)
    return graph.subgraph(keep)


def is_connected(graph: Graph) -> bool:
    """Whether the graph has at most one connected component."""
    if graph.n <= 1:
        return True
    dist = bfs_distances(graph, 0)
    return not (dist == UNREACHABLE).any()


def diameter_exact(graph: Graph) -> int:
    """Exact diameter by all-sources BFS (use only on small graphs).

    Returns the maximum eccentricity over the (possibly multiple) components,
    i.e. the longest finite shortest-path length.
    """
    best = 0
    for s in range(graph.n):
        dist = bfs_distances(graph, s)
        finite = dist[dist != UNREACHABLE]
        if len(finite):
            best = max(best, int(finite.max()))
    return best


def diameter_double_sweep(graph: Graph, seed: int = 0) -> int:
    """Double-sweep lower bound on the diameter.

    BFS from a random vertex, then BFS again from the farthest vertex found;
    the second eccentricity is a (usually tight on small-world graphs) lower
    bound.  This is the standard estimator used when ``n`` makes exact
    computation infeasible.
    """
    if graph.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    start = int(rng.integers(graph.n))
    dist = bfs_distances(graph, start)
    reachable = np.flatnonzero(dist != UNREACHABLE)
    far = int(reachable[np.argmax(dist[reachable])])
    dist2 = bfs_distances(graph, far)
    finite = dist2[dist2 != UNREACHABLE]
    return int(finite.max()) if len(finite) else 0


def graph_stats(graph: Graph, name: str = "") -> GraphStats:
    """Compute the Table III-style statistics row for ``graph``."""
    degrees = graph.degrees()
    comp = connected_components(graph)
    return GraphStats(
        name=name,
        n=graph.n,
        m=graph.m,
        avg_degree=graph.average_degree(),
        max_degree=int(degrees.max()) if graph.n else 0,
        components=int(comp.max()) + 1 if graph.n else 0,
        diameter_lb=diameter_double_sweep(graph),
    )

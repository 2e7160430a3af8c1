"""Synthetic graph generators.

The paper evaluates on ten public datasets (Table III) spanning social,
web, interaction and co-authorship networks, plus road networks for the
ordering discussion (Section III-G).  Those raw datasets are not available
offline, so the benchmark harness substitutes scaled synthetic graphs whose
*structure* matches each family:

* :func:`barabasi_albert` — heavy-tailed degree, low diameter: social/web
  networks (FB, GW, GO, YT, PE, FL, IN, BE);
* :func:`watts_strogatz` — high clustering, interaction networks (WI);
* :func:`grid_road_network` — bounded degree, large diameter: road networks,
  used for the tree-decomposition / hybrid-ordering experiments;
* :func:`powerlaw_cluster` — BA with triangle closure, co-authorship (DB).

All generators take an explicit ``seed`` and are deterministic, which the
benchmark reproducibility tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_cluster",
    "grid_road_network",
    "random_tree",
    "caveman",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
]


def _edge_array(edges: list[tuple[int, int]]) -> np.ndarray:
    """An edge list as the ``(k, 2)`` int64 array :class:`Graph` canonicalises."""
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) random graph (edge picked independently with probability ``p``)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n):
        draws = rng.random(n - u - 1)
        for off in np.flatnonzero(draws < p):
            edges.append((u, u + 1 + int(off)))
    return Graph(n, edges)


def barabasi_albert(n: int, m_attach: int, seed: int = 0) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Starts from a clique on ``m_attach + 1`` vertices; each subsequent vertex
    attaches to ``m_attach`` distinct existing vertices chosen proportionally
    to degree (implemented with the standard repeated-nodes trick).
    """
    if m_attach < 1:
        raise GraphError(f"attachment count must be >= 1, got {m_attach}")
    if n < m_attach + 1:
        raise GraphError(f"need n >= m_attach + 1, got n={n}, m_attach={m_attach}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    for u in range(m_attach + 1):
        for v in range(u + 1, m_attach + 1):
            edges.append((u, v))
            repeated.extend((u, v))
    for u in range(m_attach + 1, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for v in targets:
            edges.append((u, v))
            repeated.extend((u, v))
    return Graph(n, _edge_array(edges))


def watts_strogatz(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice with rewiring).

    ``k`` must be even; each vertex starts connected to its ``k`` nearest
    ring neighbours and each lattice edge is rewired with probability ``p``.
    """
    if k % 2 or k < 2:
        raise GraphError(f"lattice degree k must be even and >= 2, got {k}")
    if n <= k:
        raise GraphError(f"need n > k, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    edge_set: set[tuple[int, int]] = set()
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            edge_set.add((u, v) if u < v else (v, u))
    edges = sorted(edge_set)
    rewired: set[tuple[int, int]] = set()
    for u, v in edges:
        if rng.random() < p:
            for _ in range(32):  # bounded retries to avoid livelock on dense k
                w = int(rng.integers(n))
                key = (u, w) if u < w else (w, u)
                if w != u and key not in rewired and key not in edge_set:
                    rewired.add(key)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return Graph(n, _edge_array(sorted(rewired)))


def powerlaw_cluster(n: int, m_attach: int, p_triangle: float, seed: int = 0) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like :func:`barabasi_albert` but, after each preferential attachment,
    with probability ``p_triangle`` the next link closes a triangle with a
    random neighbour of the previous target.  Models co-authorship networks.
    """
    if not 0.0 <= p_triangle <= 1.0:
        raise GraphError(f"triangle probability must be in [0, 1], got {p_triangle}")
    if n < m_attach + 1:
        raise GraphError(f"need n >= m_attach + 1, got n={n}, m_attach={m_attach}")
    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []

    def connect(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)
        repeated.extend((a, b))

    for u in range(m_attach + 1):
        for v in range(u + 1, m_attach + 1):
            connect(u, v)
    for u in range(m_attach + 1, n):
        links = 0
        last_target = -1
        while links < m_attach:
            if (
                last_target >= 0
                and rng.random() < p_triangle
                and (candidates := [w for w in adj[last_target] if w != u and w not in adj[u]])
            ):
                v = candidates[int(rng.integers(len(candidates)))]
            else:
                v = repeated[int(rng.integers(len(repeated)))]
                if v == u or v in adj[u]:
                    last_target = -1
                    continue
            connect(u, v)
            last_target = v
            links += 1
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, _edge_array(edges))


def grid_road_network(
    rows: int, cols: int, extra_edges: int = 0, seed: int = 0
) -> Graph:
    """A rows x cols grid with optional random shortcuts: a road-network proxy.

    Grids have the two properties Section III-G attributes to road networks:
    almost all vertices share the same low degree (making degree ordering
    uninformative) and the diameter is large, so tree-decomposition ordering
    shines.  ``extra_edges`` diagonal shortcuts emulate highway links.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    rng = np.random.default_rng(seed)
    for _ in range(extra_edges):
        r = int(rng.integers(max(rows - 1, 1)))
        c = int(rng.integers(max(cols - 1, 1)))
        if rows > 1 and cols > 1:
            edges.append((vid(r, c), vid(r + 1, c + 1)))
    return Graph(n, _edge_array(edges))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random recursive tree (each vertex attaches to a prior one)."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(u)), u) for u in range(1, n)]
    return Graph(n, edges)


def caveman(n_cliques: int, clique_size: int) -> Graph:
    """Connected caveman graph: cliques joined in a ring by single edges."""
    if n_cliques < 1 or clique_size < 2:
        raise GraphError("need at least one clique of size >= 2")
    n = n_cliques * clique_size
    edges = []
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % n_cliques) * clique_size
        if n_cliques > 1:
            edges.append((base, nxt))
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n_leaves: int) -> Graph:
    """A star: vertex 0 joined to ``n_leaves`` leaves."""
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def path_graph(n: int) -> Graph:
    """P_n."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n (requires ``n >= 3``)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])

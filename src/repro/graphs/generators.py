"""Graph generators for workloads, tests and the paper's examples.

Families relevant to the paper:

* paths / cycles / wheels / complete graphs — the classes whose ``L(2,1)``
  spans have closed forms (used as exactness oracles),
* diameter-bounded random graphs — the instances Theorem 2 applies to,
* cographs / cluster graphs / complete multipartite — small modular-width
  families for the Corollary 2 / Theorem 4 experiments,
* random geometric graphs — the radio-network motivation of the introduction.

All random generators take an explicit ``rng`` (``numpy.random.Generator``)
or ``seed``; nothing reads global random state, so every workload is
reproducible from its parameters.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import diameter, is_connected


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed (or pass through a Generator) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# deterministic families
# ---------------------------------------------------------------------------
def empty_graph(n: int) -> Graph:
    """``n`` isolated vertices."""
    return Graph(n)


def complete_graph(n: int) -> Graph:
    """``K_n``."""
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    """``P_n``: vertices ``0..n-1`` in a line."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """``C_n`` (requires ``n >= 3``)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n_leaves: int) -> Graph:
    """``K_{1,n}``: centre 0 plus ``n_leaves`` leaves."""
    return Graph(n_leaves + 1, ((0, i) for i in range(1, n_leaves + 1)))


def wheel_graph(n_rim: int) -> Graph:
    """Wheel ``W_n``: a hub (vertex 0) joined to an ``n_rim``-cycle."""
    if n_rim < 3:
        raise GraphError(f"wheel needs rim >= 3, got {n_rim}")
    g = Graph(n_rim + 1)
    for i in range(n_rim):
        g.add_edge(0, 1 + i)
        g.add_edge(1 + i, 1 + (i + 1) % n_rim)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """``K_{a,b}`` with parts ``0..a-1`` and ``a..a+b-1``."""
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def complete_multipartite_graph(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given part sizes."""
    if any(s < 0 for s in part_sizes):
        raise GraphError("part sizes must be non-negative")
    offsets = np.concatenate([[0], np.cumsum(part_sizes)])
    n = int(offsets[-1])
    g = Graph(n)
    for i in range(len(part_sizes)):
        for j in range(i + 1, len(part_sizes)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    g.add_edge(int(u), int(v))
    return g


def cluster_graph(clique_sizes: Sequence[int]) -> Graph:
    """Disjoint union of cliques (a "cluster graph")."""
    g = Graph(int(sum(clique_sizes)))
    offset = 0
    for s in clique_sizes:
        for u in range(offset, offset + s):
            for v in range(u + 1, offset + s):
                g.add_edge(u, v)
        offset += s
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows x cols`` king-less grid (4-neighbour lattice)."""
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def hypercube_graph(d: int) -> Graph:
    """The ``d``-dimensional hypercube ``Q_d``."""
    n = 1 << d
    g = Graph(n)
    for v in range(n):
        for bit in range(d):
            u = v ^ (1 << bit)
            if v < u:
                g.add_edge(v, u)
    return g


def petersen_graph() -> Graph:
    """The Petersen graph (10 vertices, diameter 2) — a classic test case."""
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)          # outer 5-cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)                # spokes
    return g


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """A path of length ``spine`` with ``legs_per_vertex`` leaves per spine node."""
    g = path_graph(spine)
    for v in range(spine):
        for _ in range(legs_per_vertex):
            w = g.add_vertex()
            g.add_edge(v, w)
    return g


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------
def random_gnp(n: int, p: float, seed: int | np.random.Generator | None = None) -> Graph:
    """Erdős–Rényi ``G(n, p)``."""
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = _rng(seed)
    g = Graph(n)
    if n >= 2 and p > 0:
        upper = np.triu_indices(n, k=1)
        mask = rng.random(len(upper[0])) < p
        for u, v in zip(upper[0][mask].tolist(), upper[1][mask].tolist()):
            g.add_edge(u, v)
    return g


def random_connected_gnp(
    n: int,
    p: float,
    seed: int | np.random.Generator | None = None,
    max_tries: int = 200,
) -> Graph:
    """``G(n, p)`` conditioned on connectivity (retry, then spanning-tree patch).

    If ``max_tries`` samples all come out disconnected, the last sample is
    patched with a random spanning tree, which preserves the family's flavour
    while guaranteeing termination.
    """
    rng = _rng(seed)
    g = Graph(0)
    for _ in range(max_tries):
        g = random_gnp(n, p, rng)
        if is_connected(g):
            return g
    tree = random_tree(n, rng)
    for u, v in tree.edges():
        g.add_edge(u, v)
    return g


def random_tree(n: int, seed: int | np.random.Generator | None = None) -> Graph:
    """Uniform random labelled tree via a random Prüfer sequence."""
    if n <= 0:
        raise GraphError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = _rng(seed)
    prufer = rng.integers(0, n, size=n - 2)
    return tree_from_prufer(prufer.tolist())


def tree_from_prufer(prufer: Sequence[int]) -> Graph:
    """Decode a Prüfer sequence into its labelled tree."""
    n = len(prufer) + 2
    degree = np.ones(n, dtype=np.int64)
    for v in prufer:
        if not (0 <= v < n):
            raise GraphError(f"prufer symbol {v} out of range for n={n}")
        degree[v] += 1
    g = Graph(n)
    # classic decoding: repeatedly match the smallest leaf with the next symbol
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, int(v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    g.add_edge(u, w)
    return g


def random_graph_with_diameter_at_most(
    n: int,
    k: int,
    seed: int | np.random.Generator | None = None,
    max_tries: int = 400,
) -> Graph:
    """A connected random graph with ``diam(G) <= k`` (and ``>= 2`` for n >= 3).

    The sampler walks an edge-probability schedule from sparse to dense and
    returns the first draw meeting the bound; as a last resort it returns a
    graph that provably satisfies it (universal-vertex augmentation for
    ``k >= 2``).  Instances Theorem 2 accepts are exactly these.
    """
    if k < 1:
        raise GraphError(f"diameter bound must be >= 1, got {k}")
    rng = _rng(seed)
    if n <= 2 or k == 1:
        return complete_graph(n)
    schedule = np.linspace(min(1.0, 2.2 * np.log(max(n, 2)) / n), 1.0, num=12)
    tries_per_p = max(1, max_tries // len(schedule))
    for p in schedule:
        for _ in range(tries_per_p):
            g = random_gnp(n, float(p), rng)
            if is_connected(g) and diameter(g) <= k:
                return g
    # guaranteed fallback: hub + random extra edges has diameter <= 2 <= k
    g = star_graph(n - 1)
    extra = random_gnp(n, 0.3, rng)
    for u, v in extra.edges():
        g.add_edge(u, v)
    return g


def random_geometric_graph(
    n: int,
    radius: float,
    seed: int | np.random.Generator | None = None,
    ensure_connected: bool = True,
    max_tries: int = 100,
) -> tuple[Graph, np.ndarray]:
    """Unit-square random geometric graph; returns ``(graph, positions)``.

    This is the radio-network workload from the paper's motivation: vertices
    are transmitters, edges join transmitters within interference range.
    """
    rng = _rng(seed)
    for _ in range(max_tries):
        pos = rng.random((n, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        close = (diff**2).sum(axis=2) <= radius * radius
        np.fill_diagonal(close, False)
        g = Graph.from_adjacency_matrix(close)
        if not ensure_connected or is_connected(g):
            return g, pos
    # densify: connect each vertex to its nearest neighbour to force connectivity
    d2 = (diff**2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    for v in range(n):
        g2 = int(np.argmin(d2[v]))
        if not g.has_edge(v, g2):
            g.add_edge(v, g2)
    return g, pos


def random_split_graph(
    n_clique: int, n_independent: int, p: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """A split graph: a clique, an independent set, random edges between."""
    rng = _rng(seed)
    n = n_clique + n_independent
    g = Graph(n)
    for u in range(n_clique):
        for v in range(u + 1, n_clique):
            g.add_edge(u, v)
    for u in range(n_clique):
        for v in range(n_clique, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_regular_ish_graph(
    n: int, d: int, seed: int | np.random.Generator | None = None
) -> Graph:
    """An approximately ``d``-regular graph via a configuration-model sweep.

    Multi-edges/loops produced by the pairing are dropped, so a few vertices
    may fall short of degree ``d`` — fine for workload purposes.
    """
    if d >= n:
        raise GraphError(f"degree {d} must be < n={n}")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    g = Graph(n)
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def paper_figure1_graph() -> Graph:
    """The 5-vertex, diameter-3 example of Figure 1.

    Vertices ``a..e`` are mapped to ``0..4``.  Edges: a-b, b-c, c-e, e-d
    (a 4-path with a chord pattern giving the distances used in the figure)
    plus a-c.  The figure's weight pattern on H uses distances
    1 (p1), 2 (p2) and 3 (p3); this graph realizes exactly that: it is the
    5-cycle-free "C" shape with diam = 3.
    """
    # a=0, b=1, c=2, d=3, e=4 — path a-b-c-e-d plus chord a-c: diam(a..d)=3
    return Graph(5, [(0, 1), (1, 2), (2, 4), (4, 3), (0, 2)])


def paper_figure2_graph() -> Graph:
    """The 9-vertex diameter-2 example of Figure 2 (vertices v1..v9 → 0..8).

    The figure needs a diameter-2 graph in which the permutation
    ``v1..v9`` decomposes into runs P1=(v1,v2,v3), P2=(v4), P3=(v5,v6),
    P4=(v7,v8), P5=(v9): consecutive pairs *inside* runs are edges of G,
    pairs *between* runs are non-edges.  We realize one such graph by taking
    those run edges and adding a dominating vertex pattern that keeps the
    diameter at 2 without joining any consecutive inter-run pair.
    """
    forbidden = {(2, 3), (3, 4), (5, 6), (7, 8)}  # consecutive inter-run pairs
    g = Graph(9)
    for u in range(9):
        for v in range(u + 1, 9):
            if (u, v) not in forbidden:
                g.add_edge(u, v)
    return g

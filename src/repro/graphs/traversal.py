"""Breadth-first traversal, distances, connectivity, diameter.

The all-pairs routine is the substrate for the Theorem-2 reduction.  It used
to run one Python ``deque`` BFS per source; it is now a **vectorized
multi-source frontier expansion**: all ``n`` BFS trees advance one level per
iteration through a boolean frontier-matrix × adjacency-matrix product.  On
the paper's regime (``diam(G) <= k``, tiny) that is ``O(diam)`` NumPy passes
total — a large constant-factor win over ``n`` interpreted BFS loops.  The
per-source implementation is kept as :func:`all_pairs_distances_reference`,
the correctness oracle for the property tests and the benchmark baseline.

Whole-graph queries (``diameter``/``radius``/``eccentricities``) route
through the memoized :mod:`repro.graphs.analysis` oracle so the distance
matrix is computed at most once per graph version.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY

#: Sentinel distance for unreachable vertex pairs.
UNREACHABLE: int = -1

#: Registry counter of full APSP kernel runs in this process.  The analysis
#: oracle's contract — "at most one APSP per graph version" — is asserted in
#: tests by snapshotting this counter around end-to-end solves; the perf
#: baseline gates it per scenario.
_APSP_RUNS = REGISTRY.counter("repro_apsp_runs_total")
_APSP_RUNS.labels()  # materialize: the exposition shows 0, not nothing


def apsp_run_count() -> int:
    """How many times the APSP kernel has run in this process.

    Delegates to the ``repro_apsp_runs_total`` registry counter — the
    legacy call sites and the metrics exposition can never disagree.
    """
    return int(_APSP_RUNS.value)


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` to every vertex (``UNREACHABLE`` if none).

    Runs in ``O(n + m)`` time.

    >>> from repro.graphs.generators import path_graph
    >>> bfs_distances(path_graph(4), 0).tolist()
    [0, 1, 2, 3]
    """
    graph._check_vertex(source)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    adj = graph._adj  # intentional: hot loop, avoid frozenset copies
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """The full ``n x n`` distance matrix by multi-source frontier expansion.

    Level ``d+1`` of every BFS tree is one boolean matmul: rows of
    ``frontier`` are the per-source level-``d`` sets, so ``frontier @ adj``
    marks every vertex adjacent to the current frontier, and masking out
    already-reached vertices leaves exactly level ``d+1``.  The loop runs
    once per distinct distance value (``diam(G)`` times on connected
    graphs).  Unreachable pairs hold ``UNREACHABLE``.

    Prefer :func:`repro.graphs.analysis.get_analysis` over calling this
    directly — the oracle memoizes the result per graph version.
    """
    _APSP_RUNS.inc()
    return distance_rows_dense(
        graph.adjacency_matrix(dtype=np.bool_), np.arange(graph.n)
    )


def distance_rows_dense(
    adj: np.ndarray, sources: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """BFS distance rows for ``sources`` over a boolean adjacency matrix.

    The dense frontier expansion behind :func:`all_pairs_distances`: all
    ``len(sources)`` BFS trees advance one level per iteration through one
    ``(k, n) @ (n, n)`` boolean product.  Rows come back in ``dtype``, which
    must hold ``n - 1``.  Unreachable pairs hold :data:`UNREACHABLE`.  Does
    not count toward :func:`apsp_run_count` — the gate for *full*
    materializations.
    """
    n = adj.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.shape[0]
    dist = np.full((k, n), UNREACHABLE, dtype=dtype)
    if k == 0 or n == 0:
        return dist
    seeds = (np.arange(k), sources)
    dist[seeds] = 0
    reached = np.zeros((k, n), dtype=bool)
    reached[seeds] = True
    frontier = reached.copy()
    level = 0
    while True:
        frontier = (frontier @ adj) & ~reached
        if not frontier.any():
            break
        level += 1
        dist[frontier] = level
        reached |= frontier
    return dist


#: Promotion chain for the blocked kernel's level counter: when a BFS level
#: would overflow the block dtype, the block widens one step and continues.
_WIDER = {
    np.dtype(np.int8): np.int16,
    np.dtype(np.int16): np.int32,
    np.dtype(np.int32): np.int64,
}

_ORACLE_PROMOTIONS = REGISTRY.counter("repro_oracle_promotions_total")
_ORACLE_PROMOTIONS.labels()  # materialize: the exposition shows 0, not nothing


def distance_rows_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    n: int,
    dtype=np.int16,
) -> np.ndarray:
    """BFS distance rows for ``sources`` over a CSR adjacency.

    The row-block substrate of the lazy distance oracle: all ``len(sources)``
    BFS trees advance one level per iteration, with the frontier kept as a
    sparse ``(row, vertex)`` pair list instead of the dense boolean matrix
    :func:`distance_rows_dense` uses — memory is ``O(block_rows * n)``, not
    ``O(n^2)``.  Rows come back in ``dtype`` (default ``int16``); if a level
    would overflow it, the block promotes to the next wider integer type and
    ``repro_oracle_promotions_total`` is incremented.  Unreachable pairs
    hold :data:`UNREACHABLE`.  Does not count toward
    :func:`apsp_run_count` — the gate for *full* materializations.
    """
    sources = np.asarray(sources, dtype=np.int64)
    b = sources.shape[0]
    dist = np.full((b, n), UNREACHABLE, dtype=np.dtype(dtype))
    if b == 0 or n == 0:
        return dist
    dist[np.arange(b), sources] = 0
    rows = np.arange(b, dtype=np.int64)
    cols = sources.copy()
    level = 0
    while rows.size:
        level += 1
        if level > np.iinfo(dist.dtype).max:
            dist = dist.astype(_WIDER[dist.dtype])
            _ORACLE_PROMOTIONS.inc()
        counts = indptr[cols + 1] - indptr[cols]
        live = counts > 0
        rows, cols, counts = rows[live], cols[live], counts[live]
        if rows.size == 0:
            break
        # multi-range gather: one cumsum builds the concatenation of every
        # frontier vertex's CSR slice without a python loop
        starts = indptr[cols]
        cum = np.cumsum(counts)
        deltas = np.ones(cum[-1], dtype=np.int64)
        deltas[cum[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
        deltas[0] = starts[0]
        nbr = indices[np.cumsum(deltas)]
        nbr_rows = np.repeat(rows, counts)
        # drop already-visited candidates first (the bulk of the gather
        # once the BFS waves collide), then dedupe the survivors (several
        # frontier vertices can share a neighbour) with one sort — far
        # cheaper than hashing the full gather via np.unique
        fresh = dist[nbr_rows, nbr] == UNREACHABLE
        flat = nbr_rows[fresh] * n + nbr[fresh]
        if flat.size:
            flat.sort()
            keep = np.empty(flat.size, dtype=bool)
            keep[0] = True
            np.not_equal(flat[1:], flat[:-1], out=keep[1:])
            flat = flat[keep]
        rows, cols = flat // n, flat % n
        dist[rows, cols] = level
    return dist


def all_pairs_distances_reference(graph: Graph) -> np.ndarray:
    """One Python BFS per source (``O(nm)``) — the pre-vectorization kernel.

    Kept as the independent correctness oracle for the vectorized routine
    (property tests assert bit-identical matrices) and as the benchmark
    baseline.  Does not count toward :func:`apsp_run_count`.
    """
    n = graph.n
    dist = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist[s] = bfs_distances(graph, s)
    return dist


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in id order."""
    seen = np.zeros(graph.n, dtype=bool)
    components: list[list[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        dist = bfs_distances(graph, s)
        members = np.nonzero(dist != UNREACHABLE)[0]
        seen[members] = True
        components.append(members.tolist())
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the graph has one component (empty graph counts as connected)."""
    if graph.n == 0:
        return True
    return bool(np.all(bfs_distances(graph, 0) != UNREACHABLE))


def eccentricity(graph: Graph, v: int) -> int:
    """Largest distance from ``v``; raises on disconnected graphs."""
    graph._check_vertex(v)
    from repro.graphs.analysis import get_analysis

    return int(get_analysis(graph).eccentricities[v])


def eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex as one vector (oracle-backed).

    Raises :class:`DisconnectedGraphError` on disconnected input — detected
    by a single-BFS pre-check, before any APSP is spent.
    """
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).eccentricities


def diameter(graph: Graph) -> int:
    """``max_{u,v} dist(u, v)``; 0 for graphs with at most one vertex.

    Raises :class:`DisconnectedGraphError` on disconnected input, matching
    the paper's standing assumption that ``G`` is connected.  Served from
    the per-graph analysis oracle, so repeated structural queries on the
    same graph version share one distance matrix.
    """
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).diameter


def radius(graph: Graph) -> int:
    """``min_v ecc(v)``; 0 for graphs with at most one vertex."""
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).radius

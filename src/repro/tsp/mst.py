"""Dense Prim minimum spanning tree.

Used by the Christofides / Hoogeveen / double-tree approximations, and as
the path lower bound (``MST <= OPT_path``: a Hamiltonian path is a spanning
tree) inside branch-and-bound.  The instances here are complete graphs, so
the dense ``O(n^2)`` Prim with NumPy key arrays is the right algorithm
(heap-based Prim would be slower).
"""

from __future__ import annotations

import numpy as np

from repro.tsp.instance import TSPInstance


def dense_prim(w: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Prim from vertex 0 over a square weight matrix: ``(edges, weight)``.

    Takes the raw matrix, not a :class:`TSPInstance`, so branch-and-bound
    can bound a submatrix without re-validating it.  Deterministic: ties go
    to the smallest vertex index (NumPy argmin), and the weight sums the
    edges in the order they join the tree.
    """
    n = len(w)
    if n <= 1:
        return [], 0.0
    in_tree = np.zeros(n, dtype=bool)
    key = w[0].copy()
    parent = np.zeros(n, dtype=np.intp)
    in_tree[0] = True
    key[0] = np.inf
    edges: list[tuple[int, int]] = []
    total = 0.0
    for _ in range(n - 1):
        v = int(np.argmin(key))
        edges.append((int(parent[v]), v))
        total += float(key[v])
        in_tree[v] = True
        key[v] = np.inf
        better = (w[v] < key) & ~in_tree
        key[better] = w[v][better]
        parent[better] = v
    return edges, total


def prim_mst(instance: TSPInstance) -> list[tuple[int, int]]:
    """Edges of a minimum spanning tree of the complete weighted graph.

    Returns ``n - 1`` edges as ``(u, v)`` pairs, in the order Prim adds them.

    >>> inst = TSPInstance.random_metric(5, seed=0)
    >>> len(prim_mst(inst))
    4
    """
    return dense_prim(instance.weights)[0]


def mst_weight(instance: TSPInstance) -> float:
    """Total weight of a minimum spanning tree: a lower bound on any path."""
    return dense_prim(instance.weights)[1]

"""Lower bounds for TSP: 1-tree (Held–Karp bound) with subgradient ascent.

Standalone bounds, exported from :mod:`repro.tsp`; no solve path calls
them.  ``1-tree bound <= OPT_cycle`` and ``MST <= OPT_path``.  The 1-tree
bound is a *cycle* bound and routinely exceeds the optimal Hamiltonian
path (3.169 vs 2.096 on ``TSPInstance.random_metric(8, seed=0)``), so it
must never certify a Theorem-2 path; :func:`certified_gap` uses the MST
bound.  The subgradient iteration is the classic Held–Karp (1970) scheme.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.instance import TSPInstance


def one_tree_bound(
    instance: TSPInstance,
    iterations: int = 50,
    step_scale: float = 1.0,
) -> float:
    """The Held–Karp 1-tree lower bound on the optimal *cycle*.

    A 1-tree is an MST on vertices ``1..n-1`` plus the two cheapest edges at
    vertex 0; its weight lower-bounds any tour.  Vertex penalties ``π`` are
    tuned by subgradient ascent on ``w'(u,v) = w(u,v) + π_u + π_v``
    (bound = 1-tree weight − 2 Σπ), monotonically improving the best bound.

    >>> inst = TSPInstance.random_metric(8, seed=0)
    >>> from repro.tsp.held_karp import held_karp_cycle
    >>> one_tree_bound(inst) <= held_karp_cycle(inst).length + 1e-9
    True
    """
    n = instance.n
    if n < 3:
        return instance.cycle_length(list(range(n)))
    w = instance.weights
    pi = np.zeros(n)
    best = -np.inf
    # initial step: average edge weight scale
    t = step_scale * float(w.sum()) / (n * n)

    for _ in range(iterations):
        wp = w + pi[:, None] + pi[None, :]
        np.fill_diagonal(wp, 0.0)
        weight, degree = _one_tree(wp, n)
        bound = weight - 2.0 * float(pi.sum())
        if bound > best:
            best = bound
        gradient = degree - 2.0
        norm = float((gradient**2).sum())
        if norm < 1e-12:
            break  # the 1-tree is a tour: bound is tight
        pi = pi + t * gradient
        t *= 0.95
    return best


def _one_tree(wp: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Minimum 1-tree weight and vertex degrees under penalized weights."""
    # MST over vertices 1..n-1 (dense Prim)
    degree = np.zeros(n)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True  # excluded from the MST phase
    key = wp[1].copy()
    key[0] = np.inf
    key[1] = np.inf
    parent = np.ones(n, dtype=np.intp)
    in_tree[1] = True
    total = 0.0
    for _ in range(n - 2):
        v = int(np.argmin(key))
        total += float(key[v])
        degree[v] += 1
        degree[parent[v]] += 1
        in_tree[v] = True
        key[v] = np.inf
        better = (wp[v] < key) & ~in_tree
        key[better] = wp[v][better]
        parent[better] = v
    # two cheapest edges at vertex 0
    order = np.argsort(wp[0, 1:], kind="stable") + 1
    e1, e2 = int(order[0]), int(order[1])
    total += float(wp[0, e1] + wp[0, e2])
    degree[0] += 2
    degree[e1] += 1
    degree[e2] += 1
    return total, degree


def certified_gap(instance: TSPInstance, path_length: float) -> float:
    """An upper bound on ``path_length / OPT_path`` using the MST bound.

    MST weight lower-bounds any Hamiltonian path, so the returned ratio is a
    certificate: the heuristic path is at most this factor above optimal.
    """
    from repro.tsp.mst import mst_weight

    lb = mst_weight(instance)
    if lb <= 0:
        return 1.0
    return path_length / lb

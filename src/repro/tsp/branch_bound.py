"""Depth-first branch-and-bound for exact path TSP.

An independent exact solver used to cross-check Held–Karp in the test-suite
(two exact engines agreeing is strong evidence both are right).  The lower
bound for a partial path is ``current length + MST(unvisited + endpoint)``:
any completion is a spanning connected subgraph of that vertex set, so the
MST weight is a valid bound.  Practical to ~15 vertices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InstanceTooLargeError
from repro.tsp.instance import TSPInstance
from repro.tsp.lin_kernighan import lk_style_path
from repro.tsp.mst import dense_prim
from repro.tsp.tour import HamPath

#: guard: DFS node counts explode factorially without the bound's help
MAX_BNB_N = 16


def branch_and_bound_path(instance: TSPInstance) -> HamPath:
    """Exact minimum Hamiltonian path via DFS branch-and-bound.

    Seeds the incumbent with the LK-style heuristic so pruning starts strong.
    Refuses instances past :data:`MAX_BNB_N` with
    :class:`~repro.errors.InstanceTooLargeError`.
    """
    n = instance.n
    if n > MAX_BNB_N:
        raise InstanceTooLargeError(
            f"engine 'branch_bound' is capped at n={MAX_BNB_N} (got n={n}); "
            "use engine 'lk' or 'auto'"
        )
    if n == 0:
        return HamPath((), 0.0)
    if n == 1:
        return HamPath((0,), 0.0)

    w = instance.weights
    incumbent = lk_style_path(instance, kicks=10, seed=0)
    best_len = incumbent.length
    best_order = list(incumbent.order)

    order = np.empty(n, dtype=np.intp)
    visited = np.zeros(n, dtype=bool)

    def mst_bound(cur: int) -> float:
        """MST weight of {cur} + unvisited — dense Prim on the submatrix."""
        nodes = np.concatenate(([cur], np.flatnonzero(~visited)))
        return dense_prim(w[np.ix_(nodes, nodes)])[1]

    def dfs(depth: int, cur: int, length: float) -> None:
        """Extend the partial path at ``cur``, pruning on the MST bound."""
        nonlocal best_len, best_order
        if depth == n:
            if length < best_len - 1e-12:
                best_len = length
                best_order = order[:n].tolist()
            return
        if length + mst_bound(cur) >= best_len - 1e-12:
            return
        # expand children nearest-first: finds improvements early
        cand = np.flatnonzero(~visited)
        for v in cand[np.argsort(w[cur, cand], kind="stable")]:
            v = int(v)
            visited[v] = True
            order[depth] = v
            dfs(depth + 1, v, length + float(w[cur, v]))
            visited[v] = False

    for s in range(n):
        visited[:] = False
        visited[s] = True
        order[0] = s
        dfs(1, s, 0.0)

    return HamPath.from_order(instance, best_order)

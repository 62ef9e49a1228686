"""Double-tree 2-approximation (cycle and path variants).

The weaker classical baseline: double every MST edge, walk the Eulerian
circuit, shortcut.  Kept as the comparison point for the approximation-ratio
experiment (E5): Hoogeveen/Christofides should beat it visibly, and neither
may exceed its guarantee.
"""

from __future__ import annotations

from repro.tsp.eulerian import Multigraph, eulerian_circuit, shortcut
from repro.tsp.instance import TSPInstance
from repro.tsp.mst import prim_mst
from repro.tsp.tour import HamPath, Tour


def double_tree_cycle(instance: TSPInstance) -> Tour:
    """Closed tour of weight <= 2x optimal.

    Raises ``NotMetricError`` when the triangle inequality fails.
    """
    instance.require_metric()
    n = instance.n
    if n <= 1:
        return Tour(tuple(range(n)), 0.0)
    mg = Multigraph(n)
    for u, v in prim_mst(instance):
        mg.add_edge(u, v)
        mg.add_edge(u, v)
    order = shortcut(eulerian_circuit(mg, start=0))
    return Tour.from_order(instance, order)


def double_tree_path(instance: TSPInstance) -> HamPath:
    """Hamiltonian path of weight <= 2x the optimal path on metric instances.

    A DFS preorder of the MST, i.e. the doubled-tree walk with shortcuts;
    its length is bounded by twice the MST weight, and the MST lower-bounds
    the optimal Hamiltonian path.  Raises ``NotMetricError`` when the
    triangle inequality fails.
    """
    instance.require_metric()
    n = instance.n
    if n <= 1:
        return HamPath(tuple(range(n)), 0.0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in prim_mst(instance):
        adj[u].append(v)
        adj[v].append(u)
    order: list[int] = []
    seen = [False] * n
    stack = [0]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        order.append(v)
        # reversed for stable left-to-right preorder
        stack.extend(sorted(adj[v], reverse=True))
    return HamPath.from_order(instance, order)

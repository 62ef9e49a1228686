"""Hoogeveen's Christofides variant for metric **path** TSP, free endpoints.

This realizes Corollary 1's "1.5-approximable in polynomial time": the
Theorem-2 reduction produces a path TSP in which *both endpoints are free*,
and Hoogeveen (1991) showed that in this regime the Christofides recipe with
a *near-perfect* matching achieves ratio 3/2.  (The paper cites Zenklusen's
deterministic 1.5 for the harder fixed-endpoint variant; with free endpoints
the classical algorithm already meets the same constant.)

Recipe:

1. MST ``T`` of the instance.
2. ``O`` = odd-degree vertices of ``T`` (``|O|`` is even).
3. Minimum-weight matching on ``O`` leaving exactly two vertices exposed
   (:func:`repro.tsp.matching.min_weight_near_perfect_matching`).
4. ``T`` + matching has exactly two odd vertices -> Eulerian *trail*.
5. Shortcut the trail to a Hamiltonian path (metricity: no length increase).
"""

from __future__ import annotations

from repro.tsp.eulerian import Multigraph, eulerian_trail, shortcut
from repro.tsp.instance import TSPInstance
from repro.tsp.matching import min_weight_near_perfect_matching
from repro.tsp.mst import prim_mst
from repro.tsp.tour import HamPath


def hoogeveen_path(instance: TSPInstance) -> HamPath:
    """A Hamiltonian path of weight <= 1.5x optimal.

    Checks the triangle inequality first (the guarantee needs it) and
    raises :class:`~repro.errors.NotMetricError` when it fails.

    >>> inst = TSPInstance.random_metric(8, seed=1)
    >>> path = hoogeveen_path(inst)
    >>> sorted(path.order) == list(range(8))
    True
    """
    instance.require_metric()
    n = instance.n
    if n <= 1:
        return HamPath(tuple(range(n)), 0.0)
    if n == 2:
        return HamPath((0, 1), instance.weight(0, 1))

    mst_edges = prim_mst(instance)
    mg = Multigraph(n)
    for u, v in mst_edges:
        mg.add_edge(u, v)

    odd = mg.odd_vertices()
    # A tree always has an even number of odd-degree vertices and at least 2
    # (its leaves), so the near-perfect matching below is well-defined.
    edges, (a, _b) = min_weight_near_perfect_matching(instance.weights, odd)
    for u, v in edges:
        mg.add_edge(u, v)

    walk = eulerian_trail(mg, start=a)
    order = shortcut(walk)
    return HamPath.from_order(instance, order)

"""Christofides 1.5-approximation for metric cycle TSP.

MST + minimum-weight perfect matching on the odd-degree vertices + Eulerian
circuit + shortcut.  The matching engine is exact for odd sets up to 18
vertices (see :mod:`repro.tsp.matching`), which covers every instance the
benchmark suite certifies ratios on.
"""

from __future__ import annotations

from repro.tsp.eulerian import Multigraph, eulerian_circuit, shortcut
from repro.tsp.instance import TSPInstance
from repro.tsp.matching import min_weight_perfect_matching
from repro.tsp.mst import prim_mst
from repro.tsp.tour import Tour


def christofides_cycle(instance: TSPInstance) -> Tour:
    """A closed tour of weight at most 1.5x the optimal tour.

    Checks the triangle inequality first (the guarantee needs it) and
    raises :class:`~repro.errors.NotMetricError` when it fails.

    >>> inst = TSPInstance.random_metric(8, seed=1)
    >>> tour = christofides_cycle(inst)
    >>> sorted(tour.order) == list(range(8))
    True
    """
    instance.require_metric()
    n = instance.n
    if n <= 1:
        return Tour(tuple(range(n)), 0.0)
    if n == 2:
        return Tour((0, 1), 2.0 * instance.weight(0, 1))

    mst_edges = prim_mst(instance)
    mg = Multigraph(n)
    for u, v in mst_edges:
        mg.add_edge(u, v)
    odd = mg.odd_vertices()
    for u, v in min_weight_perfect_matching(instance.weights, odd):
        mg.add_edge(u, v)
    walk = eulerian_circuit(mg, start=0)
    order = shortcut(walk)
    return Tour.from_order(instance, order)

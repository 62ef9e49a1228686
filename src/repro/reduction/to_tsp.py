"""Theorem 2: the ``O(nm)`` reduction from L(p)-labeling to Metric Path TSP.

Given ``(G, p)`` with ``diam(G) <= k`` and ``p_max <= 2 p_min``, build the
complete graph ``H`` on ``V(G)`` with ``w(u, v) = p_{dist_G(u, v)}``.  The
paper proves:

* ``w`` is a metric: every weight lies in ``[p_min, 2 p_min]``, so any two
  edges dominate any third — the triangle inequality holds *for structural
  reasons*, not numerically (asserted here as a cheap invariant);
* the minimum span ``λ_p(G)`` equals the minimum weight of a Hamiltonian
  path of ``H`` (Claim 1), and prefix sums along an optimal path give an
  optimal labeling (:mod:`repro.reduction.from_tour`).

Cost: one APSP — served by the shared :mod:`repro.graphs.analysis` oracle,
so it is free whenever any earlier stage already touched distances — plus
an ``O(n^2)`` matrix gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import GraphAnalysis
from repro.graphs.graph import Graph
from repro.labeling.spec import LpSpec
from repro.reduction.validation import ApplicabilityReport, check_applicable
from repro.tsp.instance import TSPInstance


@dataclass(frozen=True)
class ReducedInstance:
    """The reduction's output: the TSP instance plus provenance.

    Keeping the source graph, spec, distance matrix and the graph's
    :class:`GraphAnalysis` together lets downstream code (labeling
    reconstruction, verification, benchmarks) avoid recomputing the APSP.
    """

    graph: Graph
    spec: LpSpec
    distances: np.ndarray
    instance: TSPInstance
    analysis: GraphAnalysis

    @property
    def n(self) -> int:
        """Vertex count of the reduced instance."""
        return self.instance.n


def reduce_to_path_tsp(graph: Graph, spec: LpSpec) -> ReducedInstance:
    """Build ``H`` with ``w(u,v) = p_{dist(u,v)}`` after checking Theorem 2.

    Validation, the weight gather and every later consumer of the returned
    instance read the graph's memoized oracle, so they share a single
    distance matrix.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling.spec import L21
    >>> red = reduce_to_path_tsp(cycle_graph(5), L21)
    >>> float(red.instance.weights.min()), float(red.instance.weights.max())
    (0.0, 2.0)
    """
    report: ApplicabilityReport = check_applicable(graph, spec)
    n = graph.n

    # w[u, v] = p[dist[u, v]], gathered one distance row block at a time; p
    # is 1-indexed by distance, so prepend a 0 for the diagonal (distance
    # 0).  Applicability already proved the graph connected with diam <= k,
    # so every entry indexes inside the lookup.
    lookup = np.concatenate(([0], np.asarray(spec.p, dtype=np.int64)))
    w = np.empty((n, n), dtype=np.float64)
    for lo, hi, blk in report.analysis.iter_row_blocks():
        w[lo:hi] = lookup[blk]
    dist = report.distances

    instance = TSPInstance(w)
    # structural metricity (paper's observation): all off-diagonal weights in
    # [p_min, 2 p_min]; cheap to assert, catastrophic to get wrong.
    if n >= 2:
        off = w[~np.eye(n, dtype=bool)]
        assert off.min() >= spec.pmin and off.max() <= 2 * spec.pmin
    return ReducedInstance(
        graph=graph,
        spec=spec,
        distances=dist,
        instance=instance,
        analysis=report.analysis,
    )

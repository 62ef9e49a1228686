"""Corollary 2: diameter-2 ``L(p,q)``-labeling via PARTITION INTO PATHS.

On a diameter-2 graph the reduced TSP instance is 2-valued (weights ``p``
and ``q``).  Writing ``B_π`` for the consecutive pairs of weight ``q``,

    ``λ_p(G, π) = (n-1) p + (q-p) |B_π|``        (paper, proof of Cor. 2)

so for ``p <= q`` the optimum minimizes ``|B_π|``, i.e. maximizes runs of
*adjacent* consecutive pairs — exactly a partition of ``V(G)`` into ``s``
paths with ``|B_π| = s - 1``.  For ``p > q`` the roles swap and the path
partition lives on the complement graph (Proposition 1 guarantees the
parameter ``mw`` is unchanged there).

This module implements the full pipeline with certificates and builds the
final labeling by concatenating the partition's paths into a permutation and
applying Claim 1's prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReductionNotApplicableError
from repro.graphs.analysis import get_analysis
from repro.graphs.graph import Graph
from repro.graphs.operations import complement
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.partition.paths_partition import (
    partition_into_paths_exact,
    partition_into_paths_greedy,
)
from repro.reduction.from_tour import labeling_from_order
from repro.reduction.to_tsp import reduce_to_path_tsp


@dataclass(frozen=True)
class Diameter2Result:
    """Outcome of the Corollary-2 pipeline."""

    labeling: Labeling
    span: int
    path_count: int              # s = number of paths in the partition
    partition: list[list[int]]   # the certificate (paths in G or complement)
    on_complement: bool          # True when p > q (partition lives on Ḡ)
    exact: bool


def span_from_path_count(n: int, p: int, q: int, s: int) -> int:
    """The corollary's formula ``λ = (n-1)·min(p,q)'-side`` closed form.

    For ``p <= q``:  ``λ = (n-1) p + (q-p)(s-1)`` where ``s`` counts paths
    in ``G``; for ``p > q`` symmetrically with the complement's ``s``:
    ``λ = (n-1) q + (p-q)(s-1)``.
    """
    if n <= 1:
        return 0
    if p <= q:
        return (n - 1) * p + (q - p) * (s - 1)
    return (n - 1) * q + (p - q) * (s - 1)


def solve_lpq_diameter2(
    graph: Graph, spec: LpSpec, method: str = "exact"
) -> Diameter2Result:
    """Solve ``L(p, q)`` on a diameter-<=2 graph through PARTITION INTO PATHS.

    ``method`` is ``"exact"`` (bitmask DP, certificate-checked) or
    ``"greedy"`` (upper bound).  Raises
    :class:`ReductionNotApplicableError` when ``spec`` is not 2-dimensional,
    the graph has diameter > 2, or ``p_max > 2 p_min``.

    The weight condition is genuinely required: Corollary 2's proof writes
    ``λ_p(G, π)`` as the path weight, i.e. it goes through Claim 1, which
    needs ``p_max <= 2 p_min``.  Empirically the formula is wrong without it
    (e.g. for ``L(5,1)`` on diameter-2 graphs the true span exceeds the
    formula on most instances — see the regression test).

    >>> from repro.graphs.generators import complete_graph
    >>> from repro.labeling.spec import L21
    >>> solve_lpq_diameter2(complete_graph(4), L21).span
    6
    """
    if spec.k != 2:
        raise ReductionNotApplicableError(
            f"Corollary 2 needs a 2-dimensional spec, got {spec}"
        )
    if not spec.reduction_applicable:
        raise ReductionNotApplicableError(
            f"Corollary 2 inherits Theorem 2's weight condition; {spec} has "
            f"p_max = {spec.pmax} > 2 p_min = {2 * spec.pmin}"
        )
    n = graph.n
    if n == 0:
        return Diameter2Result(Labeling(()), 0, 0, [], False, True)
    # one shared analysis: connectivity (single BFS), diameter, and the
    # reduction below all read the same oracle — one APSP for the pipeline
    analysis = get_analysis(graph)
    if not analysis.is_connected:
        raise ReductionNotApplicableError("Corollary 2 needs a connected graph")
    if n > 1 and analysis.diameter > 2:
        raise ReductionNotApplicableError("Corollary 2 needs diameter <= 2")

    p, q = spec.p
    on_complement = p > q
    target = complement(graph) if on_complement else graph

    if method == "exact":
        s, paths = partition_into_paths_exact(target)
        exact = True
    elif method == "greedy":
        s, paths = partition_into_paths_greedy(target)
        exact = False
    else:
        raise ReductionNotApplicableError(f"unknown method {method!r}")

    # permutation = concatenation of partition paths; its consecutive pairs
    # inside paths are target-edges (weight min(p,q)), between paths
    # target-non-edges (weight max(p,q)) — except a subtlety: consecutive
    # endpoints of *different* paths might happen to be target-adjacent,
    # which only improves the span.  The labeling is rebuilt by Claim 1 and
    # re-verified, so the reported span is always achieved.
    order = [v for path in paths for v in path]

    red = reduce_to_path_tsp(graph, spec)
    labeling = labeling_from_order(red, order)
    labeling.require_feasible(graph, spec, dist=red.distances)

    formula = span_from_path_count(n, p, q, s)
    span = labeling.span
    # the formula is the span of the concatenated order when no lucky
    # adjacency occurs between path endpoints; the realized span can only be
    # <= the formula value.
    assert span <= formula, (span, formula)
    return Diameter2Result(labeling, span, s, paths, on_complement, exact)



"""Theorem 4 and Corollary 3: ``L(1,...,1)`` via coloring of ``G^k``.

An ``L(1^k)``-labeling demands distinct labels for every pair within
distance ``k`` — exactly a proper coloring of the power graph ``G^k`` (with
span ``χ(G^k) - 1``, using colors ``0..χ-1`` as labels).  Theorem 4's FPT
route goes through the twin quotient of ``G^k`` (``nd(G^k) <= mw(G)`` by
Propositions 1–2); Corollary 3 then scales any ``L(1^k)`` labeling by
``p_max`` to get a ``p_max``-approximation for general ``L(p)``.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs.operations import graph_power
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec, all_ones
from repro.partition.coloring import (
    chromatic_number_via_twin_quotient,
    color_count,
    dsatur_coloring,
)


def l1_labeling_exact(graph: Graph, k: int) -> Labeling:
    """Optimal ``L(1,...,1)`` (k ones) labeling via exact coloring of ``G^k``.

    Uses the twin-quotient pipeline — the Theorem-4 algorithm.

    >>> from repro.graphs.generators import path_graph
    >>> l1_labeling_exact(path_graph(5), 2).span    # χ(P5^2)=3 -> span 2
    2
    """
    power = graph_power(graph, k) if graph.n else graph
    _, colors = chromatic_number_via_twin_quotient(power)
    labeling = Labeling(tuple(colors))
    labeling.require_feasible(graph, all_ones(k))
    return labeling


def l1_labeling_heuristic(graph: Graph, k: int) -> Labeling:
    """DSATUR on ``G^k`` — polynomial, no optimality guarantee."""
    power = graph_power(graph, k) if graph.n else graph
    colors = dsatur_coloring(power)
    # compact color ids to 0..t-1 so the span equals #colors - 1
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    labeling = Labeling(tuple(palette[c] for c in colors))
    labeling.require_feasible(graph, all_ones(k))
    return labeling


def pmax_approx_labeling(
    graph: Graph, spec: LpSpec, exact_coloring: bool = True
) -> Labeling:
    """Corollary 3: a ``p_max``-approximation for ``L(p)`` in one scaling.

    Take an ``L(1^k)`` labeling ``l1`` and return ``p_max * l1``: every pair
    within distance ``d <= k`` now has gap ``>= p_max >= p_d``, so the result
    is feasible for ``L(p)``; its span is ``p_max * span(l1)
    <= p_max * λ_1 <= p_max * λ_p`` (using ``λ_p >= λ_1``, since any
    ``L(p)``-labeling with ``p_d >= 1`` is an ``L(1^k)``-labeling).
    """
    if spec.pmin < 1:
        raise ReproError(
            "Corollary 3 scaling needs every p_d >= 1 "
            f"(got {spec}); zero entries make λ_1 incomparable"
        )
    base = (
        l1_labeling_exact(graph, spec.k)
        if exact_coloring
        else l1_labeling_heuristic(graph, spec.k)
    )
    scaled = Labeling(tuple(spec.pmax * x for x in base.labels))
    scaled.require_feasible(graph, spec)
    return scaled

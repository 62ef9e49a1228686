"""Greedy first-fit labeling — the cheap upper bound.

Processes vertices in a chosen order and gives each the smallest label
compatible with already-labeled vertices.  Used as the branch-and-bound
incumbent, as a baseline engine in the harness tables, and as the
"no-theory" comparison point for the TSP pipeline.
"""

from __future__ import annotations

from typing import Callable, Literal, Sequence

import numpy as np

from repro.errors import ReproError
from repro.graphs.analysis import GraphAnalysis, get_analysis
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.labeling.labeling import Labeling, requirement_matrix
from repro.labeling.spec import LpSpec

Order = Literal["degree", "bfs", "id", "random"]


def greedy_labeling(
    graph: Graph,
    spec: LpSpec,
    order: Order | Sequence[int] = "degree",
    seed: int | np.random.Generator | None = None,
) -> Labeling:
    """First-fit labeling along the given vertex order.

    ``order`` may be one of the named strategies or an explicit permutation.

    >>> from repro.graphs.generators import path_graph
    >>> from repro.labeling.spec import L21
    >>> greedy_labeling(path_graph(3), L21).is_feasible(path_graph(3), L21)
    True
    """
    n = graph.n
    if n == 0:
        return Labeling(())
    _, row_of = _requirement_rows(spec, get_analysis(graph))
    labels = _first_fit(n, _resolve_order(graph, order, seed), row_of)
    return Labeling(tuple(int(x) for x in labels))


def _requirement_rows(
    spec: LpSpec, analysis: GraphAnalysis
) -> tuple[np.ndarray | None, Callable[[int], np.ndarray]]:
    """``(req, row_of)``: the dense requirement matrix, or ``None``, and rows.

    Small graphs gather the matrix once; large ones fetch one requirement
    row per ``row_of(v)`` call through the blocked oracle, so first fit
    never holds ``O(n^2)`` memory.
    """
    req = (
        requirement_matrix(spec, analysis.distances)
        if analysis.dense_preferred
        else None
    )
    if req is not None:
        return req, req.__getitem__
    return None, lambda v: requirement_matrix(spec, analysis.row(v))


def _first_fit(
    n: int, order: Sequence[int], row_of: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Give each vertex of ``order`` the smallest compatible label.

    ``row_of(v)`` is ``v``'s requirement row.  Shared by
    :func:`greedy_labeling` and the approx tier's select pass.
    """
    labels = np.full(n, -1, dtype=np.int64)
    for v in order:
        rv = row_of(v)
        constraining = np.nonzero((rv > 0) & (labels >= 0))[0]
        x = 0
        while True:
            gaps = np.abs(labels[constraining] - x)
            bad = gaps < rv[constraining]
            if not bad.any():
                break
            # jump past the tightest blocking window instead of x += 1
            u = constraining[bad][0]
            x = int(labels[u] + rv[u])
        labels[v] = x
    return labels


def greedy_span(
    graph: Graph,
    spec: LpSpec,
    order: Order | Sequence[int] = "degree",
    seed: int | np.random.Generator | None = None,
) -> int:
    """Span of the first-fit labeling (see :func:`greedy_labeling`)."""
    return greedy_labeling(graph, spec, order=order, seed=seed).span


def best_greedy_labeling(
    graph: Graph, spec: LpSpec, restarts: int = 20, seed: int | None = 0
) -> Labeling:
    """Best of the named orders plus ``restarts`` random orders."""
    rng = np.random.default_rng(seed)
    best: Labeling | None = None
    for order in ("degree", "bfs", "id"):
        cand = greedy_labeling(graph, spec, order=order)  # type: ignore[arg-type]
        if best is None or cand.span < best.span:
            best = cand
    for _ in range(restarts):
        cand = greedy_labeling(graph, spec, order="random", seed=rng)
        if cand.span < best.span:  # type: ignore[union-attr]
            best = cand
    assert best is not None
    return best


def _resolve_order(
    graph: Graph,
    order: Order | Sequence[int],
    seed: int | np.random.Generator | None,
) -> list[int]:
    """Materialize a named strategy or explicit sequence into an order."""
    n = graph.n
    if not isinstance(order, str):
        perm = [int(v) for v in order]
        if sorted(perm) != list(range(n)):
            raise ReproError("explicit order is not a permutation of the vertices")
        return perm
    if order == "id":
        return list(range(n))
    if order == "degree":
        return sorted(range(n), key=lambda v: (-graph.degree(v), v))
    if order == "bfs":
        if n == 0:
            return []
        root = max(range(n), key=graph.degree)
        dist = bfs_distances(graph, root)
        far = int(dist.max()) + 1
        # unreachable vertices go last, otherwise by BFS layer then id
        return sorted(range(n), key=lambda v: (dist[v] if dist[v] >= 0 else far, v))
    if order == "random":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return rng.permutation(n).tolist()
    raise ReproError(f"unknown order strategy {order!r}")

"""Graph coloring: greedy, DSATUR, exact, and the twin-quotient route.

Theorem 4 turns ``L(1,...,1)``-labeling into COLORING of ``G^k`` and wins
tractability because ``nd(G^k) <= mw(G)``: after collapsing *false twins*
(same open neighbourhood — they may share a color) the instance shrinks to
roughly the twin-class scale.  ``chromatic_number_via_twin_quotient``
implements exactly that pipeline: dedup false twins, solve the reduced core
exactly, replay the colors.  It returns the same number as the direct exact
solver (asserted in tests) but touches far fewer vertices on low-diversity
graphs — the FPT effect the paper invokes, measured in experiment E8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InstanceTooLargeError
from repro.graphs.graph import Graph
from repro.graphs.operations import induced_subgraph
from repro.partition.neighborhood_diversity import equal_row_groups

#: Largest graph (or twin-quotient core) the exact coloring search accepts.
MAX_COLORING_N = 40


def greedy_coloring(graph: Graph, order: Sequence[int] | None = None) -> list[int]:
    """First-fit coloring along ``order`` (default: degree-descending)."""
    n = graph.n
    if order is None:
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    colors = [-1] * n
    for v in order:
        used = {colors[u] for u in graph.neighbors(v) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def dsatur_coloring(graph: Graph) -> list[int]:
    """DSATUR: color the most saturation-constrained vertex first."""
    n = graph.n
    colors = [-1] * n
    saturation: list[set[int]] = [set() for _ in range(n)]
    degrees = graph.degrees()
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(saturation[u]), degrees[u], -u),
        )
        c = 0
        while c in saturation[v]:
            c += 1
        colors[v] = c
        for u in graph.neighbors(v):
            saturation[u].add(c)
    return colors


def color_count(colors: Sequence[int]) -> int:
    """Number of distinct colors used."""
    return len(set(colors)) if colors else 0


def is_proper_coloring(graph: Graph, colors: Sequence[int]) -> bool:
    """True iff no edge is monochromatic and every vertex is colored."""
    if len(colors) != graph.n:
        return False
    return all(colors[u] != colors[v] for u, v in graph.edges())


def chromatic_number_exact(graph: Graph) -> tuple[int, list[int]]:
    """Exact ``χ(G)`` with a witness, by DSATUR-seeded branch and bound.

    Searches k-colorability downward from the DSATUR bound; within each
    budget, backtracking with symmetry breaking (a vertex may open at most
    one new color index).  Practical well past the sizes E8 uses.  Refuses
    graphs past :data:`MAX_COLORING_N` with
    :class:`~repro.errors.InstanceTooLargeError`.
    """
    n = graph.n
    if n == 0:
        return 0, []
    if n > MAX_COLORING_N:
        raise InstanceTooLargeError(
            f"exact coloring is capped at n={MAX_COLORING_N} (got n={n}); "
            "use dsatur_coloring for a heuristic bound"
        )
    if graph.m == 0:
        return 1, [0] * n

    best_colors = dsatur_coloring(graph)
    best_k = color_count(best_colors)
    clique = _greedy_clique(graph)
    lb = len(clique)

    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    adj = graph.adjacency_sets()

    while best_k > lb:
        target = best_k - 1
        attempt = _color_with_budget(n, order, adj, target)
        if attempt is None:
            break
        best_colors = attempt
        best_k = target
    return best_k, best_colors


def _color_with_budget(
    n: int, order: list[int], adj: list[frozenset[int]], budget: int
) -> list[int] | None:
    """Exact backtracking colouring within a colour budget (or None)."""
    colors = [-1] * n

    def dfs(i: int, used: int) -> bool:
        """Assign a colour to vertex ``i`` consistent with earlier choices."""
        if i == n:
            return True
        v = order[i]
        forbidden = {colors[u] for u in adj[v] if colors[u] >= 0}
        # existing colors first, then (symmetry breaking) at most one new one
        for c in range(min(used + 1, budget)):
            if c in forbidden:
                continue
            colors[v] = c
            if dfs(i + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return colors if dfs(0, 0) else None


def _greedy_clique(graph: Graph) -> list[int]:
    """A maximal clique grown greedily by degree (lower bound for χ)."""
    adj = graph.adjacency_sets()
    clique: list[int] = []
    candidates = set(range(graph.n))
    while candidates:
        v = max(candidates, key=lambda u: (len(adj[u] & candidates), -u))
        clique.append(v)
        candidates &= adj[v]
    return clique


def false_twin_quotient(graph: Graph) -> tuple[Graph, list[int], list[int]]:
    """Collapse false-twin groups (equal open neighbourhoods) to single vertices.

    Returns ``(core, representative, class_of)`` where ``core`` is the
    induced subgraph on one representative per group, ``representative[i]``
    is the original id of core vertex ``i``, and ``class_of[v]`` maps each
    original vertex to its core vertex.  False twins are non-adjacent and
    interchangeable for coloring, so ``χ(core) == χ(G)``.
    """
    groups = equal_row_groups(graph.adjacency_matrix())
    reps = [members[0] for members in groups]
    class_of = [0] * graph.n
    for i, members in enumerate(groups):
        for v in members:
            class_of[v] = i
    core = induced_subgraph(graph, reps)
    return core, reps, class_of


def chromatic_number_via_twin_quotient(graph: Graph) -> tuple[int, list[int]]:
    """Exact ``χ(G)`` through the false-twin quotient (the nd-FPT route).

    :data:`MAX_COLORING_N` caps the quotient core, not ``G``.

    >>> from repro.graphs.generators import complete_bipartite_graph
    >>> chromatic_number_via_twin_quotient(complete_bipartite_graph(10, 12))[0]
    2
    """
    if graph.n == 0:
        return 0, []
    core, _reps, class_of = false_twin_quotient(graph)
    k, core_colors = chromatic_number_exact(core)
    colors = [core_colors[class_of[v]] for v in range(graph.n)]
    assert is_proper_coloring(graph, colors)
    return k, colors

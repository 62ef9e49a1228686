"""Neighborhood diversity ``nd(G)`` via twin classes.

Definition 2 of the paper: the minimum number of classes such that inside a
class every pair ``u, v`` has ``N(u) \\ {v} = N(v) \\ {u}``.  The relation
"``u`` and ``v`` are twins" (true twins: ``N[u] = N[v]``; false twins:
``N(u) = N(v)``) is an equivalence, and its classes realize the minimum, so
``nd`` is computable exactly by grouping equal adjacency rows.

Used by the Theorem-4 / Proposition-2 experiments:
``nd(G^k) <= nd(G^2) <= mw(G)`` for connected ``G`` and ``k >= 2``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph


def equal_row_groups(matrix: np.ndarray) -> list[list[int]]:
    """Group the rows of the boolean ``matrix`` by value.

    Returns the groups of row indices with identical rows, each sorted,
    ordered by smallest member.  On an adjacency matrix the groups are the
    false-twin classes (equal open neighbourhoods); on ``A | I`` they are
    the true-twin classes.  The one twin grouping of the package:
    :func:`twin_classes` and
    :func:`repro.partition.coloring.false_twin_quotient` both read it.
    """
    if matrix.shape[0] == 0:
        return []
    # one opaque key per row: sorting packed bytes is far cheaper than
    # np.unique(axis=0), which compares rows element by element
    packed = np.ascontiguousarray(np.packbits(matrix, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    groups: list[list[int]] = [[] for _ in distinct]
    for v, g in enumerate(inverse.tolist()):
        groups[g].append(v)
    groups.sort(key=lambda c: c[0])
    return groups


def twin_classes(graph: Graph) -> list[list[int]]:
    """The twin-equivalence classes, each sorted, ordered by smallest member.

    ``u ~ v`` iff ``N(u) \\ {v} == N(v) \\ {u}``, which holds exactly when
    ``u, v`` are false twins (equal open neighbourhoods) or true twins
    (equal closed neighbourhoods).  A vertex has a twin of at most one
    kind: false twins ``u, v`` and true twins ``u, w`` would force
    ``w in N(v)`` and ``v not in N[w]``.  So the classes are the false-twin
    groups with every true-twin group of size >= 2 merged in.

    >>> from repro.graphs.generators import complete_bipartite_graph
    >>> len(twin_classes(complete_bipartite_graph(3, 4)))
    2
    """
    adj = graph.adjacency_matrix()
    classes = {c[0]: c for c in equal_row_groups(adj)}
    for c in equal_row_groups(adj | np.eye(graph.n, dtype=bool)):
        if len(c) > 1:
            for v in c:
                del classes[v]  # a singleton false-twin group
            classes[c[0]] = c
    return sorted(classes.values())


def neighborhood_diversity(graph: Graph) -> int:
    """``nd(G)`` — the number of twin classes (0 for the empty graph)."""
    if graph.n == 0:
        return 0
    return len(twin_classes(graph))

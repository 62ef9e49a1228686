"""Modules, modular decomposition, and modular-width.

Definition 1 of the paper: ``mw(G) <= ℓ`` iff ``|V| <= ℓ`` or ``V``
partitions into at most ``ℓ`` modules whose induced subgraphs recurse.  The
minimum is attained on the modular decomposition tree: union and join nodes
can always be split into two modules (any sub-union of their children is a
module), while a *prime* node forces one child-module per part.  Hence

    ``mw(G) = max(2, max #children over prime nodes)``   (n >= 2)

We compute the decomposition on the boolean adjacency matrix: union and
join nodes come from :func:`repro.graphs.cotree.module_split` (components /
co-components by frontier expansion), prime nodes from a greedy scan of
smallest-containing-module closures, and every child recurses on its
submatrix.  Simple enough to trust and fast enough for reproduction scale —
the paper itself defers to Tedder et al. for the linear-time version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from repro.errors import GraphError
from repro.graphs.cotree import module_split
from repro.graphs.graph import Graph


def _splitters(adj: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Mask of the vertices outside ``mod`` that see some but not all of it."""
    seen = adj[:, mod].sum(axis=1)
    return (seen > 0) & (seen < mod.sum()) & ~mod


def _module_closures(adj: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """The smallest module containing each row of the mask matrix ``mods``.

    Every module containing a row contains its splitters, so absorbing all
    of them per round reaches the same (unique) fixed point as absorbing
    them one at a time.  Each round counts, for every row and vertex, the
    row's members the vertex sees (``mods @ adj.T``, a float BLAS product:
    the counts are small integers, exact in float64).
    """
    mods = mods.copy()
    a = adj.astype(np.float64)
    while True:
        seen = mods.astype(np.float64) @ a.T
        split = (seen > 0) & (seen < mods.sum(axis=1, keepdims=True)) & ~mods
        if not split.any():
            return mods
        mods |= split


def _mask(graph: Graph, vertices: Iterable[int]) -> np.ndarray:
    """Boolean vertex mask of ``vertices``, each checked to exist."""
    mask = np.zeros(graph.n, dtype=bool)
    for v in vertices:
        graph._check_vertex(v)
        mask[v] = True
    return mask


def is_module(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff every outside vertex sees all or none of ``vertices``."""
    mod = _mask(graph, vertices)
    return not _splitters(graph.adjacency_matrix(), mod).any()


def smallest_containing_module(graph: Graph, seed: Iterable[int]) -> set[int]:
    """The unique smallest module containing ``seed`` (closure by splitters).

    A vertex ``z`` outside the current set that sees *some but not all* of it
    must be absorbed; iterate to a fixed point.  Each round is ``O(n^2)``.
    """
    mod = _mask(graph, seed)
    if not mod.any():
        raise GraphError("seed must be non-empty")
    closure = _module_closures(graph.adjacency_matrix(), mod[None, :])[0]
    return set(np.flatnonzero(closure).tolist())


@dataclass
class MDNode:
    """A modular decomposition tree node.

    ``kind``: ``"leaf"`` (single vertex), ``"union"`` (disconnected),
    ``"join"`` (non-edge graph disconnected) or ``"prime"``.
    ``vertices`` are ids in the *original* graph.
    """

    kind: Literal["leaf", "union", "join", "prime"]
    vertices: tuple[int, ...]
    children: list["MDNode"] = field(default_factory=list)

    @property
    def width_contribution(self) -> int:
        """This node's contribution to the modular width (prime arity or 2)."""
        return len(self.children) if self.kind == "prime" else 2

    def iter_nodes(self) -> Iterable["MDNode"]:
        """Pre-order traversal of the decomposition tree."""
        yield self
        for c in self.children:
            yield from c.iter_nodes()


def modular_decomposition(graph: Graph) -> MDNode:
    """The modular decomposition tree (vertex ids preserved)."""
    if graph.n == 0:
        raise GraphError("cannot decompose the empty graph")
    return _decompose(graph.adjacency_matrix(), tuple(range(graph.n)))


def _decompose(adj: np.ndarray, ids: tuple[int, ...]) -> MDNode:
    """Decompose the induced subgraph ``adj``; ``ids[i]`` = original id."""
    if len(ids) == 1:
        return MDNode("leaf", ids)
    kind, parts = module_split(adj)
    if kind == "prime":
        parts = _prime_blocks(adj)
    children = [
        _decompose(adj[np.ix_(p, p)], tuple(ids[v] for v in p)) for p in parts
    ]
    return MDNode(kind, ids, children)


def _prime_blocks(adj: np.ndarray) -> list[np.ndarray]:
    """The children of a prime node: its maximal proper strong modules.

    For a prime root these are the classes of the relation "smallest module
    containing ``{u, v}`` is proper"; we build them greedily per vertex:
    the block of ``u`` is the union of the proper closures of ``{u, v}``
    over the unassigned ``v``, all closed at once (a union of overlapping
    modules is a module).
    """
    n = adj.shape[0]
    assigned = np.zeros(n, dtype=bool)
    blocks: list[np.ndarray] = []
    for u in range(n):
        if assigned[u]:
            continue
        others = np.flatnonzero(~assigned)
        others = others[others != u]
        pairs = np.zeros((len(others), n), dtype=bool)
        pairs[:, u] = True
        pairs[np.arange(len(others)), others] = True
        closures = _module_closures(adj, pairs)
        block = closures[~closures.all(axis=1)].any(axis=0)
        block[u] = True
        block = _module_closures(adj, block[None, :])[0]
        if block.all():
            block = np.zeros(n, dtype=bool)  # u is in no proper module but {u}
            block[u] = True
        assigned |= block
        blocks.append(np.flatnonzero(block))
    return blocks


def modular_width(graph: Graph) -> int:
    """``mw(G)`` per the paper's Definition 1 (minimum ℓ >= 2).

    >>> from repro.graphs.generators import path_graph, complete_graph
    >>> modular_width(complete_graph(5))   # cograph
    2
    >>> modular_width(path_graph(4))       # P4 is prime
    4
    """
    if graph.n <= 2:
        return 2
    tree = modular_decomposition(graph)
    return max(
        (node.width_contribution for node in tree.iter_nodes() if node.children),
        default=2,
    )

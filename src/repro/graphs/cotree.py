"""Cotrees and cographs.

Cographs (graphs of clique-width at most 2, built from single vertices by
disjoint union and join) show up in the paper as a tractable class for
``L(2,1)``-labeling and as the base case of modular decomposition.  We model
them with explicit cotrees so that workloads can generate cographs with known
structure and tests can verify modular-width behaviour (a non-trivial cograph
has modular-width 2 by convention ``mw <= 2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union, join
from repro.graphs.traversal import UNREACHABLE, distance_rows_dense


@dataclass(frozen=True)
class Cotree:
    """A cotree node: a leaf, or a union/join over children.

    ``kind`` is ``"leaf"``, ``"union"`` or ``"join"``.  Leaves carry no
    children; internal nodes need at least two.
    """

    kind: Literal["leaf", "union", "join"]
    children: tuple["Cotree", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        """Validate the leaf/internal shape invariants."""
        if self.kind == "leaf":
            if self.children:
                raise GraphError("cotree leaf cannot have children")
        else:
            if len(self.children) < 2:
                raise GraphError(f"cotree {self.kind} node needs >= 2 children")

    @property
    def n_leaves(self) -> int:
        """Number of leaves (= vertices of the represented cograph)."""
        if self.kind == "leaf":
            return 1
        return sum(c.n_leaves for c in self.children)

    def to_graph(self) -> Graph:
        """Evaluate the cotree into the cograph it denotes."""
        if self.kind == "leaf":
            return Graph(1)
        graphs = [c.to_graph() for c in self.children]
        acc = graphs[0]
        for g in graphs[1:]:
            acc = disjoint_union(acc, g) if self.kind == "union" else join(acc, g)
        return acc


def leaf() -> Cotree:
    """A single-vertex cotree leaf."""
    return Cotree("leaf")


def union_node(*children: Cotree) -> Cotree:
    """A disjoint-union cotree node over the given children."""
    return Cotree("union", tuple(children))


def join_node(*children: Cotree) -> Cotree:
    """A join cotree node over the given children."""
    return Cotree("join", tuple(children))


def random_cotree(
    n_leaves: int, seed: int | np.random.Generator | None = None, join_bias: float = 0.6
) -> Cotree:
    """A random cotree with ``n_leaves`` leaves.

    ``join_bias`` is the probability an internal node is a join; biasing
    toward joins keeps the resulting cographs connected and small-diameter,
    which is the regime the paper's reduction targets.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n_leaves < 1:
        raise GraphError("cotree needs at least one leaf")
    if n_leaves == 1:
        return leaf()
    # split leaves into 2..min(4, n) groups and recurse
    n_groups = int(rng.integers(2, min(4, n_leaves) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n_leaves), size=n_groups - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n_leaves]]))
    children = tuple(random_cotree(int(s), rng, join_bias) for s in sizes)
    kind = "join" if rng.random() < join_bias else "union"
    return Cotree(kind, children)


def random_cograph(
    n: int, seed: int | np.random.Generator | None = None, join_bias: float = 0.6
) -> Graph:
    """A random ``n``-vertex cograph (evaluated random cotree)."""
    return random_cotree(n, seed, join_bias).to_graph()


def random_connected_cograph(
    n: int, seed: int | np.random.Generator | None = None
) -> Graph:
    """A random connected cograph: force the root to be a join node."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n == 1:
        return Graph(1)
    split = int(rng.integers(1, n))
    left = random_cotree(split, rng)
    right = random_cotree(n - split, rng)
    return join_node(left, right).to_graph()


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components of a boolean adjacency matrix, as sorted index
    arrays ordered by smallest member: one frontier expansion each."""
    n = adj.shape[0]
    unseen = np.ones(n, dtype=bool)
    parts: list[np.ndarray] = []
    while unseen.any():
        seed = int(np.argmax(unseen))
        row = distance_rows_dense(adj, np.array([seed]), dtype=np.int32)[0]
        part = np.flatnonzero(row != UNREACHABLE)
        unseen[part] = False
        parts.append(part)
    return parts


def module_split(adj: np.ndarray) -> tuple[str, list[np.ndarray]]:
    """The top split of the modular decomposition of a graph on >= 2 vertices.

    ``adj`` is a boolean adjacency matrix.  Returns ``("union", components)``
    when the graph is disconnected, ``("join", co-components)`` when the
    graph of its non-edges is, and ``("prime", [])`` otherwise.  Parts are
    sorted local index arrays ordered by their smallest member.  The one
    union/join split of the package: :func:`is_cograph` and
    :func:`repro.partition.modular.modular_decomposition` recurse on it.
    """
    parts = _components(adj)
    if len(parts) > 1:
        return "union", parts
    co = ~adj
    np.fill_diagonal(co, False)
    parts = _components(co)
    if len(parts) > 1:
        return "join", parts
    return "prime", []


def is_cograph(graph: Graph) -> bool:
    """Cograph recognition: no induced ``P_4``.

    ``G`` is a cograph iff every induced subgraph on >= 2 vertices splits
    as a union or a join.  Recurses with :func:`module_split` on adjacency
    submatrices (no ``Graph`` is built) and stops at the first prime node.
    """
    stack = [graph.adjacency_matrix()]
    while stack:
        adj = stack.pop()
        if adj.shape[0] <= 2:
            continue
        kind, parts = module_split(adj)
        if kind == "prime":
            return False
        stack.extend(adj[np.ix_(p, p)] for p in parts)
    return True

"""Canonical forms for (graph, spec) cache keys.

The batch service must recognise that two requests are "the same problem"
even when their vertex numberings differ: L(p)-labeling is invariant under
relabeling, so isomorphic graphs with the same spec have the same span and
interchangeable labelings.  This module computes a canonical vertex order by
degree/distance colour refinement plus individualization, and derives a
stable hash from the *canonically reordered edge set*.

Soundness is structural, not heuristic: the key material is the full edge
set under the computed order, so two (graph, spec) pairs share a key **only
if the computed orders witness an isomorphism between them** (up to a
SHA-256 collision).  A weak tie-break can therefore only cause a missed
cache hit — it can never make the cache return a labeling for a different
graph.  Completeness (isomorphic inputs mapping to the same key) rests on
the refinement: distances are a much stronger invariant than adjacency
alone, and on the small-diameter instances this library targets the
refinement almost always discretizes after few individualization steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import attach_distances, get_analysis
from repro.graphs.graph import Graph
from repro.labeling.spec import LpSpec

#: Bump when the key derivation changes, so persisted caches self-invalidate.
KEY_VERSION = 1

#: Above this cell size, pivot candidates are not individually scored.  Cells
#: this large only survive distance refinement on genuinely symmetric
#: families (cliques, cycle rims, bipartition sides), where every member is
#: automorphic and any pivot yields the same certificate.
_SCORE_CAP = 16


@dataclass(frozen=True)
class CanonicalForm:
    """A graph's canonical certificate plus the order that produced it.

    ``position[v]`` is the canonical index of original vertex ``v``; two
    isomorphic graphs that canonicalize identically map onto the same
    canonical graph, so ``position`` converts labelings between them.
    """

    key: str                     # stable hex digest of (n, p, canonical edges)
    n: int
    position: tuple[int, ...]    # original vertex id -> canonical index
    edges: tuple[tuple[int, int], ...]   # edge set in canonical coordinates

    def to_canonical_labels(self, labels: tuple[int, ...]) -> tuple[int, ...]:
        """Re-index a labeling of the original graph by canonical position."""
        out = [0] * self.n
        for v, lab in enumerate(labels):
            out[self.position[v]] = lab
        return tuple(out)

    def from_canonical_labels(self, labels: tuple[int, ...]) -> tuple[int, ...]:
        """Pull a canonical-coordinate labeling back to original vertex ids."""
        return tuple(labels[self.position[v]] for v in range(self.n))


def canonical_form(graph: Graph, spec: LpSpec) -> CanonicalForm:
    """Canonical certificate for a ``(graph, spec)`` request.

    The refinement reads the graph's memoized oracle, so key computation
    and a subsequent solve of the same graph share a single APSP — and a
    graph whose oracle was seeded (a session's delta-repaired trial) pays
    none.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.graphs.operations import relabel
    >>> from repro.labeling.spec import L21
    >>> a = canonical_form(cycle_graph(5), L21)
    >>> b = canonical_form(relabel(cycle_graph(5), [3, 0, 4, 1, 2]), L21)
    >>> a.key == b.key
    True
    """
    order = canonical_order(graph)
    position = [0] * graph.n
    for idx, v in enumerate(order):
        position[v] = idx
    edges = tuple(sorted(
        (min(position[u], position[v]), max(position[u], position[v]))
        for u, v in graph.edges()
    ))
    material = "|".join(
        [
            f"v{KEY_VERSION}",
            f"n={graph.n}",
            f"p={','.join(map(str, spec.p))}",
            ";".join(f"{u},{v}" for u, v in edges),
        ]
    )
    key = hashlib.sha256(material.encode("ascii")).hexdigest()
    return CanonicalForm(
        key=key, n=graph.n, position=tuple(position), edges=edges
    )


def canonical_order(graph: Graph) -> tuple[int, ...]:
    """A relabeling-invariant vertex order (canonical index -> vertex id).

    Colour refinement over the distance matrix (shared through the analysis
    oracle), then repeated individualization of a canonically chosen vertex
    until the colouring is discrete.  Ties inside a colour class are broken
    by the refined colour histogram each candidate would induce — a
    relabeling-invariant score — so automorphic candidates (the common case
    for symmetric families) all yield the same final order up to
    automorphism.
    """
    n = graph.n
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    dist = get_analysis(graph).distances

    colors = _refine(dist, _initial_colors(graph, dist))
    while int(colors.max()) < n - 1:   # not yet discrete
        cell = _target_cell(colors)
        colors = _choose_pivot(dist, colors, cell)
    # discrete colouring: colour IS the canonical position
    order = [0] * n
    for v, c in enumerate(colors.tolist()):
        order[c] = v
    return tuple(order)


def canonical_instance(form: CanonicalForm, graph: Graph) -> Graph:
    """Materialize the canonical graph with its distance oracle pre-seeded.

    The canonical graph is the request graph relabeled by ``form.position``,
    so its distance matrix is exactly the request's matrix permuted:
    ``dist_c[position[u], position[v]] = dist[u, v]``.  Seeding the new
    graph's :class:`~repro.graphs.analysis.GraphAnalysis` with that
    permutation means a cache-miss solve in canonical coordinates computes
    **zero** additional APSP — the key derivation already paid for the one
    this graph version gets.
    """
    canonical = Graph(form.n, form.edges)
    dist = get_analysis(graph).distances
    position = np.asarray(form.position, dtype=np.intp)
    permuted = np.empty_like(dist)
    permuted[np.ix_(position, position)] = dist
    attach_distances(canonical, permuted)
    return canonical


# ---------------------------------------------------------------------------
# refinement machinery
# ---------------------------------------------------------------------------
def _initial_colors(graph: Graph, dist: np.ndarray) -> np.ndarray:
    """Seed colours from (degree, sorted distance profile) — both invariant."""
    profile = np.sort(dist, axis=1)
    sigs = [
        (graph.degree(v), profile[v].tobytes()) for v in range(graph.n)
    ]
    return _index_colors(sigs)


def _refine(dist: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Distance-profile colour refinement (1-WL over the distance matrix).

    A vertex's new colour is its old colour plus the multiset of
    ``(distance, colour)`` pairs over all vertices; iterate to a fixed
    point.  Never coarser, so at most ``n`` rounds.  Each round is a
    vectorized encode-and-sort: ``dist * (n+1) + colour`` packs the pair
    into one integer (colours are ``< n``; unreachable pairs pack to
    negative codes that cannot collide with reachable ones).
    """
    n = len(colors)
    while True:
        packed = dist * np.int64(n + 1) + colors[None, :]
        profile = np.sort(packed, axis=1)
        sigs = [
            (int(colors[v]), profile[v].tobytes()) for v in range(n)
        ]
        new = _index_colors(sigs)
        if np.array_equal(new, colors):
            return colors
        colors = new


def _index_colors(signatures: list) -> np.ndarray:
    """Replace arbitrary signatures by their rank in sorted order."""
    rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return np.fromiter(
        (rank[s] for s in signatures), dtype=np.int64, count=len(signatures)
    )


def _target_cell(colors: np.ndarray) -> list[int]:
    """The canonically chosen non-singleton colour class to split next.

    Smallest cell first (fewest candidates to score), lowest colour id as
    the tie-break; both criteria are functions of the invariant colouring.
    """
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors.tolist()):
        cells.setdefault(c, []).append(v)
    candidates = [(len(vs), c) for c, vs in cells.items() if len(vs) > 1]
    _, best = min(candidates)
    return cells[best]


def _individualize(colors: np.ndarray, pivot: int) -> np.ndarray:
    """Give ``pivot`` a fresh colour below its class, keeping ranks canonical."""
    sigs = [
        (int(c), 0 if v == pivot else 1) for v, c in enumerate(colors.tolist())
    ]
    return _index_colors(sigs)


def _choose_pivot(
    dist: np.ndarray, colors: np.ndarray, cell: list[int]
) -> np.ndarray:
    """Individualize the cell member whose refinement is canonically least.

    Returns the refined colouring for the chosen pivot (the scoring pass
    already computed it, so the caller never refines twice).  The score —
    the sorted colour histogram after individualize+refine — is invariant
    under relabeling, so isomorphic graphs agree on which *structural*
    vertex gets pivoted.  Vertices tying on the score are either automorphic
    images of each other (any choice produces the same certificate) or
    indistinguishable to the refinement (vanishingly rare on this library's
    families); we take the lowest id among them.  Cells above ``_SCORE_CAP``
    skip the scoring pass entirely — see the constant's note.
    """
    if len(cell) > _SCORE_CAP:
        return _refine(dist, _individualize(colors, cell[0]))
    best_refined = None
    best_score = None
    for v in cell:
        refined = _refine(dist, _individualize(colors, v))
        uniq, counts = np.unique(refined, return_counts=True)
        score = tuple(zip(uniq.tolist(), counts.tolist()))
        if best_score is None or score < best_score:
            best_score, best_refined = score, refined
    return best_refined

"""Delta-aware APSP repair: the kernels and the stateful engine.

Correctness rests on two classical facts about unweighted shortest paths:

1. *Insertion* of edge ``{u, v}`` can only shorten distances, and any
   strictly shorter path must cross the new edge, so
   ``d'(i, j) = min(d(i, j), d(i, u) + 1 + d(v, j), d(i, v) + 1 + d(u, j))``
   — one vectorized ``O(n^2)`` relaxation repairs the whole matrix.
2. *Deletion* of edge ``{u, v}`` can only lengthen distances, and a row
   ``i`` can change only if some shortest path from ``i`` used the edge,
   which forces ``|d(i, u) - d(i, v)| == 1`` (take ``j = v`` resp. ``u``
   in ``d(i, j) = d(i, u) + 1 + d(v, j)`` and apply the triangle
   inequality).  Rows outside that superset keep their old values; rows
   inside it are recomputed exactly by multi-source BFS on the mutated
   adjacency.

Both kernels are assert-equal to
:func:`repro.graphs.traversal.all_pairs_distances_reference` after every
delta in the property tests and ``benchmarks/bench_e13_dynamic_updates.py``.

The deletion repair degenerates when most rows are touched (small-diameter
graphs make ``|d(i,u) - d(i,v)| == 1`` common), so above
:data:`DELETE_FALLBACK_FRACTION` the engine abandons the repair and runs a
full APSP.  Every such abandonment — threshold, trimmed mutation window,
or replay desync — increments the process-wide counter behind
:func:`full_apsp_refresh_count`, the metric the perf baseline gates.
"""

from __future__ import annotations

import numpy as np

import repro.graphs.analysis as analysis_mod
from repro.graphs.analysis import (
    GraphAnalysis,
    attach_distances,
    get_analysis,
)
from repro.graphs.graph import Graph, Mutation
from repro.graphs.traversal import (
    UNREACHABLE,
    distance_rows_csr,
    distance_rows_dense,
)
from repro.obs.metrics import REGISTRY

#: Fraction of rows above which an edge-delete repair falls back to a full
#: APSP.  Touched rows cost one multi-source BFS level-sweep each, so a
#: repair touching nearly every row does the work of a full recompute plus
#: bookkeeping; below the threshold the partial sweep (which also skips
#: the adjacency-matrix rebuild the full kernel pays) wins.
DELETE_FALLBACK_FRACTION = 0.75

#: Registry counter of incremental repairs abandoned for a full APSP.
_FULL_REFRESHES = REGISTRY.counter("repro_full_apsp_refresh_total")
_FULL_REFRESHES.labels()  # materialize: the exposition shows 0, not nothing


def full_apsp_refresh_count() -> int:
    """How many times delta repair fell back to a full APSP in this process.

    The ``DYNAMIC`` perf leg records this per churn stream and the
    committed baseline gates it: the count may never rise.  Delegates to
    the ``repro_full_apsp_refresh_total`` registry counter, so the legacy
    call sites and the metrics exposition share one value.
    """
    return int(_FULL_REFRESHES.value)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def relax_insert(dist: np.ndarray, u: int, v: int) -> None:
    """Repair ``dist`` in place for the insertion of edge ``{u, v}``.

    Vectorized affected-pairs relaxation: with ``W`` the matrix under a
    finite infinity, the candidate through the new edge is
    ``W[:, u, None] + 1 + W[None, v, :]`` and its transpose covers the
    opposite orientation.  Exact for unweighted graphs, including inserts
    that merge two components.  Works in the matrix's own dtype (the
    blocked oracle hands out ``int16``), widening only the scratch array
    when ``2n + 1`` — the largest candidate sum — would overflow it.
    """
    n = dist.shape[0]
    inf = n  # any finite distance is <= n - 1
    work = dist.dtype
    if np.iinfo(work).max < 2 * n + 1:
        work = np.int32 if 2 * n + 1 <= np.iinfo(np.int32).max else np.int64
    w = dist.astype(work, copy=True)
    w[dist == UNREACHABLE] = inf
    du = w[:, u]
    dv = w[:, v]
    cand = du[:, None] + (dv[None, :] + 1)
    np.minimum(cand, cand.T, out=cand)  # d(i,v) + 1 + d(u,j) == cand.T[i,j]
    np.minimum(w, cand, out=w)
    # repaired values only shrink, so they fit back into the original dtype
    dist[...] = np.where(w >= inf, UNREACHABLE, w)


def affected_sources(dist: np.ndarray, u: int, v: int) -> np.ndarray:
    """Rows whose distances may change when edge ``{u, v}`` is deleted.

    Evaluated on the **pre-delete** matrix.  A shortest path from ``i``
    can use the edge only if ``|d(i, u) - d(i, v)| == 1`` (both finite);
    every other row is provably unchanged.
    """
    du = dist[:, u]
    dv = dist[:, v]
    reach = (du != UNREACHABLE) & (dv != UNREACHABLE)
    return np.nonzero(reach & (np.abs(du - dv) == 1))[0]


def distance_rows(
    adj: np.ndarray, sources: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """Exact BFS distance rows for ``sources`` over boolean adjacency ``adj``.

    Picks one of the two traversal kernels, crossing over at the analysis
    layer's ``DENSE_MATERIALIZE_LIMIT`` (read at call time).  Small graphs
    keep the dense expansion
    (:func:`~repro.graphs.traversal.distance_rows_dense`), whose fixed
    overhead is lower than any sparse bookkeeping at that size (measured
    ~7x at n = 48).  Larger graphs delegate to the sparse CSR frontier
    kernel (:func:`~repro.graphs.traversal.distance_rows_csr`) after one
    ``np.nonzero`` pass over the dense adjacency — frontier work is then
    proportional to the edges actually traversed, which is what keeps
    large-graph delete repairs off the ``O(k n^2)`` cliff.  Rows come back
    in ``dtype`` so the engine can repair a narrow matrix without widening
    it; on the CSR path a level that would overflow promotes to the next
    wider integer type.
    """
    n = adj.shape[0]
    if n <= analysis_mod.DENSE_MATERIALIZE_LIMIT:
        return distance_rows_dense(adj, sources, dtype=dtype)
    # np.nonzero walks row-major, so tails arrive grouped by head —
    # already a valid CSR indices array under the bincount indptr
    heads, tails = np.nonzero(adj)
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(heads, minlength=n)))
    ).astype(np.int64)
    return distance_rows_csr(
        indptr, tails.astype(np.int64), sources, n, dtype=dtype
    )


def _pad_vertex(dist: np.ndarray) -> np.ndarray:
    """Grow the matrix for one appended isolated vertex (dtype preserved)."""
    n = dist.shape[0]
    out = np.full((n + 1, n + 1), UNREACHABLE, dtype=dist.dtype)
    out[:n, :n] = dist
    out[n, n] = 0
    return out


# ---------------------------------------------------------------------------
# the stateful engine
# ---------------------------------------------------------------------------
class DeltaEngine:
    """Maintains ``(distances, adjacency)`` across a mutation stream.

    Built from a graph whose oracle is (or becomes) warm, then advanced by
    :meth:`refresh` to any same-lineage graph — the same instance mutated
    in place, or a ``copy()``-descendant whose version continuity the
    copied mutation log witnesses.  Keeping the boolean adjacency inside
    the engine makes edge updates ``O(1)`` and spares delete repairs the
    per-call adjacency rebuild that dominates the full kernel at small
    ``n``.

    >>> from repro.graphs.generators import cycle_graph
    >>> g = cycle_graph(5)
    >>> engine = DeltaEngine(g)
    >>> g.add_edge(0, 2)
    >>> int(engine.refresh(g)[0, 2])
    1
    """

    def __init__(self, graph: Graph) -> None:
        """Seed the engine from ``graph``'s memoized analysis."""
        self._seed(graph)

    def _seed(self, graph: Graph) -> None:
        """Take ``graph``'s current state, copying its oracle's matrix.

        Through the graph's memoized oracle: a matrix it already holds is
        reused, otherwise it runs the one APSP (dense, or assembled from
        int16 row blocks above the dense limit).
        """
        self.dist = np.array(get_analysis(graph).distances, copy=True)
        self.adj = graph.adjacency_matrix(dtype=np.bool_)
        self.m = graph.m
        self.version = graph.version
        self._lineage_mark = _record_suffix_at(graph, graph.version)

    @property
    def n(self) -> int:
        """Vertex count of the maintained distance matrix."""
        return self.dist.shape[0]

    # ------------------------------------------------------------------
    def refresh(self, graph: Graph) -> np.ndarray:
        """Advance to ``graph``'s current version; return the live matrix.

        Replays ``graph.mutations_since(self.version)`` through the delta
        kernels; any gap the log no longer covers, replay inconsistency,
        or over-threshold delete resyncs from a full APSP (counted by
        :func:`full_apsp_refresh_count`).  The returned array is **engine
        owned** and mutated by later refreshes — use :meth:`attach` (which
        copies) to install it as a graph's memoized oracle.
        """
        lineage_ok = (
            graph.n >= self.n and self._lineage_witnessed(graph)
        )
        if graph.version == self.version and graph.n == self.n and lineage_ok:
            return self.dist
        muts = graph.mutations_since(self.version)
        if muts is None or not lineage_ok or not self._replay(graph, muts):
            self._full_resync(graph)
        return self.dist

    def _lineage_witnessed(self, graph: Graph) -> bool:
        """Does ``graph``'s log agree with the engine's lineage mark?

        Version equality alone cannot distinguish two *divergent sibling
        copies* (the same ancestor mutated two different ways reaches the
        same version, ``n`` and ``m``), but their logs differ at the
        engine's version: a genuine descendant carries the exact records
        the engine last saw.  Comparing the newest
        :data:`_LINEAGE_SUFFIX` records at/below the engine's version is a
        **best-effort witness**, not proof — the refresh contract still
        requires same-lineage graphs; an unrelated graph whose retained
        log coincides on that whole suffix is not detected.
        """
        return _marks_agree(
            _record_suffix_at(graph, self.version), self._lineage_mark
        )

    def attach(self, graph: Graph) -> GraphAnalysis:
        """Install a copy of the maintained matrix as ``graph``'s oracle."""
        if graph.version != self.version or graph.n != self.n:
            raise ValueError(
                "DeltaEngine is not synced to this graph; call refresh first"
            )
        return attach_distances(graph, np.array(self.dist, copy=True))

    # ------------------------------------------------------------------
    def _replay(self, graph: Graph, muts: tuple[Mutation, ...]) -> bool:
        """Apply the mutation run; False means "resync from scratch".

        Per-op consistency against the engine's own adjacency (inserting
        an edge it already has, removing one it lacks, a non-appending
        vertex add) plus the final ``n``/``m`` cross-check catch most
        desyncs; the caller's :meth:`_lineage_witnessed` check covers the
        divergent-sibling case these cannot see.  None of this *proves*
        lineage — see the witness docstring.
        """
        for m in muts:
            if m.op == "add_edge":
                if not self._valid_pair(m.u, m.v) or self.adj[m.u, m.v]:
                    return False
                self.adj[m.u, m.v] = self.adj[m.v, m.u] = True
                self.m += 1
                relax_insert(self.dist, m.u, m.v)
            elif m.op == "remove_edge":
                if not self._valid_pair(m.u, m.v) or not self.adj[m.u, m.v]:
                    return False
                touched = affected_sources(self.dist, m.u, m.v)
                self.adj[m.u, m.v] = self.adj[m.v, m.u] = False
                self.m -= 1
                if len(touched) > DELETE_FALLBACK_FRACTION * self.n:
                    return False  # repair would cost ~a full APSP anyway
                rows = distance_rows(self.adj, touched, dtype=self.dist.dtype)
                if rows.dtype != self.dist.dtype:
                    self.dist = self.dist.astype(rows.dtype)
                self.dist[touched, :] = rows
                self.dist[:, touched] = rows.T
            elif m.op == "add_vertex":
                if m.u != self.n:
                    return False
                self.dist = _pad_vertex(self.dist)
                self.adj = np.pad(self.adj, ((0, 1), (0, 1)))
            else:
                return False
            self.version = m.version
            self._lineage_mark = (*self._lineage_mark[1 - _LINEAGE_SUFFIX:], m)
        return (
            self.version == graph.version
            and self.n == graph.n
            and self.m == graph.m
        )

    def _valid_pair(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is a distinct in-range vertex pair."""
        return 0 <= u < self.n and 0 <= v < self.n and u != v

    def _full_resync(self, graph: Graph) -> None:
        """Abandon incremental repair: rebuild state from the graph (counted)."""
        _FULL_REFRESHES.inc()
        self._seed(graph)


#: How many trailing mutation records the lineage witness compares.  One
#: record already separates divergent sibling copies (their last mutations
#: differ by construction); a longer suffix makes a *coincidental* match
#: with an unrelated graph's log practically impossible while staying O(1)
#: per refresh.
_LINEAGE_SUFFIX = 4


def _record_suffix_at(graph: Graph, version: int) -> tuple[Mutation, ...]:
    """The newest (up to ``_LINEAGE_SUFFIX``) records with version <= ``version``.

    Empty when no such record is retained — either the graph was never
    mutated (version 0) or the window has been trimmed past ``version``.
    """
    out: list[Mutation] = []
    for m in reversed(graph._mutation_log):
        if m.version <= version:
            out.append(m)
            if len(out) == _LINEAGE_SUFFIX:
                break
    return tuple(reversed(out))


def _marks_agree(a: tuple[Mutation, ...], b: tuple[Mutation, ...]) -> bool:
    """Do two lineage marks agree on their overlapping suffix?

    The sides may retain different depths (a capped log trims oldest
    records first), so only the common tail is compared.  One empty side
    against a non-empty one cannot witness anything and is rejected; both
    empty (never-mutated graphs, necessarily edgeless) is accepted.
    """
    if not a or not b:
        return a == b
    k = min(len(a), len(b))
    return a[-k:] == b[-k:]

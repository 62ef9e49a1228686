"""Undirected simple graph on vertices ``0 .. n-1``.

The class is a thin, fast adjacency-set structure.  Vertices are always the
integers ``0..n-1``; generators and operations preserve this convention so
that distance matrices, DP tables and permutations can be plain NumPy arrays
indexed by vertex id (the hot paths in this library are all array-shaped).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.errors import GraphError

#: How many :class:`Mutation` records a graph retains.  The dynamic layer's
#: ``DeltaEngine`` only ever replays short gaps — one mutate-and-resolve
#: step, or a handful of edits on a session trial copy — so a bounded
#: window keeps edge-by-edge construction of large graphs O(1) extra
#: memory.  When a requested gap falls off the window,
#: :meth:`Graph.mutations_since` returns ``None`` and callers fall back to
#: a full recompute.
MUTATION_LOG_CAPACITY = 512


class Mutation(NamedTuple):
    """One structural change, recorded in :attr:`Graph.mutation_log`.

    ``version`` is the graph version *after* the change (versions bump by
    exactly one per mutation, so consecutive records have consecutive
    versions).  For ``add_vertex`` records, ``u`` is the new vertex id and
    ``v`` is ``-1``.
    """

    version: int
    op: str          # "add_edge" | "remove_edge" | "add_vertex"
    u: int
    v: int


class Graph:
    """An undirected simple graph with integer vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected;
        duplicate edges are silently coalesced (the structure is a simple
        graph).

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.n, g.m
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "_n",
        "_adj",
        "_m",
        "_version",
        "_analysis",
        "_mutation_log",
        "_eu",
        "_ev",
        "_csr",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        """Build a graph on ``n`` vertices with an optional edge iterable."""
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        self._adj: list[set[int]] = [set() for _ in range(self._n)]
        self._m = 0
        self._version = 0
        self._analysis = None     # memoized GraphAnalysis (see graphs.analysis)
        self._mutation_log: deque[Mutation] = deque(maxlen=MUTATION_LOG_CAPACITY)
        # numpy edge arrays: slot i holds edge (eu[i], ev[i]) with eu < ev.
        # Capacity-doubled on append; only the first _m slots are live.  The
        # CSR form is derived from these (never from the python sets), so
        # the array-shaped hot paths — adjacency matrices, frontier
        # expansion, degree stats — stay off python dict iteration.
        self._eu = np.empty(8, dtype=np.int32)
        self._ev = np.empty(8, dtype=np.int32)
        self._csr: tuple[int, np.ndarray, np.ndarray] | None = None
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph whose vertex count is ``1 + max vertex id`` seen.

        >>> Graph.from_edges([(0, 2)]).n
        3
        """
        edge_list = [(int(u), int(v)) for u, v in edges]
        n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list)

    @classmethod
    def from_adjacency_matrix(cls, matrix: np.ndarray) -> "Graph":
        """Build a graph from a square boolean/0-1 adjacency matrix."""
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency matrix must be symmetric")
        if np.any(np.diagonal(a)):
            raise GraphError("adjacency matrix must have zero diagonal")
        us, vs = np.nonzero(np.triu(a, k=1))
        return cls(a.shape[0], zip(us.tolist(), vs.tolist()))

    def copy(self) -> "Graph":
        """A deep, independent copy of the graph.

        The copy carries over :attr:`version` and the mutation log (it is
        the same structural snapshot), but starts with a **cold** analysis
        oracle — memoization is per instance.  Version continuity is what
        lets the dynamic layer's ``DeltaEngine`` repair an ancestor's
        distance matrix across a copy-then-mutate step.
        """
        g = Graph(self._n)
        g._adj = [set(s) for s in self._adj]
        g._m = self._m
        g._version = self._version
        g._mutation_log = self._mutation_log.copy()
        g._eu = self._eu[: self._m].copy()
        g._ev = self._ev[: self._m].copy()
        return g

    # ------------------------------------------------------------------
    # mutation (builder phase)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; duplicates are no-ops, loops are errors."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            a, b = (u, v) if u < v else (v, u)
            if self._m == len(self._eu):
                cap = max(8, 2 * len(self._eu))
                self._eu = np.resize(self._eu, cap)
                self._ev = np.resize(self._ev, cap)
            self._eu[self._m] = a
            self._ev[self._m] = b
            self._m += 1
            self._version += 1
            self._mutation_log.append(Mutation(self._version, "add_edge", a, b))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``; raises if it is absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        a, b = (u, v) if u < v else (v, u)
        m = self._m
        pos = int(np.nonzero((self._eu[:m] == a) & (self._ev[:m] == b))[0][0])
        # swap-delete: edge-array slot order carries no meaning
        self._eu[pos] = self._eu[m - 1]
        self._ev[pos] = self._ev[m - 1]
        self._m = m - 1
        self._version += 1
        self._mutation_log.append(Mutation(self._version, "remove_edge", a, b))

    def add_vertex(self) -> int:
        """Append an isolated vertex and return its id."""
        self._adj.append(set())
        self._n += 1
        self._version += 1
        self._mutation_log.append(
            Mutation(self._version, "add_vertex", self._n - 1, -1)
        )
        return self._n - 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every structural change.

        :func:`repro.graphs.analysis.get_analysis` memoizes derived data
        (APSP, eccentricities, components) against this counter, so a stale
        analysis can never be served after an ``add_edge``/``remove_edge``.
        """
        return self._version

    @property
    def mutation_log(self) -> tuple[Mutation, ...]:
        """The retained window of structural changes, oldest first.

        Bounded by :data:`MUTATION_LOG_CAPACITY`; each record's ``version``
        is the graph version *after* that change.  The dynamic layer keys
        incremental distance-matrix repair to this log.
        """
        return tuple(self._mutation_log)

    def mutations_since(self, version: int) -> tuple[Mutation, ...] | None:
        """Every mutation after ``version``, or ``None`` if out of window.

        Returns the (possibly empty) run of records with
        ``record.version > version`` when the log still covers the whole
        gap ``version+1 .. self.version``; returns ``None`` when the
        oldest needed record has been trimmed (callers must then fall back
        to a full recompute) or when ``version`` is ahead of this graph.

        >>> g = Graph(3)
        >>> v0 = g.version
        >>> g.add_edge(0, 1); g.add_edge(1, 2)
        >>> [m.op for m in g.mutations_since(v0)]
        ['add_edge', 'add_edge']
        """
        if version > self._version:
            return None
        gap = self._version - version
        if gap == 0:
            return ()
        log = self._mutation_log
        # records are consecutive (every bump is logged), so the window
        # covers the gap iff it holds at least `gap` records
        if gap > len(log):
            return None
        if gap == 1:  # the mutate-and-resolve hot path
            return (log[-1],)
        return tuple(itertools.islice(log, len(log) - gap, None))

    def vertices(self) -> range:
        """The vertex ids ``0..n-1``."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        """The open neighbourhood ``N(v)`` as an immutable set."""
        self._check_vertex(v)
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        """Degree of every vertex, indexed by vertex id."""
        m = self._m
        counts = np.bincount(self._eu[:m], minlength=self._n)
        counts += np.bincount(self._ev[:m], minlength=self._n)
        return counts.tolist()

    def max_degree(self) -> int:
        """The maximum degree Δ (0 for the empty graph)."""
        return max((len(s) for s in self._adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The live edge slots as two read-only ``int32`` arrays.

        Slot ``i`` holds edge ``(eu[i], ev[i])`` with ``eu[i] < ev[i]``;
        slot order is arbitrary (removals swap-delete).  The views alias
        the graph's internal storage — treat them as a snapshot valid only
        until the next mutation.
        """
        eu = self._eu[: self._m]
        ev = self._ev[: self._m]
        eu.flags.writeable = False
        ev.flags.writeable = False
        return eu, ev

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)``, cached per graph version.

        ``indices[indptr[v]:indptr[v + 1]]`` is the sorted neighbourhood of
        ``v``.  Built vectorized from the edge arrays (bincount + lexsort),
        so no python-level adjacency iteration happens on the hot path; the
        cache key is :attr:`version`, so a mutation can never serve a stale
        structure.  Both arrays are read-only ``int64``.
        """
        cached = self._csr
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        m = self._m
        heads = np.concatenate((self._eu[:m], self._ev[:m])).astype(np.int64)
        tails = np.concatenate((self._ev[:m], self._eu[:m])).astype(np.int64)
        deg = np.bincount(heads, minlength=self._n)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        order = np.lexsort((tails, heads))
        indices = tails[order]
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._csr = (self._version, indptr, indices)
        return indptr, indices

    def adjacency_matrix(self, dtype=np.bool_) -> np.ndarray:
        """Dense ``n x n`` adjacency matrix."""
        a = np.zeros((self._n, self._n), dtype=dtype)
        m = self._m
        if m:
            eu, ev = self._eu[:m], self._ev[:m]
            a[eu, ev] = 1
            a[ev, eu] = 1
        return a

    def adjacency_sets(self) -> list[frozenset[int]]:
        """Immutable snapshot of the adjacency structure."""
        return [frozenset(s) for s in self._adj]

    def density(self) -> float:
        """Edge density ``m / C(n, 2)`` (0.0 for graphs with < 2 vertices)."""
        if self._n < 2:
            return 0.0
        return 2.0 * self._m / (self._n * (self._n - 1))

    def is_complete(self) -> bool:
        """True iff every vertex pair is adjacent."""
        return self._m == self._n * (self._n - 1) // 2

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:  # content hash; graphs are small in practice
        """Content hash of the adjacency structure."""
        return hash((self._n, tuple(tuple(sorted(s)) for s in self._adj)))

    def __repr__(self) -> str:
        """Compact ``Graph(n=..., m=...)`` form."""
        return f"Graph(n={self._n}, m={self._m})"

    def __len__(self) -> int:
        """Vertex count."""
        return self._n

    def __contains__(self, v: int) -> bool:
        """Whether ``v`` is a valid vertex id."""
        return 0 <= v < self._n

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        """Raise :class:`GraphError` unless ``v`` is in range."""
        if not (0 <= v < self._n):
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

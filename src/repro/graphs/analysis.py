"""Per-graph memoized analysis oracle — one APSP per graph version.

Every layer of this library runs on derived data of the same graph: the
reduction needs the distance matrix, applicability checks need connectivity
and the diameter, verification re-reads distances, canonicalization refines
over them, ``graph_power`` gathers them.  Before this module each consumer
recomputed from scratch, so one end-to-end solve paid for APSP three to four
times.  :class:`GraphAnalysis` computes each quantity lazily, exactly once,
and :func:`get_analysis` memoizes the whole object on the graph instance,
invalidated by the :attr:`Graph.version` mutation counter — the shared
runtime-cache discipline the ROADMAP's scaling goal calls for.

The invariant exported to the rest of the codebase:

    **a graph's distance matrix is computed at most once per graph
    version within a process** (asserted in tests via
    :func:`repro.graphs.traversal.apsp_run_count`).

This module is the only place that decides how a graph gets its distances:
:func:`get_analysis` reads (or lazily builds) the memoized oracle and
:func:`attach_distances` seeds it with a matrix the caller already holds.
No layer above passes an analysis down a call chain — each consumer asks
the graph it was handed.

Cheap scalar facts (connectivity, degrees, components) are derived without
touching the APSP, so fail-fast paths — e.g. rejecting a disconnected graph
— never pay for the full matrix.

This module knows nothing of mutation streams: a mutated graph simply gets
a fresh analysis.  Repairing the matrix across mutations instead of
recomputing it is the job of the dynamic layer's ``DeltaEngine``, one layer
up, which installs its result here through :func:`attach_distances`.  The
``graphs`` package imports only itself, :mod:`repro.errors` and
:mod:`repro.obs`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    UNREACHABLE,
    all_pairs_distances,
    connected_components,
    distance_rows_csr,
    is_connected,
)
from repro.obs.metrics import REGISTRY, CounterSet

#: Largest ``n`` for which :attr:`GraphAnalysis.distances` runs the dense
#: ``int64`` APSP kernel directly.  Above it, row access goes through the
#: blocked :class:`LazyDistanceOracle` and a full matrix — if anyone still
#: asks for one — is assembled from ``int16`` row blocks (4x smaller).
#: Read at call time, so tests can monkeypatch it to force the blocked path
#: on small graphs.
DENSE_MATERIALIZE_LIMIT = 256

#: Rows per oracle block.  64 rows of ``int16`` at ``n = 2048`` is 256 KiB —
#: big enough to amortize the frontier-expansion setup, small enough that an
#: LRU budget holds many blocks.
DEFAULT_BLOCK_ROWS = 64

#: Default resident-bytes budget for one oracle's row-block LRU (32 MiB).
DEFAULT_ORACLE_BUDGET_BYTES = 32 * 2**20

#: Registry children behind every oracle's block counts.
_ORACLE_COUNTERS = {
    "hits": REGISTRY.counter("repro_oracle_block_hits_total").labels(),
    "misses": REGISTRY.counter("repro_oracle_block_misses_total").labels(),
    "evictions": REGISTRY.counter(
        "repro_oracle_block_evictions_total"
    ).labels(),
}
_ORACLE_PEAK = REGISTRY.gauge("repro_oracle_peak_bytes")
_ORACLE_PEAK.labels()


class LazyDistanceOracle:
    """Memory-bounded row-block LRU over one graph snapshot's distances.

    Rows are materialized on demand in blocks of :attr:`block_rows` by
    multi-source frontier expansion over the graph's CSR adjacency
    (:func:`~repro.graphs.traversal.distance_rows_csr`), stored as ``int16``
    (promoted when a level overflows), and held in an LRU bounded by
    :attr:`budget_bytes`.  Resident bytes never exceed the budget unless a
    single block is itself larger — the one block being served is never
    evicted.  All blocks are read-only; ``counters`` holds the block
    hits, misses and evictions, and the peak-resident-bytes high-water
    mark is mirrored to the ``repro_oracle_peak_bytes`` gauge.
    """

    __slots__ = (
        "analysis",
        "block_rows",
        "budget_bytes",
        "_blocks",
        "resident_bytes",
        "peak_bytes",
        "counters",
    )

    def __init__(
        self,
        analysis: "GraphAnalysis",
        block_rows: int | None = None,
        budget_bytes: int | None = None,
    ) -> None:
        """Bind to one analysis snapshot with the given block/budget knobs."""
        self.analysis = analysis
        self.block_rows = int(block_rows or DEFAULT_BLOCK_ROWS)
        self.budget_bytes = int(budget_bytes or DEFAULT_ORACLE_BUDGET_BYTES)
        self._blocks: OrderedDict[int, np.ndarray] = OrderedDict()
        self.resident_bytes = 0
        self.peak_bytes = 0
        self.counters = CounterSet(_ORACLE_COUNTERS)

    @property
    def block_count(self) -> int:
        """Number of row blocks covering the ``n`` rows."""
        return -(-self.analysis.n // self.block_rows)

    def block(self, b: int) -> np.ndarray:
        """Row block ``b`` (rows ``b*block_rows ..``), read-only, LRU-cached."""
        blk = self._blocks.get(b)
        if blk is not None:
            self._blocks.move_to_end(b)
            self.counters.add(hits=1)
            return blk
        self.counters.add(misses=1)
        a = self.analysis
        a._require_current()
        n = a.n
        lo = b * self.block_rows
        hi = min(n, lo + self.block_rows)
        indptr, indices = a.graph.csr_arrays()
        blk = distance_rows_csr(
            indptr, indices, np.arange(lo, hi, dtype=np.int64), n
        )
        blk.flags.writeable = False
        # make room first, so resident bytes stay under budget and the block
        # just materialized can never be the one evicted
        while self._blocks and self.resident_bytes + blk.nbytes > self.budget_bytes:
            _, old = self._blocks.popitem(last=False)
            self.resident_bytes -= old.nbytes
            self.counters.add(evictions=1)
        self._blocks[b] = blk
        self.resident_bytes += blk.nbytes
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes
            _ORACLE_PEAK.set(float(self.peak_bytes))
        return blk

    def row(self, v: int) -> np.ndarray:
        """Distance row of vertex ``v`` as a read-only view into its block."""
        b, off = divmod(v, self.block_rows)
        return self.block(b)[off]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` — a view when one block covers them, else a copy."""
        if not (0 <= lo <= hi <= self.analysis.n):
            raise ValueError(f"row range [{lo}, {hi}) out of bounds")
        if lo == hi:
            return np.empty((0, self.analysis.n), dtype=np.int16)
        b0 = lo // self.block_rows
        b1 = (hi - 1) // self.block_rows
        if b0 == b1:
            base = b0 * self.block_rows
            return self.block(b0)[lo - base : hi - base]
        parts = []
        for b in range(b0, b1 + 1):
            base = b * self.block_rows
            blk = self.block(b)
            parts.append(blk[max(lo - base, 0) : hi - base])
        return np.concatenate(parts, axis=0)

    def stats(self) -> dict:
        """Counters + knobs snapshot: hits, misses, evictions, bytes, rate."""
        counts = self.counters.snapshot()
        lookups = counts["hits"] + counts["misses"]
        return {
            "block_rows": self.block_rows,
            "budget_bytes": self.budget_bytes,
            "resident_bytes": self.resident_bytes,
            "peak_bytes": self.peak_bytes,
            "resident_blocks": len(self._blocks),
            **counts,
            "hit_rate": (counts["hits"] / lookups) if lookups else 0.0,
        }


class GraphAnalysis:
    """Lazily computed, immutable-by-convention facts about one graph.

    Snapshot semantics: the analysis is bound to ``graph.version`` at
    construction.  Mutating the graph afterwards does not corrupt the
    analysis — it keeps describing the old version — but
    :func:`get_analysis` will build a fresh one.  A snapshot never advances
    itself; mutation streams that want the matrix repaired rather than
    recomputed go through the dynamic layer's ``DeltaEngine``.

    Eagerly built (cheap, ``O(n + m)``): CSR adjacency arrays
    (``indptr``/``indices``, neighbour lists sorted), the degree vector and
    its aggregates.  Lazily built on first access: ``distances`` (the
    vectorized APSP), ``components``, ``eccentricities`` and the
    ``diameter``/``radius`` scalars.

    >>> from repro.graphs.generators import cycle_graph
    >>> a = get_analysis(cycle_graph(5))
    >>> a.diameter, a.radius, a.component_count
    (2, 2, 1)
    >>> a.distances[0].tolist()
    [0, 1, 2, 2, 1]
    """

    __slots__ = (
        "graph",
        "version",
        "n",
        "m",
        "degrees",
        "_indptr",
        "_indices",
        "_distances",
        "_components",
        "_connected",
        "_eccentricities",
        "_oracle",
    )

    def __init__(self, graph: Graph) -> None:
        """Bind to ``graph`` at its current version; all caches start lazy."""
        self.graph = graph
        self.version = graph.version
        self.n = graph.n
        self.m = graph.m
        eu, ev = graph.edge_arrays()
        self.degrees = np.bincount(eu, minlength=self.n).astype(
            np.int64
        ) + np.bincount(ev, minlength=self.n)
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        self._distances: np.ndarray | None = None
        self._components: list[list[int]] | None = None
        self._connected: bool | None = None
        self._eccentricities: np.ndarray | None = None
        self._oracle: LazyDistanceOracle | None = None

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def is_current(self) -> bool:
        """True while the underlying graph has not been mutated since."""
        return self.version == self.graph.version

    def _require_current(self) -> None:
        """Lazy computations must not read a graph that moved on.

        Cached values stay servable after a mutation (they still describe
        the snapshot version), but deriving *new* facts from the mutated
        adjacency would silently mix versions.
        """
        if not self.is_current():
            raise ValueError(
                "GraphAnalysis is stale: the graph was mutated after this "
                "analysis was built (use get_analysis for a fresh one)"
            )

    # ------------------------------------------------------------------
    # degree statistics (no traversal needed)
    # ------------------------------------------------------------------
    @property
    def max_degree(self) -> int:
        """Δ — the maximum degree (0 for the empty graph)."""
        return int(self.degrees.max()) if self.n else 0

    def degree_histogram(self) -> np.ndarray:
        """``h[d]`` = number of vertices of degree ``d``."""
        if self.n == 0:
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.degrees, minlength=self.max_degree + 1)

    # ------------------------------------------------------------------
    # CSR adjacency (lazy; only the stats paths read it)
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: ``indices[indptr[v]:indptr[v+1]]`` is ``N(v)``."""
        if self._indptr is None:
            self._indptr = np.concatenate(
                ([0], np.cumsum(self.degrees))
            ).astype(np.int64)
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices; each vertex's neighbour run is sorted."""
        if self._indices is None:
            self._require_current()
            self._indices = self.graph.csr_arrays()[1]
        return self._indices

    def neighbors_array(self, v: int) -> np.ndarray:
        """``N(v)`` as a sorted array view into the CSR ``indices``."""
        self.graph._check_vertex(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    # ------------------------------------------------------------------
    # connectivity (single BFS — never triggers the APSP)
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """One-component check from a single BFS (cached)."""
        if self._connected is None:
            if self._distances is not None:
                self._connected = bool(
                    np.all(self._distances != UNREACHABLE)
                )
            else:
                self._require_current()
                self._connected = is_connected(self.graph)
        return self._connected

    @property
    def components(self) -> list[list[int]]:
        """Connected components, each sorted, in order of smallest member."""
        if self._components is None:
            self._require_current()
            self._components = connected_components(self.graph)
            if self._connected is None:
                self._connected = len(self._components) <= 1
        return self._components

    @property
    def component_count(self) -> int:
        """Number of connected components."""
        return len(self.components)

    # ------------------------------------------------------------------
    # distances (the one-per-version APSP, blocked above the dense limit)
    # ------------------------------------------------------------------
    @property
    def distances(self) -> np.ndarray:
        """The full ``n x n`` distance matrix, computed on first access.

        At ``n <= DENSE_MATERIALIZE_LIMIT`` this is the dense ``int64``
        vectorized APSP, unchanged.  Above the limit the matrix is
        assembled from the lazy oracle's ``int16`` row blocks — 4x smaller,
        and any blocks already resident are reused rather than recomputed.
        Prefer :meth:`row` / :meth:`rows` / :meth:`iter_row_blocks` on
        large graphs; full materialization defeats the byte budget.
        """
        if self._distances is None:
            self._require_current()
            if self.n <= DENSE_MATERIALIZE_LIMIT:
                self._distances = all_pairs_distances(self.graph)
            else:
                self._distances = self._assemble_from_blocks()
        return self._distances

    def _assemble_from_blocks(self) -> np.ndarray:
        """Dense matrix from oracle row blocks (widening if any promoted)."""
        out = np.full((self.n, self.n), UNREACHABLE, dtype=np.int16)
        for lo, hi, blk in self.iter_row_blocks():
            if np.promote_types(out.dtype, blk.dtype) != out.dtype:
                out = out.astype(blk.dtype)
            out[lo:hi] = blk
        return out

    @property
    def dense_preferred(self) -> bool:
        """True when full-matrix access is the right call for this snapshot.

        Either a dense matrix already exists (computed, attached or
        adopted) or ``n`` is under :data:`DENSE_MATERIALIZE_LIMIT`.
        Consumers branch on this to pick whole-matrix vs row-block access.
        """
        return self._distances is not None or self.n <= DENSE_MATERIALIZE_LIMIT

    def _ensure_oracle(self) -> LazyDistanceOracle:
        """The snapshot's lazy oracle, created with defaults on first use."""
        if self._oracle is None:
            self._oracle = LazyDistanceOracle(self)
        return self._oracle

    def configure_oracle(
        self,
        block_rows: int | None = None,
        budget_bytes: int | None = None,
    ) -> LazyDistanceOracle:
        """Install a fresh oracle with explicit knobs (drops cached blocks).

        Tuning belongs before the first row access; reconfiguring later
        only costs re-materialization of whatever was resident.
        """
        self._oracle = LazyDistanceOracle(
            self, block_rows=block_rows, budget_bytes=budget_bytes
        )
        return self._oracle

    def row(self, v: int) -> np.ndarray:
        """Distance row of vertex ``v`` without materializing the matrix.

        Serves a view of the dense matrix when one exists (or when ``n``
        is under the dense limit); otherwise a read-only view into the
        oracle's LRU-resident row block.
        """
        self.graph._check_vertex(v)
        if self.dense_preferred:
            return self.distances[v]
        return self._ensure_oracle().row(v)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Distance rows ``lo:hi`` (view when possible, else a copy)."""
        if self.dense_preferred:
            if not (0 <= lo <= hi <= self.n):
                raise ValueError(f"row range [{lo}, {hi}) out of bounds")
            return self.distances[lo:hi]
        return self._ensure_oracle().rows(lo, hi)

    def iter_row_blocks(self):
        """Yield ``(lo, hi, block)`` row slices covering the whole matrix.

        The streaming substrate for whole-matrix consumers (requirement
        matrices, eccentricities, edge-weight gathers): one block is
        resident at a time on large graphs, while small or already-dense
        analyses yield the full matrix as a single pseudo-block — callers
        need no dense/blocked case split.
        """
        if self.dense_preferred:
            yield 0, self.n, self.distances
            return
        oracle = self._ensure_oracle()
        for b in range(oracle.block_count):
            lo = b * oracle.block_rows
            hi = min(self.n, lo + oracle.block_rows)
            yield lo, hi, oracle.block(b)

    def oracle_stats(self) -> dict:
        """The lazy oracle's counters (zeros if no oracle was ever needed)."""
        if self._oracle is None:
            return LazyDistanceOracle(self).stats()
        return self._oracle.stats()

    @property
    def eccentricities(self) -> np.ndarray:
        """Per-vertex eccentricity vector; raises when disconnected.

        The connectivity pre-check is a single BFS, so disconnected input
        fails before any APSP is spent.  On large graphs without a dense
        matrix the maxima are streamed per row block — ``O(block)`` extra
        memory, never ``O(n^2)``.
        """
        if self._eccentricities is None:
            if not self.is_connected:
                raise DisconnectedGraphError(
                    "eccentricity undefined: graph is disconnected"
                )
            if self.n == 0:
                self._eccentricities = np.zeros(0, dtype=np.int64)
            elif self.dense_preferred:
                self._eccentricities = self.distances.max(axis=1).astype(
                    np.int64
                )
            else:
                ecc = np.empty(self.n, dtype=np.int64)
                for lo, hi, blk in self.iter_row_blocks():
                    ecc[lo:hi] = blk.max(axis=1)
                self._eccentricities = ecc
        return self._eccentricities

    @property
    def diameter(self) -> int:
        """``max_v ecc(v)``; 0 for at most one vertex, raises if disconnected."""
        if self.n <= 1:
            return 0
        return int(self.eccentricities.max())

    @property
    def radius(self) -> int:
        """``min_v ecc(v)``; 0 for at most one vertex, raises if disconnected."""
        if self.n <= 1:
            return 0
        return int(self.eccentricities.min())


def get_analysis(graph: Graph) -> GraphAnalysis:
    """The memoized :class:`GraphAnalysis` for the graph's current version.

    Returns the cached instance while the graph is unmutated; builds (and
    caches) a fresh one after any ``add_edge``/``remove_edge``/``add_vertex``.

    >>> from repro.graphs.generators import path_graph
    >>> g = path_graph(4)
    >>> get_analysis(g) is get_analysis(g)
    True
    >>> a = get_analysis(g); g.add_edge(0, 3)
    >>> get_analysis(g) is a
    False
    """
    cached = graph._analysis
    if cached is not None and cached.version == graph.version:
        return cached
    analysis = GraphAnalysis(graph)
    graph._analysis = analysis
    return analysis


def attach_distances(graph: Graph, distances: np.ndarray) -> GraphAnalysis:
    """Seed the graph's oracle with an externally derived distance matrix.

    For callers that *already know* the matrix — the batch service, whose
    canonical graph's distances are a permutation of the request graph's;
    a pool worker, which receives them over the pipe; the dynamic engine,
    which repairs them across a mutation — this installs it so downstream
    layers (reduction, verify) never recompute.  The caller vouches for
    correctness; shape is checked, content is trusted.
    """
    distances = np.asarray(distances)
    if distances.dtype.kind != "i":
        distances = distances.astype(np.int64)
    if distances.shape != (graph.n, graph.n):
        raise ValueError(
            f"distance matrix shape {distances.shape} does not match n={graph.n}"
        )
    analysis = GraphAnalysis(graph)
    analysis._distances = distances
    graph._analysis = analysis
    return analysis

"""The one solve recipe, and the request/response helpers.

:func:`solve_graph` is the one solve the service runs: the Theorem-2
pipeline (:func:`~repro.reduction.solver.solve_labeling`) or the degraded
one-pass solver (:func:`~repro.approx.approx_labeling`) on a graph already
in canonical vertex order
(:func:`~repro.service.canonical.canonical_instance`), packed as a cache
entry.  Labels come back in canonical coordinates, so
one cached answer serves every isomorphic request.  A pool worker runs the
same recipe through :func:`solve_buffers`, which first rebuilds the graph
from the canonical edges and distance matrix that crossed the pipe.

The front end that queues, dedups and caches those solves is
:class:`repro.service.server.ConcurrentLabelingService`; this module holds
the pieces it composes — the cache key (:func:`_composed_key`), the
translation back into a request's own vertex order (:func:`_answer`) — and
:func:`solve_record`, the single JSON serialization used by both the
``solve`` and ``batch`` CLI paths.
"""

from __future__ import annotations

import time

import numpy as np

from repro.approx import APPROX_ENGINE, approx_labeling
from repro.graphs.analysis import attach_distances
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling
from repro.service.cache import CachedSolve
from repro.service.canonical import CanonicalForm
from repro.service.protocol import SolveRequest, SolveResponse


def solve_graph(
    canonical: Graph, spec: LpSpec, engine: str, tier: str
) -> tuple[CachedSolve, float]:
    """Solve a canonical-order graph into a cache entry; ``(entry, seconds)``.

    ``tier="approx"`` runs the one-pass degraded solver and certifies its
    gap; anything else runs the exact pipeline with ``engine``.  A graph
    from :func:`~repro.service.canonical.canonical_instance` (or
    :func:`solve_buffers`) carries a pre-seeded distance oracle, so
    validation, reduction and verification add no APSP run to the one
    paid for the canonical key.
    """
    if tier == "approx":
        res = approx_labeling(canonical, spec)
        entry = CachedSolve(
            labels=res.labeling.labels,
            span=res.span,
            engine=APPROX_ENGINE,
            exact=False,
            gap=res.gap,
        )
        return entry, res.seconds
    t0 = time.perf_counter()
    result = solve_labeling(canonical, spec, engine=engine)
    seconds = time.perf_counter() - t0
    entry = CachedSolve(
        labels=result.labeling.labels,
        span=result.span,
        engine=result.engine,
        exact=result.exact,
    )
    return entry, seconds


def solve_buffers(
    edges: tuple[tuple[int, int], ...],
    distances: np.ndarray,
    p: tuple[int, ...],
    engine: str,
) -> tuple[CachedSolve, float]:
    """:func:`solve_graph`, exact tier, on a canonical graph rebuilt here.

    ``edges`` is a :class:`~repro.service.canonical.CanonicalForm`'s
    sorted edge set and ``distances`` its canonical graph's distance
    matrix; the graph is built from the edges and its oracle seeded with
    the matrix (:func:`~repro.graphs.analysis.attach_distances`), so no
    APSP runs here.  This is the function a :class:`~repro.parallel.pool.WorkerPool`
    worker runs, so only the edges, the matrix, the spec's ``p`` and the
    engine name cross the pipe.
    """
    graph = Graph(len(distances), edges)
    attach_distances(graph, distances)
    return solve_graph(graph, LpSpec(p), engine, "exact")


def _composed_key(form: CanonicalForm, req: SolveRequest, tier: str) -> str:
    """Cache key: canonical (graph, spec) hash plus the requested engine.

    The engine is part of the key because heuristic engines answer with
    different spans; a request for ``held_karp`` must never be served a
    cached ``two_opt`` labeling.  ``auto`` is deterministic in the canonical
    graph, so it composes consistently.  Approx-tier answers live under
    their own suffix for the same reason — an exact request must never be
    served a degraded labeling, nor the reverse (no engine is named
    ``approx``, so the suffix cannot collide).  ``tier`` is the answering
    tier the router picked, never ``auto``.
    """
    if tier == "approx":
        return f"{form.key}:approx"
    return f"{form.key}:{req.engine}"


def _answer(
    req: SolveRequest,
    form: CanonicalForm,
    key: str,
    entry: CachedSolve,
    cached: bool,
    seconds: float = 0.0,
) -> SolveResponse:
    """Translate a canonical-coordinate entry into the request's own order."""
    return SolveResponse(
        labeling=Labeling(form.from_canonical_labels(entry.labels)),
        span=entry.span,
        engine=entry.engine,
        exact=entry.exact,
        cached=cached,
        key=key,
        seconds=seconds,
        tag=req.tag,
        tier="approx" if entry.gap is not None else "exact",
        gap=entry.gap,
    )


def solve_record(
    result,
    graph: Graph | None = None,
    spec: LpSpec | None = None,
    include_labels: bool = False,
    tag: str | None = None,
) -> dict:
    """One solve as a JSON-ready dict — shared by ``solve`` and ``batch``.

    Accepts either a :class:`repro.reduction.solver.SolveResult` or a
    :class:`~repro.service.protocol.SolveResponse`; the optional ``graph``
    and ``spec`` add provenance fields.  An approx-tier response adds its
    ``tier`` and certified ``gap``, as it does on the wire.
    """
    seconds = getattr(result, "seconds", None)
    if seconds is None:
        seconds = result.reduce_seconds + result.solve_seconds
    record: dict = {
        "span": result.span,
        "engine": result.engine,
        "exact": result.exact,
        "cached": getattr(result, "cached", False),
        "seconds": round(seconds, 6),
    }
    if graph is not None:
        record["n"] = graph.n
        record["m"] = graph.m
    if spec is not None:
        record["p"] = list(spec.p)
    tag = tag if tag is not None else getattr(result, "tag", None)
    if tag is not None:
        record["tag"] = tag
    if getattr(result, "gap", None) is not None:  # an approx-tier answer
        record["tier"] = result.tier
        record["gap"] = result.gap
    if include_labels:
        record["labels"] = list(result.labeling.labels)
    return record

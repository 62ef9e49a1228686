"""The canonical-coordinate solve and the request/response helpers.

:func:`solve_canonical` is the one solve the service runs inline:
rebuild the request's graph in canonical vertex order (reusing the APSP its
canonical form already computed), then run the Theorem-2 pipeline
(:func:`~repro.reduction.solver.solve_labeling`) or the degraded one-pass
solver (:func:`~repro.approx.approx_labeling`).  Labels come back in
canonical coordinates, so one cached answer serves every isomorphic
request.

The front end that queues, dedups and caches those solves is
:class:`repro.service.server.ConcurrentLabelingService`; this module holds
the pieces it composes — the cache key (:func:`_composed_key`), the
translation back into a request's own vertex order (:func:`_answer`) — and
:func:`solve_record`, the single JSON serialization used by both the
``solve`` and ``batch`` CLI paths.
"""

from __future__ import annotations

import time

from repro.approx import APPROX_ENGINE, approx_labeling
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling
from repro.service.cache import CachedSolve
from repro.service.canonical import CanonicalForm, canonical_instance
from repro.service.protocol import SolveRequest, SolveResponse


def solve_canonical(
    form: CanonicalForm, request: SolveRequest, tier: str
) -> tuple[CachedSolve, float]:
    """Solve one request in canonical coordinates; returns ``(entry, seconds)``.

    ``tier="approx"`` runs the one-pass degraded solver and certifies its
    gap; anything else runs the exact pipeline with the request's engine.
    The canonical graph's distance oracle is pre-seeded from the
    request's (:func:`canonical_instance`), so validation, reduction and
    verification add no APSP run to the one paid for the canonical key.
    """
    canonical = canonical_instance(form, request.graph)
    if tier == "approx":
        res = approx_labeling(canonical, request.spec)
        entry = CachedSolve(
            labels=res.labeling.labels,
            span=res.span,
            engine=APPROX_ENGINE,
            exact=False,
            gap=res.gap,
        )
        return entry, res.seconds
    t0 = time.perf_counter()
    result = solve_labeling(canonical, request.spec, engine=request.engine)
    seconds = time.perf_counter() - t0
    entry = CachedSolve(
        labels=result.labeling.labels,
        span=result.span,
        engine=result.engine,
        exact=result.exact,
    )
    return entry, seconds


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
    and ``spec`` add provenance fields.
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
    if include_labels:
        record["labels"] = list(result.labeling.labels)
    return record

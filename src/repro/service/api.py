"""The canonical-coordinate solve and the synchronous :class:`LabelingService`.

:func:`solve_canonical` is the one solve every service path runs inline:
rebuild the request's graph in canonical vertex order (reusing the APSP its
canonical form already computed), then run the Theorem-2 pipeline
(:func:`~repro.reduction.solver.solve_labeling`) or the degraded one-pass
solver (:func:`~repro.approx.approx_labeling`).  Labels come back in
canonical coordinates, so one cached answer serves every isomorphic
request.

:class:`LabelingService` is the call-and-wait facade over that solve and
one :class:`~repro.service.shard.ShardedResultCache`: the caller's thread
does the work, isomorphic requests are paid for once.  Everything that
solves repeatedly (``LabelingSession`` loops, sweep scripts) should route
through a shared service.  For a queued, multi-worker front end with
backpressure and in-flight dedup, use
:class:`repro.service.server.ConcurrentLabelingService`.  The module also
hosts :func:`solve_record`, the single JSON serialization used by both the
``solve`` and ``batch`` CLI paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.approx import APPROX_ENGINE, approx_labeling
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling
from repro.service.cache import CachedSolve, CacheStats
from repro.service.canonical import (
    CanonicalForm,
    canonical_form,
    canonical_instance,
)
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.shard import ShardedResultCache


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


def _resolved_tier(req: SolveRequest, tier: str | None = None) -> str:
    """The quality tier a non-routed path answers with.

    ``tier`` (the router's decision) wins when given; otherwise an explicit
    ``"approx"`` request is honoured and ``"auto"`` degrades to ``"exact"``
    — only a :class:`~repro.service.server.QosRouter` ever downgrades an
    ``auto`` request, never a plain service.
    """
    if tier is not None:
        return tier
    return "approx" if req.tier == "approx" else "exact"


def _composed_key(
    form: CanonicalForm, req: SolveRequest, tier: str | None = None
) -> str:
    """Cache key: canonical (graph, spec) hash plus the requested engine.

    The engine is part of the key because heuristic engines answer with
    different spans; a request for ``held_karp`` must never be served a
    cached ``two_opt`` labeling.  ``auto`` is deterministic in the canonical
    graph, so it composes consistently.  Approx-tier answers live under
    their own suffix for the same reason — an exact request must never be
    served a degraded labeling, nor the reverse (no engine is named
    ``approx``, so the suffix cannot collide).
    """
    if _resolved_tier(req, tier) == "approx":
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


@dataclass(frozen=True)
class BatchReport:
    """Aggregate accounting for one :meth:`LabelingService.submit_many` call."""

    total: int                   # requests in the batch
    unique: int                  # distinct canonical keys in the batch
    cache_hits: int              # served from cache warmed by earlier batches
    deduped: int                 # duplicates collapsed within this batch
    solved: int                  # requests actually sent to an engine
    wall_seconds: float
    engine_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without solving."""
        if self.total == 0:
            return 0.0
        return (self.cache_hits + self.deduped) / self.total

    @property
    def throughput(self) -> float:
        """Requests answered per second of wall time."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.total / self.wall_seconds

    def to_json(self) -> dict:
        """JSON counters (rates rounded) for reports and summaries."""
        return {
            "total": self.total,
            "unique": self.unique,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "solved": self.solved,
            "wall_seconds": round(self.wall_seconds, 6),
            "hit_rate": round(self.hit_rate, 4),
            "throughput": round(self.throughput, 2),
            "engine_seconds": {
                e: round(s, 6) for e, s in sorted(self.engine_seconds.items())
            },
        }


class LabelingService:
    """Synchronous facade over :func:`solve_canonical` and one result cache.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.graphs.operations import relabel
    >>> from repro.labeling.spec import L21
    >>> svc = LabelingService()
    >>> svc.submit(SolveRequest(cycle_graph(5), L21, engine="held_karp")).span
    4
    >>> svc.submit(SolveRequest(relabel(cycle_graph(5), [4, 2, 0, 3, 1]), L21,
    ...            engine="held_karp")).cached
    True
    """

    def __init__(
        self,
        cache_capacity: int = 4096,
        cache_path: str | Path | None = None,
    ) -> None:
        """Build the cache; an existing ``cache_path`` file warm-starts it."""
        self.cache = ShardedResultCache(capacity=cache_capacity, path=cache_path)

    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> SolveResponse:
        """Solve (or recall) one :class:`SolveRequest`.

        The request optionally carries a pre-computed
        :class:`~repro.graphs.analysis.GraphAnalysis` for its graph (a
        session's delta-repaired oracle), so the canonical cache key is
        derived without recomputing distances.
        """
        results, _report = self.submit_many([request])
        return results[0]

    def submit_many(
        self, requests: list[SolveRequest]
    ) -> tuple[list[SolveResponse], BatchReport]:
        """Answer every request, in request order, plus the batch's report.

        Each distinct canonical key is solved at most once: a key already
        in the cache is a hit, and a later request for a key this batch
        solved is a duplicate (answered through the cache, or from the
        batch's own answer if the entry was evicted meanwhile).
        """
        t0 = time.perf_counter()
        results: list[SolveResponse] = []
        solved: dict[str, CachedSolve] = {}   # key -> this batch's answer
        keys: set[str] = set()
        cache_hits = deduped = 0
        engine_seconds: dict[str, float] = {}
        for req in requests:
            form = canonical_form(req.graph, req.spec, analysis=req.analysis)
            key = _composed_key(form, req)
            keys.add(key)
            if key in solved:
                deduped += 1
                entry = self.cache.get(key) or solved[key]
                results.append(_answer(req, form, key, entry, cached=True))
                continue
            entry = self.cache.get(key)
            if entry is not None:
                cache_hits += 1
                results.append(_answer(req, form, key, entry, cached=True))
                continue
            entry, seconds = solve_canonical(form, req, _resolved_tier(req))
            self.cache.put(key, entry)
            solved[key] = entry
            engine_seconds[entry.engine] = (
                engine_seconds.get(entry.engine, 0.0) + seconds
            )
            results.append(
                _answer(req, form, key, entry, cached=False, seconds=seconds)
            )
        report = BatchReport(
            total=len(requests),
            unique=len(keys),
            cache_hits=cache_hits,
            deduped=deduped,
            solved=len(solved),
            wall_seconds=time.perf_counter() - t0,
            engine_seconds=engine_seconds,
        )
        return results, report

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The cache's lifetime counters."""
        return self.cache.stats

    def save_cache(self, path: str | Path | None = None) -> Path:
        """Persist the cache (see :meth:`ShardedResultCache.save`)."""
        return self.cache.save(path)


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

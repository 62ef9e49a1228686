"""The service protocol: one typed request/response pair, in-process and wire.

:class:`SolveRequest` and :class:`SolveResponse` are the *single* schema the
whole serving surface speaks.  In process,
:meth:`ConcurrentLabelingService.submit
<repro.service.server.ConcurrentLabelingService.submit>` accepts a
``SolveRequest`` and answers with a future of a ``SolveResponse``; on the
wire, the :mod:`repro.net` HTTP server speaks exactly
``SolveRequest.to_json()`` / ``SolveResponse.to_json()`` as its JSON
bodies.  Both directions are
lossless (``from_json(to_json(x))`` reconstructs an equal object), so a
request serialized by one client, replayed from a log, or round-tripped
through the NDJSON batch endpoint always means the same instance.

The only field that does not cross the wire is ``SolveRequest.analysis`` —
a pre-computed distance oracle is a same-process optimization; a remote
peer could neither serialize nor trust one.

Malformed wire payloads raise :class:`~repro.errors.RequestValidationError`,
which the error table in :mod:`repro.errors` maps to HTTP 400.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ReproError, RequestValidationError
from repro.graphs.analysis import GraphAnalysis
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.tsp.portfolio import ENGINES

#: The quality tiers a request may ask for (``auto`` defers to the router).
TIERS = frozenset({"exact", "approx", "auto"})


@dataclass(frozen=True)
class SolveRequest:
    """One labeling request — the unit the service accepts."""

    graph: Graph
    spec: LpSpec
    engine: str = "auto"
    tag: str | None = None       # caller's correlation id (file name, ...)
    #: Requested quality tier: ``"exact"`` forces the full engine pipeline,
    #: ``"approx"`` forces the one-pass degraded solver, ``"auto"`` lets
    #: the serving side's :class:`~repro.service.server.QosRouter` decide
    #: from current pressure and instance size.  Callers that need a
    #: reproducible exact answer (sessions, directory batches) say
    #: ``"exact"``.
    tier: str = "auto"
    #: Client latency budget in milliseconds; the serving side drops the
    #: request (HTTP 504, counted not errored) once the budget is spent
    #: before a solve starts.  ``None`` means no deadline.
    deadline_ms: int | None = None
    #: Optional pre-computed oracle for ``graph`` (e.g. a session's
    #: delta-repaired one); forwarded into canonicalization, where a stale
    #: or foreign analysis is rejected loudly.  Never serialized and never
    #: shipped to pool workers — only key derivation on this side reads it.
    analysis: GraphAnalysis | None = None

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The wire form: plain JSON-ready dict (``analysis`` excluded).

        >>> SolveRequest(Graph(2, [(0, 1)]), LpSpec((2,))).to_json()
        {'n': 2, 'edges': [[0, 1]], 'p': [2], 'engine': 'auto', 'tag': None, 'tier': 'auto', 'deadline_ms': None}
        """
        return {
            "n": self.graph.n,
            "edges": [[u, v] for u, v in sorted(self.graph.edges())],
            "p": list(self.spec.p),
            "engine": self.engine,
            "tag": self.tag,
            "tier": self.tier,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SolveRequest":
        """Parse (and validate) one wire payload back into a request.

        Raises :class:`RequestValidationError` — never ``KeyError`` or
        ``TypeError`` — on any malformed input, so the server can map every
        bad payload to a clean HTTP 400.
        """
        if not isinstance(payload, dict):
            raise RequestValidationError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "n", "edges", "p", "engine", "tag", "tier", "deadline_ms",
        }
        if unknown:
            raise RequestValidationError(
                f"unknown request fields: {sorted(unknown)}"
            )
        for field_name in ("n", "edges", "p"):
            if field_name not in payload:
                raise RequestValidationError(
                    f"request is missing required field {field_name!r}"
                )
        n = payload["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise RequestValidationError(f"'n' must be a non-negative int, got {n!r}")
        edges = payload["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            for e in edges
        ):
            raise RequestValidationError("'edges' must be a list of [u, v] int pairs")
        p = payload["p"]
        if (
            not isinstance(p, list)
            or not p
            or not all(
                isinstance(x, int) and not isinstance(x, bool) and x >= 1
                for x in p
            )
        ):
            raise RequestValidationError("'p' must be a non-empty list of ints >= 1")
        engine = payload.get("engine", "auto")
        if not isinstance(engine, str):
            raise RequestValidationError(f"'engine' must be a string, got {engine!r}")
        if engine != "auto" and engine not in ENGINES:
            raise RequestValidationError(
                f"unknown engine {engine!r}; known engines: auto, "
                f"{', '.join(ENGINES)}"
            )
        tag = payload.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise RequestValidationError(f"'tag' must be a string or null, got {tag!r}")
        tier = payload.get("tier", "auto")
        if tier not in TIERS:
            raise RequestValidationError(
                f"'tier' must be one of {sorted(TIERS)}, got {tier!r}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, int)
            or isinstance(deadline_ms, bool)
            or deadline_ms < 1
        ):
            raise RequestValidationError(
                f"'deadline_ms' must be a positive int or null, got {deadline_ms!r}"
            )
        try:
            graph = Graph(n, [(u, v) for u, v in edges])
            spec = LpSpec(tuple(p))
        except ReproError as exc:
            raise RequestValidationError(str(exc)) from exc
        return cls(
            graph=graph,
            spec=spec,
            engine=engine,
            tag=tag,
            tier=tier,
            deadline_ms=deadline_ms,
        )

    @classmethod
    def from_json_line(cls, line: str | bytes) -> "SolveRequest":
        """Parse one NDJSON line (the ``/batch`` stream unit)."""
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise RequestValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_json(payload)


@dataclass(frozen=True)
class SolveResponse:
    """The service's answer to one :class:`SolveRequest`.

    Unlike :class:`repro.reduction.solver.SolveResult` this carries no
    reduced instance or tour — cache hits never materialize them — but it
    keeps the fields mutate-and-resolve loops and reports consume, and it
    serializes losslessly for the wire.
    """

    labeling: Labeling
    span: int
    engine: str                  # resolved engine that produced the labeling
    exact: bool
    cached: bool                 # True when served from the cache
    key: str                     # canonical cache key of the request
    seconds: float               # solve wall time (0.0 for cache hits)
    tag: str | None = None
    #: Quality tier that actually answered (``"exact"`` or ``"approx"``) —
    #: the router's decision, not necessarily the tier requested.
    tier: str = "exact"
    #: Certified optimality gap (``span - lower_bound``) for approx-tier
    #: answers; ``None`` on the exact tier.
    gap: int | None = None

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The wire form: labels expanded to a plain list."""
        return {
            "labels": list(self.labeling.labels),
            "span": self.span,
            "engine": self.engine,
            "exact": self.exact,
            "cached": self.cached,
            "key": self.key,
            "seconds": self.seconds,
            "tag": self.tag,
            "tier": self.tier,
            "gap": self.gap,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SolveResponse":
        """Reconstruct a response from its wire form (lossless inverse)."""
        if not isinstance(payload, dict):
            raise RequestValidationError(
                f"response must be a JSON object, got {type(payload).__name__}"
            )
        try:
            labels = payload["labels"]
            if not isinstance(labels, list):
                raise RequestValidationError("'labels' must be a list of ints")
            gap = payload.get("gap")
            return cls(
                labeling=Labeling.from_sequence(labels),
                span=int(payload["span"]),
                engine=str(payload["engine"]),
                exact=bool(payload["exact"]),
                cached=bool(payload["cached"]),
                key=str(payload["key"]),
                seconds=float(payload["seconds"]),
                tag=payload.get("tag"),
                tier=str(payload.get("tier", "exact")),
                gap=None if gap is None else int(gap),
            )
        except RequestValidationError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise RequestValidationError(
                f"malformed SolveResponse payload: {exc}"
            ) from exc

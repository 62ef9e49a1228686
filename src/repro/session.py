"""Dynamic frequency-assignment sessions.

The paper's motivating application is radio-frequency assignment; real
deployments change — transmitters come online, links appear as power is
raised.  :class:`LabelingSession` wraps the solver with mutate-and-resolve
semantics and keeps the assignment history, so the examples (and downstream
users) can model a living network instead of a frozen graph.

Re-solving goes through a shared
:class:`repro.service.server.ConcurrentLabelingService` when one is
supplied — the session submits on the exact tier (so it answers exactly
as a session without a service would) and waits on the future — so
mutate-and-resolve loops that revisit a topology (undo, A/B probing,
oscillating links) get warm hits from the shared result cache, and many
sessions can point at one serving front end.  Without a service it falls
back to a from-scratch :func:`solve_labeling`.  The session's own value is
bookkeeping: it re-validates after every mutation, records span
trajectories, and reports which vertices' frequencies changed between
assignments.

Re-solves take the **dynamic fast path**: a session-held
:class:`~repro.dynamic.DeltaEngine` repairs the previous version's
distance matrix across each trial copy (insert relaxation / affected-row
recompute, see :mod:`repro.dynamic`), so the applicability check, the
re-solve — including the service's canonical cache key — and verification
all reuse the repaired oracle and the mutation pays **zero** full APSP
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.dynamic import DeltaEngine
from repro.errors import GraphError, ReductionNotApplicableError
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.reduction.solver import SolveResult, solve_labeling
from repro.reduction.validation import analyze

if TYPE_CHECKING:
    from repro.service.protocol import SolveResponse
    from repro.service.server import ConcurrentLabelingService


@dataclass(frozen=True)
class AssignmentDelta:
    """What changed between two consecutive assignments."""

    span_before: int
    span_after: int
    relabeled: tuple[int, ...]   # pre-existing vertices whose label changed
    added: tuple[int, ...] = ()  # vertices that did not exist before

    @property
    def span_change(self) -> int:
        """Signed span delta caused by the mutation."""
        return self.span_after - self.span_before


def _diff_labels(
    old: Sequence[int], new: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a label diff into ``(relabeled, added)`` vertex tuples.

    ``relabeled`` holds vertices present in both assignments whose label
    changed; ``added`` holds vertices that exist only in the new one.  A
    fresh vertex never counts as relabeled — it had no label to change.

    >>> _diff_labels((0, 2, 4), (0, 3, 4, 6))
    ((1,), (3,))
    """
    common = min(len(old), len(new))
    relabeled = tuple(v for v in range(common) if old[v] != new[v])
    added = tuple(range(common, len(new)))
    return relabeled, added


class LabelingSession:
    """A mutable labeling workspace bound to one spec and engine.

    >>> from repro.labeling.spec import L21
    >>> from repro.graphs.generators import complete_graph
    >>> s = LabelingSession(complete_graph(3), L21, engine="held_karp")
    >>> s.span
    4
    >>> v = s.add_vertex(connect_to=[0, 1, 2])   # grow the clique
    >>> s.span
    6
    >>> len(s.history)
    2
    """

    def __init__(
        self,
        graph: Graph,
        spec: LpSpec,
        engine: str = "auto",
        service: "ConcurrentLabelingService | None" = None,
    ):
        """Copy the graph, bind spec/engine/service, and solve once."""
        self._graph = graph.copy()
        self.spec = spec
        self.engine = engine
        self.service = service
        self._history: list[SolveResult | SolveResponse] = []
        self._engine: DeltaEngine | None = None
        self._resolve()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """A copy of the current graph (the session owns its own)."""
        return self._graph.copy()

    @property
    def current(self) -> "SolveResult | SolveResponse":
        """The latest solve.

        A plain :class:`SolveResult`, or a :class:`SolveResponse` when the
        session routes through a service — the latter has no ``path`` or
        ``reduced`` instance (cache hits never materialize them).
        """
        return self._history[-1]

    @property
    def labeling(self) -> Labeling:
        """The current assignment."""
        return self.current.labeling

    @property
    def span(self) -> int:
        """The current assignment's span."""
        return self.current.span

    @property
    def history(self) -> "list[SolveResult | SolveResponse]":
        """Every solve so far (index 0 = initial), as a fresh list."""
        return list(self._history)

    def span_trajectory(self) -> list[int]:
        """Span after each mutation (index 0 = initial solve)."""
        return [r.span for r in self._history]

    # ------------------------------------------------------------------
    def add_vertex(self, connect_to: list[int] | None = None) -> int:
        """Add a transmitter, optionally with initial interference links.

        Returns the new vertex id.  Raises (and rolls back) if the grown
        network violates the reduction's preconditions.
        """
        trial = self._graph.copy()
        v = trial.add_vertex()
        for u in connect_to or []:
            trial.add_edge(u, v)
        self._commit(trial)
        return v

    def add_edge(self, u: int, v: int) -> AssignmentDelta:
        """Add an interference link and re-solve."""
        trial = self._graph.copy()
        trial.add_edge(u, v)
        return self._commit(trial)

    def remove_edge(self, u: int, v: int) -> AssignmentDelta:
        """Drop an interference link and re-solve.

        Removing edges can *increase* distances, so the diameter
        precondition is re-checked like any other mutation.
        """
        trial = self._graph.copy()
        trial.remove_edge(u, v)
        return self._commit(trial)

    # ------------------------------------------------------------------
    def _commit(self, trial: Graph) -> AssignmentDelta:
        """Validate, adopt and re-solve a mutated trial graph (or roll back)."""
        self._repair_oracle(trial)
        report = analyze(trial, self.spec)
        if not report.applicable:
            # the engine advanced past the rejected version; drop it and
            # rebuild lazily from the committed graph's (still warm) oracle
            self._engine = None
            raise ReductionNotApplicableError(
                f"mutation rejected: {report.reason()} (session rolled back)"
            )
        before = self.current if self._history else None
        self._graph = trial
        # the applicability check above read the trial's memoized oracle
        # (repaired, or cold the freshly computed one); the re-solve reads
        # the same one, so it computes none
        self._resolve()
        if before is None:
            return AssignmentDelta(self.span, self.span, ())
        relabeled, added = _diff_labels(
            before.labeling.labels, self.current.labeling.labels
        )
        return AssignmentDelta(before.span, self.span, relabeled, added)

    def _repair_oracle(self, trial: Graph) -> None:
        """Fast path: repair the previous oracle onto the trial copy.

        The trial descends from ``self._graph`` by construction (copy plus
        logged mutations), so the session's :class:`DeltaEngine` can
        replay the gap and attach the repaired matrix as the trial's
        memoized oracle — the applicability check, solver, canonical cache
        key and verification that follow then run **zero** APSP kernels.
        A cold session (first mutation after init) seeds the engine from
        the initial solve's memoized analysis.
        """
        if self._engine is None:
            warm = self._graph._analysis
            if (
                warm is None
                or not warm.is_current()
                or warm._distances is None
            ):
                return  # nothing to repair from; analyze pays the one APSP
            self._engine = DeltaEngine(self._graph)
        self._engine.refresh(trial)
        self._engine.attach(trial)

    def _resolve(self) -> None:
        """Solve the current graph via the service (or inline) and record it."""
        if self.service is not None:
            # the canonical cache key is derived from the graph's memoized
            # oracle — the matrix the delta engine repaired.  The exact tier
            # keeps the router from degrading the answer, so it matches the
            # service-free path; the session is synchronous by contract, so
            # wait here (the graph must not mutate while a worker may still
            # read it)
            from repro.service.protocol import SolveRequest

            result = self.service.submit(
                SolveRequest(
                    graph=self._graph,
                    spec=self.spec,
                    engine=self.engine,
                    tier="exact",
                )
            ).result()
        else:
            result = solve_labeling(self._graph, self.spec, engine=self.engine)
        self._history.append(result)


def session_for_radio_network(
    n: int,
    radius: float,
    spec: LpSpec,
    seed: int = 0,
    engine: str = "auto",
    service: "ConcurrentLabelingService | None" = None,
) -> tuple[LabelingSession, "object"]:
    """Convenience: a session over a random geometric deployment.

    Returns ``(session, positions)``.  Raises if the deployment violates
    the reduction preconditions (caller should densify or reseed).
    """
    from repro.graphs.generators import random_geometric_graph

    graph, pos = random_geometric_graph(n, radius, seed=seed)
    if not analyze(graph, spec).applicable:
        raise GraphError(
            "deployment not applicable (too sparse?); raise the radius"
        )
    return LabelingSession(graph, spec, engine=engine, service=service), pos

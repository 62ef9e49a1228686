"""End-to-end L(p)-labeling solver: reduce, run a TSP engine, reconstruct.

This is the library's front door.  It packages the paper's framework exactly:

1. validate Theorem 2's preconditions,
2. reduce to Metric Path TSP (:mod:`repro.reduction.to_tsp`),
3. solve with a selectable engine (:mod:`repro.tsp.portfolio` — exact
   Held–Karp, guaranteed 1.5-approx Hoogeveen, LK-style heuristic, ...),
4. reconstruct the labeling by prefix sums (Claim 1) and **re-verify it**
   against the original graph — always; the check reuses the reduction's
   distance matrix — so an engine bug can never escape as a
   silently-infeasible labeling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.reduction.from_tour import labeling_from_order
from repro.reduction.to_tsp import ReducedInstance, reduce_to_path_tsp
from repro.tsp.portfolio import EXACT_ENGINES, resolve_engine, solve_path
from repro.tsp.tour import HamPath


@dataclass(frozen=True)
class SolveResult:
    """Everything a caller may want from one solve."""

    labeling: Labeling
    span: int
    engine: str
    exact: bool              # True when the engine guarantees optimality
    path: HamPath            # the Hamiltonian path realizing the span
    reduced: ReducedInstance
    reduce_seconds: float
    solve_seconds: float

    @property
    def order(self) -> tuple[int, ...]:
        """The solved Hamiltonian path's vertex order."""
        return self.path.order


def solve_labeling(
    graph: Graph,
    spec: LpSpec,
    engine: str = "auto",
) -> SolveResult:
    """Solve L(p)-labeling via the TSP framework.

    Parameters
    ----------
    engine:
        An engine name from :data:`repro.tsp.portfolio.ENGINES`, or ``auto``
        (exact for small ``n``, LK-style beyond).

    The reconstructed labeling is always re-checked against the original
    graph, off the reduction's distance matrix (``O(k n^2)`` on top of the
    one APSP the graph's memoized oracle pays), and its span against the
    path weight (Claim 1).

    Raises
    ------
    ReductionNotApplicableError
        If the graph/spec violate Theorem 2's preconditions.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling.spec import L21
    >>> solve_labeling(cycle_graph(5), L21, engine="held_karp").span
    4
    """
    t0 = time.perf_counter()
    red = reduce_to_path_tsp(graph, spec)
    t1 = time.perf_counter()
    resolved = resolve_engine(engine, red.n)
    path = solve_path(red.instance, resolved)
    t2 = time.perf_counter()

    labeling = labeling_from_order(red, path.order)
    labeling.require_feasible(graph, spec, dist=red.distances)
    # Claim 1 consistency: span must equal the path weight
    assert labeling.span == int(round(path.length)), (
        f"span {labeling.span} != path weight {path.length}"
    )
    return SolveResult(
        labeling=labeling,
        span=labeling.span,
        engine=resolved,
        exact=resolved in EXACT_ENGINES,
        path=path,
        reduced=red,
        reduce_seconds=t1 - t0,
        solve_seconds=t2 - t1,
    )


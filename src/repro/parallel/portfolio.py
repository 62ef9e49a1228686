"""Process-parallel engine portfolio for the labeling solver.

Runs several TSP engines on the *same* reduced instance in separate
processes and keeps the best labeling — the classic algorithm-portfolio
pattern for heuristics with complementary strengths.  The graph is shipped
as an edge list (cheap, picklable); each worker re-runs the reduction
locally, which is ``O(nm)`` and negligible next to the search.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.graph import Graph
from repro.labeling.spec import LpSpec
from repro.parallel.pool import parallel_map
from repro.reduction.solver import SolveResult, solve_labeling


def _solve_one(args: tuple[int, list[tuple[int, int]], tuple[int, ...], str]) -> tuple[str, int, tuple[int, ...]]:
    """Worker: rebuild the graph, solve with one engine, return essentials."""
    n, edges, p, engine = args
    graph = Graph(n, edges)
    spec = LpSpec(p)
    result = solve_labeling(graph, spec, engine=engine)
    return engine, result.span, result.labeling.labels


def portfolio_solve(
    graph: Graph,
    spec: LpSpec,
    engines: Sequence[str],
    workers: int | None = None,
) -> SolveResult:
    """Best-of-K engines across processes; returns the winner's full result.

    The winning engine is re-run in-process to produce a complete
    :class:`SolveResult` (timings/paths of the winning run).
    """
    edges = list(graph.edges())
    tasks = [(graph.n, edges, spec.p, e) for e in engines]
    outcomes = parallel_map(_solve_one, tasks, workers=workers)
    best_engine = min(outcomes, key=lambda o: o[1])[0]
    return solve_labeling(graph, spec, engine=best_engine)


def sequential_portfolio(
    graph: Graph, spec: LpSpec, engines: Sequence[str]
) -> SolveResult:
    """The same best-of-K, one engine after another (baseline for E10)."""
    best: SolveResult | None = None
    for e in engines:
        r = solve_labeling(graph, spec, engine=e)
        if best is None or r.span < best.span:
            best = r
    assert best is not None
    return best

"""Timed engine sweeps over workloads, with verified outputs.

``run_engines`` is the workhorse behind experiments E5/E7: it runs each
named engine on each workload through the *full* labeling pipeline
(reduce -> engine -> reconstruct -> verify) and records span, wall time and
the ratio to the best-known span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.graphs.analysis import get_analysis
from repro.harness.workloads import Workload
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling


@dataclass(frozen=True)
class EngineRun:
    """One (engine, workload) measurement."""

    engine: str
    workload: str
    n: int
    span: int
    seconds: float
    exact: bool
    ratio: float | None = None   # span / best span over the sweep row


def time_call(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(result, wall_seconds)`` for one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run_engines(
    workloads: list[Workload],
    spec: LpSpec,
    engines: list[str],
) -> list[EngineRun]:
    """Run every engine on every workload; annotate ratios per workload.

    The ratio divides by the smallest span any engine achieved on that
    workload (the optimum when an exact engine is in the list).
    """
    rows: list[EngineRun] = []
    for wl in workloads:
        per_wl: list[EngineRun] = []
        # one shared analysis per workload: every engine's reduce + verify
        # reads the graph's memoized distance matrix; prewarming it here
        # keeps the per-engine timings below free of APSP cost and thus
        # comparable
        get_analysis(wl.graph).distances
        for engine in engines:
            result, secs = time_call(
                lambda e=engine: solve_labeling(wl.graph, spec, engine=e)
            )
            per_wl.append(
                EngineRun(
                    engine=engine,
                    workload=wl.label,
                    n=wl.n,
                    span=result.span,
                    seconds=secs,
                    exact=result.exact,
                )
            )
        best = min(r.span for r in per_wl)
        rows.extend(
            EngineRun(
                engine=r.engine,
                workload=r.workload,
                n=r.n,
                span=r.span,
                seconds=r.seconds,
                exact=r.exact,
                ratio=r.span / best if best > 0 else 1.0,
            )
            for r in per_wl
        )
    return rows

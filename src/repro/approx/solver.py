"""Stack-based simplify/select approximate labeling with a certified gap.

The degraded-mode tier of the serving stack: when the QoS router decides a
request cannot afford an exact (or heuristic-pipeline) solve, this module
answers in one pass — no branch-and-bound, no engine ladder — and certifies
how far the answer can be from optimal.

The algorithm is the register-allocation classic adapted to distance
constraints:

1. **Simplify** — repeatedly remove the vertex with the fewest remaining
   *requirement neighbours* (vertices within the spec's distance horizon,
   i.e. a positive entry in its requirement row from the lazy distance
   oracle) and push it on a stack.  Degrees update as vertices leave, so
   the stack bottom holds the loosely-constrained periphery and the top
   the tightly-constrained core.
2. **Select** — pop the stack (most-constrained vertices first) and give
   each vertex the smallest label compatible with the already-labeled
   ones, through the same jump-past-the-blocking-window first fit
   :func:`repro.labeling.greedy.greedy_labeling` runs.

Feasibility is by construction: select never places a label inside a
forbidden window.  The **certified gap** comes from the existing
:func:`repro.labeling.bounds.lower_bound` machinery: ``lower_bound <=
optimum <= span``, so ``gap = span - lower_bound`` bounds the true
optimality loss and ``ratio = span / lower_bound`` is a per-instance
approximation certificate — no exact solve needed to trust it.

Large graphs never materialize an O(n^2) requirement matrix: both passes
fetch one requirement row per vertex through the graph's blocked oracle
(:meth:`~repro.graphs.analysis.GraphAnalysis.row`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import get_analysis
from repro.graphs.graph import Graph
from repro.labeling.bounds import lower_bound
from repro.labeling.greedy import _first_fit, _requirement_rows
from repro.labeling.labeling import Labeling, requirement_matrix
from repro.labeling.spec import LpSpec
from repro.obs.metrics import REGISTRY

#: The engine name the approx tier reports in responses and cache entries.
APPROX_ENGINE = "approx"

_M_SOLVES = REGISTRY.counter("repro_approx_solves_total")
_M_SOLVES.labels()  # materialize: the exposition shows 0, not nothing
_M_GAP = REGISTRY.gauge("repro_approx_gap")
_M_GAP.labels()
_M_RATIO = REGISTRY.gauge("repro_approx_ratio")
_M_RATIO.labels()


@dataclass(frozen=True)
class ApproxResult:
    """One approximate solve plus its optimality certificate.

    ``lower_bound <= optimum <= span`` always holds, so ``gap`` and
    ``ratio`` are sound without ever running an exact engine.
    """

    labeling: Labeling
    span: int
    lower_bound: int
    #: ``span - lower_bound`` — certified upper bound on the loss.
    gap: int
    #: ``span / max(lower_bound, 1)`` (1.0 for unconstrained instances).
    ratio: float
    #: Solve wall time, for the serving layer's accounting.
    seconds: float


def approx_labeling(
    graph: Graph,
    spec: LpSpec,
    seed: int = 0,
) -> ApproxResult:
    """Simplify/select labeling with a certified optimality gap.

    Deterministic for a fixed ``seed``: elimination ties are broken by a
    seeded permutation, everything else is order-stable, so two calls with
    the same arguments return bit-identical labelings.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling.spec import L21
    >>> r = approx_labeling(cycle_graph(6), L21)
    >>> r.labeling.is_feasible(cycle_graph(6), L21)
    True
    >>> r.gap == r.span - r.lower_bound
    True
    """
    t0 = time.perf_counter()
    n = graph.n
    if n == 0:
        return _record(Labeling(()), 0, time.perf_counter() - t0)
    analysis = get_analysis(graph)
    # the approx tier inherits first fit's memory bound: no O(n^2)
    # requirement matrix above the oracle's dense limit
    req, row_of = _requirement_rows(spec, analysis)
    if req is not None:
        degrees = (req > 0).sum(axis=1).astype(np.int64)
    else:
        degrees = np.zeros(n, dtype=np.int64)
        for lo, hi, blk in analysis.iter_row_blocks():
            degrees[lo:hi] = (requirement_matrix(spec, blk) > 0).sum(axis=1)

    tiebreak = np.random.default_rng(seed).permutation(n)
    stack = _simplify(n, degrees, row_of, tiebreak)
    # select: pop the stack, most-constrained vertices first
    labels = _first_fit(n, stack[::-1], row_of)

    lb = lower_bound(
        graph, spec, dist=analysis.distances if req is not None else None
    )
    labeling = Labeling(tuple(int(x) for x in labels))
    return _record(labeling, lb, time.perf_counter() - t0)


def _simplify(n, degrees, row_of, tiebreak) -> list[int]:
    """Chaitin-style elimination: min remaining requirement-degree first.

    A lazy heap holds ``(degree, tiebreak, vertex)`` triples; stale entries
    (the vertex left, or its degree has since dropped) are skipped on pop,
    which keeps the loop ``O(total pushes * log)`` without a decrease-key.
    """
    deg = degrees.copy()
    remaining = np.ones(n, dtype=bool)
    heap = [(int(deg[v]), int(tiebreak[v]), v) for v in range(n)]
    heapq.heapify(heap)
    stack: list[int] = []
    while heap:
        d, _t, v = heapq.heappop(heap)
        if not remaining[v] or d != deg[v]:
            continue
        remaining[v] = False
        stack.append(v)
        rv = row_of(v)
        nbrs = np.nonzero((rv > 0) & remaining)[0]
        if nbrs.size:
            deg[nbrs] -= 1
            for u in nbrs:
                heapq.heappush(heap, (int(deg[u]), int(tiebreak[u]), int(u)))
    return stack


def _record(labeling: Labeling, lb: int, seconds: float) -> ApproxResult:
    """Assemble the result and mirror the certificate into the registry."""
    span = labeling.span
    gap = span - lb
    ratio = (span / lb) if lb > 0 else 1.0
    _M_SOLVES.inc()
    _M_GAP.set(gap)
    _M_RATIO.set(round(ratio, 4))
    return ApproxResult(
        labeling=labeling,
        span=span,
        lower_bound=lb,
        gap=gap,
        ratio=ratio,
        seconds=seconds,
    )

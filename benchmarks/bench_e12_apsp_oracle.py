"""E12 — extension: vectorized APSP + the shared GraphAnalysis oracle.

Two claims, both asserted (so ``make bench`` is also a correctness gate):

1. the vectorized multi-source APSP beats the per-source BFS reference on
   the E-suite graph sizes, with **bit-identical** distance matrices;
2. a solve through a one-worker (inline)
   :class:`~repro.service.server.ConcurrentLabelingService` (canonical
   key + cache-miss solve + verify) runs the APSP kernel **exactly once**,
   and a warm isomorphic resubmit adds exactly one more (its own key).

Run quickly (no timed benchmark rounds) with ``make bench-quick``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.graphs.traversal import (
    all_pairs_distances,
    all_pairs_distances_reference,
    apsp_run_count,
)
from repro.labeling.spec import L21
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService

#: E-suite scaling sizes (E3 sweeps diameter-2 graphs in this range).
SIZES = (40, 70, 100)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("n", SIZES)
def test_vectorized_apsp_equal_and_faster(n):
    g = gen.random_graph_with_diameter_at_most(n, 2, seed=0)
    vec = all_pairs_distances(g)
    ref = all_pairs_distances_reference(g)
    assert vec.dtype == ref.dtype
    assert np.array_equal(vec, ref), "vectorized APSP must be bit-identical"

    t_vec = _best_of(lambda: all_pairs_distances(g))
    t_ref = _best_of(lambda: all_pairs_distances_reference(g))
    # the win is a large constant factor; 2x is a deliberately loose floor
    assert t_vec * 2 < t_ref, (
        f"vectorized APSP not faster at n={n}: {t_vec:.6f}s vs {t_ref:.6f}s"
    )


def test_service_solve_single_apsp():
    g = gen.random_graph_with_diameter_at_most(60, 2, seed=1).copy()  # cold oracle
    h = relabel(g, list(reversed(range(g.n))))
    first_req, again_req = (
        SolveRequest(graph, L21, engine="lk", tier="exact") for graph in (g, h)
    )
    with ConcurrentLabelingService(workers=1) as svc:
        before = apsp_run_count()
        first = svc.submit(first_req).result()
        assert apsp_run_count() == before + 1, "miss solve must reuse the key's APSP"
        assert not first.cached

        before = apsp_run_count()
        again = svc.submit(again_req).result()
        assert again.cached and again.span == first.span
        assert apsp_run_count() == before + 1, "warm hit pays only its own key APSP"


def test_bench_apsp_vectorized(benchmark, diam2_n100):
    dist = benchmark(lambda: all_pairs_distances(diam2_n100))
    assert int(dist.max()) <= 2


def test_bench_apsp_reference(benchmark, diam2_n100):
    dist = benchmark(lambda: all_pairs_distances_reference(diam2_n100))
    assert int(dist.max()) <= 2


def test_bench_service_warm_oracle(benchmark, diam2_n100):
    """Steady-state submit where graph analysis + result cache are warm."""
    request = SolveRequest(diam2_n100, L21, engine="lk", tier="exact")
    with ConcurrentLabelingService(workers=1) as svc:
        svc.submit(request).result()
        result = benchmark(lambda: svc.submit(request).result())
    assert result.cached

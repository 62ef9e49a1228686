"""E15 — extension: persistent worker pool on the serving path.

Three claims, all asserted (so ``make bench`` is also a correctness gate):

1. **serial equivalence** — the pool-offloaded server answers a cold
   request stream with exactly the spans (and per-request feasibility) of
   a cache-free serial reference (one
   :func:`~repro.service.api.solve_canonical` per request): crossing the
   process boundary changes nothing observable;
2. **no graph pickling on the hot path** — with ``Graph.__reduce__``
   rigged to raise, the offloaded serve still completes: only the
   canonical numpy arrays and small tuples cross the pipe, the old
   pickle-the-instance design physically cannot sneak back;
3. on a multi-core host, the pool serves the cold-scaling stream at
   **>= 2x** 1-worker throughput (the ``workers_speedup_4`` perf gate's
   floor).  Named with ``speedup`` so ``make bench-quick`` deselects it
   (``-k "not speedup"``); the CI pool-scaling job runs it on a >= 4-vCPU
   runner.
"""

from __future__ import annotations

import pytest

from repro.graphs.graph import Graph
from repro.harness.workloads import SERVICE, service_stream
from repro.labeling.spec import LpSpec
from repro.parallel.pool import effective_cpu_count

from bench_e14_concurrent_service import serial_spans, serve_stream

LEG = SERVICE["cold-scaling"]


def test_offloaded_stream_matches_serial():
    stream = service_stream(LEG)
    _wall, _server, results = serve_stream(stream, workers=2, offload=True)
    assert [r.span for r in results] == serial_spans(stream)
    for req, res in zip(stream, results):
        res.labeling.require_feasible(req.graph, req.spec)


def test_no_graph_pickling_on_hot_path(monkeypatch):
    def _refuse(self):
        raise AssertionError(
            "Graph crossed the process boundary by pickle; the serving "
            "path must ship canonical arrays + small tuples only"
        )

    monkeypatch.setattr(Graph, "__reduce__", _refuse)
    stream = service_stream(LEG)[:4]
    _wall, server, results = serve_stream(stream, workers=2, offload=True)
    assert len(results) == 4
    assert server.stats.solved == 4
    for req, res in zip(stream, results):
        res.labeling.require_feasible(req.graph, req.spec)


@pytest.mark.skipif(
    effective_cpu_count() < 4,
    reason="4-worker scaling floor needs >= 4 effective CPUs",
)
def test_pool_speedup_floor():
    # all-cold stream: nothing to dedup or cache, every request an engine
    # run — requests/sec scales only through real multi-process solving
    def best_rps(workers: int, repeats: int = 3) -> float:
        best = 0.0
        for _ in range(repeats):
            wall, _server, _ = serve_stream(
                service_stream(LEG), workers=workers, offload=workers > 1
            )
            best = max(best, LEG.requests / wall)
        return best

    rps_1 = best_rps(1)
    rps_4 = best_rps(4)
    assert rps_4 >= 2.0 * rps_1, (
        f"worker pool served {rps_4:.1f} req/s at 4 workers vs {rps_1:.1f} "
        f"at 1 — below the 2x floor the tentpole exists to clear"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_cold_stream(benchmark, workers):
    stream = service_stream(LEG)

    def run():
        return serve_stream(stream, workers=workers, offload=workers > 1)

    _wall, server, results = benchmark(run)
    assert len(results) == LEG.requests
    assert server.stats.solved == LEG.unique

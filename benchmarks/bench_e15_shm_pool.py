"""E15 — extension: persistent shared-memory worker pool on the serving path.

Four claims, all asserted (so ``make bench`` is also a correctness gate):

1. **serial equivalence** — the pool-offloaded server answers a cold
   request stream with exactly the spans (and per-request feasibility) of
   the serial :class:`~repro.service.api.LabelingService`: crossing the
   process boundary through shared memory changes nothing observable;
2. **zero-copy adoption** — a worker's distance matrix is a numpy view
   into the parent's segment (``OWNDATA`` false, base chain ends at the
   segment buffer), never a rebuilt ``O(n^2)`` copy;
3. **no graph pickling on the hot path** — with ``Graph.__reduce__``
   rigged to raise, the offloaded serve still completes: only descriptors
   and small tuples cross the pipe, the old pickle-the-instance design
   physically cannot sneak back;
4. on a multi-core host, the pool serves the cold-scaling stream at
   **>= 2x** 1-worker throughput (the ``workers_speedup_4`` perf gate's
   floor).  Named with ``speedup`` so ``make bench-quick`` deselects it
   (``-k "not speedup"``); the CI pool-scaling job runs it on a >= 4-vCPU
   runner.
"""

from __future__ import annotations

import os

import pytest

from repro.graphs.analysis import export_buffers, get_analysis
from repro.graphs.graph import Graph
from repro.harness.workloads import SERVICE, service_stream
from repro.labeling.spec import LpSpec
from repro.parallel.pool import effective_cpu_count
from repro.parallel.shm_pool import ShmArena, ShmWorkerPool
from repro.service.api import LabelingService

from bench_e14_concurrent_service import serve_stream

LEG = SERVICE["cold-scaling"]


def test_offloaded_stream_matches_serial():
    stream = service_stream(LEG)
    _wall, _server, results = serve_stream(stream, workers=2, offload=True)
    serial, _report = LabelingService().submit_many(list(stream))
    assert [r.span for r in results] == [r.span for r in serial]
    for req, res in zip(stream, results):
        res.labeling.require_feasible(req.graph, req.spec)


def test_worker_adoption_is_zero_copy():
    request = service_stream(LEG)[0]
    with ShmArena() as arena:
        descriptor = arena.publish(
            "e15-probe", export_buffers(get_analysis(request.graph))
        )
        with ShmWorkerPool(1) as pool:
            report = pool.probe(descriptor)
    assert report["pid"] != os.getpid()
    assert report["owns_data"] is False, "worker copied the distance matrix"
    assert report["base_is_shm_buffer"] is True, (
        "worker's matrix is not a view into the parent's segment"
    )


def test_no_graph_pickling_on_hot_path(monkeypatch):
    def _refuse(self):
        raise AssertionError(
            "Graph crossed the process boundary by pickle; the serving "
            "path must ship shm descriptors + small tuples only"
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
        f"shm pool served {rps_4:.1f} req/s at 4 workers vs {rps_1:.1f} "
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

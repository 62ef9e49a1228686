"""E14 — extension: concurrent sharded serving front-end throughput.

Four claims, all asserted (so ``make bench`` is also a correctness gate):

1. serving a mixed hot/cold stream through the
   :class:`~repro.service.server.ConcurrentLabelingService` answers every
   request with a labeling **feasible on that request's own graph** and a
   span identical to a cache-free serial reference (one
   :func:`~repro.service.api.solve_canonical` per request, no dedup) —
   coalescing and coordinate translation never corrupt a result;
2. **no duplicate solves**: however many threads submit however many
   overlapping requests, the engine runs exactly once per distinct
   canonical key (in-flight dedup + the worker-side cache re-probe);
3. shard-stat consistency: hits + misses == lookups on every shard and in
   the aggregate, and the ``shard_lock_wait`` contention rate stays low;
4. on a multi-core host, 4 workers serve the cold-scaling stream at
   **>= 2x** the requests/sec of 1 worker (process-offloaded solves) —
   the scaling floor the SERVICE perf scenario re-measures into every
   ``BENCH_<k>.json``.  Deselected from ``make bench-quick`` (per-push CI)
   by ``-k "not speedup"`` and skipped below 4 CPUs: a parallel-scaling
   wall-clock floor belongs to the timed nightly tier on multi-core
   runners, not to single-core correctness runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.harness.workloads import SERVICE, service_stream
from repro.parallel.pool import effective_cpu_count
from repro.service.api import solve_canonical
from repro.service.canonical import canonical_form
from repro.service.server import ConcurrentLabelingService

LEG = SERVICE["mixed-dense"]


def serve_stream(stream, workers: int, clients: int = 4, **kwargs):
    """Serve ``stream`` on a fresh server; returns (wall_seconds, server)."""
    server = ConcurrentLabelingService(workers=workers, **kwargs)
    server.prewarm()  # pool start-up must not pollute the timed region
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = list(
            pool.map(
                server.submit,
                stream,
            )
        )
        wait(futures)
    wall = time.perf_counter() - t0
    server.shutdown(wait=True)
    return wall, server, [f.result() for f in futures]


def serial_spans(stream) -> list[int]:
    """Reference spans: every request solved on its own, exact tier."""
    return [
        solve_canonical(canonical_form(r.graph, r.spec), r, "exact")[0].span
        for r in stream
    ]


def test_concurrent_matches_serial_and_feasible():
    stream = service_stream(LEG)
    _wall, _server, results = serve_stream(stream, workers=4)
    assert [r.span for r in results] == serial_spans(stream)
    for req, res in zip(stream, results):
        res.labeling.require_feasible(req.graph, req.spec)


def test_no_duplicate_solves():
    stream = service_stream(LEG)
    _wall, server, results = serve_stream(stream, workers=4)
    assert len(results) == LEG.requests
    assert server.stats.solved == LEG.unique, (
        f"expected exactly {LEG.unique} engine runs for {LEG.unique} distinct "
        f"problems, measured {server.stats.solved}"
    )
    assert (
        server.stats.hits + server.stats.coalesced
        == LEG.requests - LEG.unique
    )


def test_shard_stats_consistent():
    stream = service_stream(LEG)
    _wall, server, _results = serve_stream(stream, workers=4)
    cache = server.cache
    aggregate = cache.stats
    assert aggregate.hits + aggregate.misses == aggregate.lookups
    per_shard = cache.shard_stats()
    assert sum(s.hits for s in per_shard) == aggregate.hits
    assert sum(s.misses for s in per_shard) == aggregate.misses
    for s in per_shard:
        assert s.hits + s.misses == s.lookups
    assert 0.0 <= cache.contention_rate <= 1.0


@pytest.mark.skipif(
    effective_cpu_count() < 4,
    reason="4-worker scaling floor needs >= 4 effective CPUs "
    "(process-offloaded solves; affinity masks count)",
)
def test_workers_speedup_floor():
    # the cold-scaling leg is all-cold: nothing to dedup, every request an
    # engine run, so requests/sec scales with real solve parallelism
    leg = SERVICE["cold-scaling"]

    def best_rps(workers: int, repeats: int = 3) -> float:
        best = 0.0
        for _ in range(repeats):
            wall, _server, _ = serve_stream(
                service_stream(leg), workers=workers, offload=workers > 1
            )
            best = max(best, leg.requests / wall)
        return best

    rps_1 = best_rps(1)
    rps_4 = best_rps(4)
    assert rps_4 >= 2.0 * rps_1, (
        f"4 workers served {rps_4:.1f} req/s vs {rps_1:.1f} req/s at 1 "
        f"worker — below the 2x scaling floor"
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_bench_mixed_stream(benchmark, workers):
    stream = service_stream(LEG)

    def run():
        return serve_stream(stream, workers=workers)

    _wall, server, results = benchmark(run)
    assert len(results) == LEG.requests
    assert server.stats.hit_rate == pytest.approx(
        1.0 - LEG.unique / LEG.requests, abs=1e-9
    )

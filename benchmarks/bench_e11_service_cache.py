"""E11 — extension: service throughput under duplicate-request streams.

Benchmarks a one-worker (inline) ``ConcurrentLabelingService`` fed
submit-and-wait on the exact tier, over streams with 0% / 50% / 90%
duplicate graphs (duplicates arrive relabeled, so only the canonical form
can recognise them).  ``test_experiment_passes`` re-runs the claim checks,
including the hard acceptance bound: the 90%-dup stream must finish in at
most 25% of the no-cache wall time.  That wall-time bound is why
``make bench-quick`` deselects it; the hit-rate checks run there.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.harness.experiments import e11_service_cache
from repro.labeling.spec import L21
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService

N = 24
TOTAL = 12
ENGINE = "lk"


def make_stream(dup_rate: float) -> list[SolveRequest]:
    unique = max(1, round(TOTAL * (1.0 - dup_rate)))
    bases = [
        gen.random_graph_with_diameter_at_most(N, 2, seed=23 * s)
        for s in range(unique)
    ]
    stream = []
    for i in range(TOTAL):
        g = bases[i % unique]
        perm = np.random.default_rng(500 + i).permutation(g.n).tolist()
        stream.append(
            SolveRequest(relabel(g, perm), L21, engine=ENGINE, tier="exact")
        )
    return stream


def serve(service, stream):
    """Submit each request and wait for its answer before the next."""
    return [service.submit(req).result() for req in stream]


def test_experiment_passes():
    result = e11_service_cache()
    assert result.passed, result.render()


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.9])
def test_bench_batch_stream(benchmark, dup_rate):
    stream = make_stream(dup_rate)

    def run():
        with ConcurrentLabelingService(workers=1) as service:
            return serve(service, stream), service.stats.hit_rate

    results, hit_rate = benchmark(run)
    assert len(results) == len(stream)
    assert hit_rate == pytest.approx(dup_rate, abs=0.05)


def test_bench_warm_cache_stream(benchmark):
    # steady-state serving: every request answered from the warm cache
    stream = make_stream(0.0)
    with ConcurrentLabelingService(workers=1) as service:
        serve(service, stream)
        solved = service.stats.solved
        results = benchmark(lambda: serve(service, stream))
        assert service.stats.solved == solved  # no engine ran after warm-up
    assert all(r.cached for r in results)

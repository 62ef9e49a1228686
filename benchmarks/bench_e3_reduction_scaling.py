"""E3 — Theorem 2: the O(nm) reduction, timed at three sizes.

The paper's claim is about asymptotics; pytest-benchmark's per-size timings
give the series behind E3's table in the reproduction report (the growth
between rows should track n*m, i.e. roughly cubically in n for dense
diameter-2 graphs).
"""

import pytest

from repro.graphs import generators as gen
from repro.harness.experiments import e3_reduction_scaling
from repro.labeling.spec import L21
from repro.reduction.to_tsp import reduce_to_path_tsp


def test_experiment_passes():
    result = e3_reduction_scaling(sizes=(40, 80, 160), seeds=2)
    assert result.passed, result.render()


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bench_reduction(benchmark, n):
    g = gen.random_graph_with_diameter_at_most(n, 2, seed=0)
    red = benchmark(lambda: reduce_to_path_tsp(g, L21))
    assert red.instance.n == n

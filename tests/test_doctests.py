"""Run the doctest examples embedded in the library's docstrings.

Keeps every usage example in the API documentation executable and correct.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.graphs.graph",
    "repro.graphs.traversal",
    "repro.graphs.operations",
    "repro.graphs.bipartite",
    "repro.graphs.families",
    "repro.labeling.spec",
    "repro.labeling.greedy",
    "repro.labeling.trees",
    "repro.labeling.layer_dp",
    "repro.tsp.held_karp",
    "repro.tsp.mst",
    "repro.tsp.christofides",
    "repro.tsp.hoogeveen",
    "repro.tsp.lin_kernighan",
    "repro.tsp.annealing",
    "repro.reduction.to_tsp",
    "repro.reduction.from_tour",
    "repro.reduction.solver",
    "repro.partition.paths_partition",
    "repro.partition.diameter2",
    "repro.partition.modular",
    "repro.partition.neighborhood_diversity",
    "repro.partition.coloring",
    "repro.partition.l1_labeling",
    "repro.service.canonical",
    "repro.service.cache",
    "repro.service.shard",
    "repro.service.server",
    "repro.service.api",
    "repro.session",
    "repro.dynamic.engine",
    "repro.graphs.analysis",
    "repro.obs.metrics",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    failures, _tried = doctest.testmod(
        module, verbose=False, raise_on_error=False
    ).failed, None
    assert failures == 0, f"doctest failures in {module_name}"

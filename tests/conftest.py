"""Shared fixtures: small graph corpora and RNG helpers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs import generators as gen


def all_graphs(n: int):
    """Every labelled simple graph on n vertices (use only for n <= 5)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_graph_zoo() -> list[Graph]:
    """A fixed menagerie of named small graphs used across test modules."""
    zoo = [
        gen.path_graph(1),
        gen.path_graph(2),
        gen.path_graph(5),
        gen.cycle_graph(3),
        gen.cycle_graph(5),
        gen.cycle_graph(6),
        gen.complete_graph(4),
        gen.complete_graph(6),
        gen.star_graph(5),
        gen.wheel_graph(5),
        gen.wheel_graph(6),
        gen.complete_bipartite_graph(2, 3),
        gen.complete_bipartite_graph(3, 3),
        gen.grid_graph(2, 3),
        gen.grid_graph(3, 3),
        gen.petersen_graph(),
        gen.hypercube_graph(3),
        gen.complete_multipartite_graph([2, 2, 2]),
        gen.cluster_graph([3, 2, 1]),
    ]
    return zoo


@pytest.fixture(scope="session")
def random_connected_graphs(rng) -> list[Graph]:
    """20 random connected graphs, 5-9 vertices, varied density."""
    out = []
    for i in range(20):
        n = int(rng.integers(5, 10))
        p = float(rng.uniform(0.3, 0.8))
        out.append(gen.random_connected_gnp(n, p, seed=rng))
    return out


@pytest.fixture(scope="session")
def diam2_graphs(rng) -> list[Graph]:
    """12 random connected graphs with diameter at most 2 (6-9 vertices)."""
    out = []
    for i in range(12):
        n = int(rng.integers(6, 10))
        out.append(gen.random_graph_with_diameter_at_most(n, 2, seed=rng))
    return out

"""Tests for the extension modules: trees, layer DP, stats, bipartite
matching.
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError, ReproError
from repro.graphs import generators as gen
from repro.graphs.bipartite import has_perfect_left_matching, hopcroft_karp
from repro.graphs.graph import Graph
from repro.harness.stats import (
    bootstrap_mean_ci,
    fit_power_law,
    growth_factor_per_step,
    summarize,
)
from repro.labeling.exact import exact_span
from repro.labeling.layer_dp import l21_layer_dp_span
from repro.labeling.spec import L21
from repro.labeling.trees import is_tree, l21_tree_labeling, l21_tree_span


class TestBipartiteMatching:
    def test_simple_perfect(self):
        size, match = hopcroft_karp(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert size == 2
        assert sorted(match) == [0, 1]

    def test_no_edges(self):
        size, match = hopcroft_karp(3, 3, [])
        assert size == 0 and match == [-1, -1, -1]

    def test_matches_networkx(self, rng):
        for _ in range(10):
            nl, nr = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            edges = [
                (u, v)
                for u in range(nl)
                for v in range(nr)
                if rng.random() < 0.4
            ]
            size, match = hopcroft_karp(nl, nr, edges)
            g = nx.Graph()
            g.add_nodes_from(f"L{u}" for u in range(nl))
            g.add_nodes_from(f"R{v}" for v in range(nr))
            g.add_edges_from((f"L{u}", f"R{v}") for u, v in edges)
            oracle = len(nx.max_weight_matching(g, maxcardinality=True))
            assert size == oracle
            # match consistency
            used_right = [v for v in match if v != -1]
            assert len(used_right) == len(set(used_right)) == size

    def test_hall_violation(self):
        # two left vertices forced onto one right vertex
        assert not has_perfect_left_matching(2, 1, [(0, 0), (1, 0)])
        assert has_perfect_left_matching(1, 2, [(0, 1)])


class TestTrees:
    def test_is_tree(self):
        assert is_tree(gen.path_graph(5))
        assert is_tree(gen.star_graph(4))
        assert not is_tree(gen.cycle_graph(4))
        assert not is_tree(Graph(3, [(0, 1)]))  # disconnected

    def test_non_tree_rejected(self):
        with pytest.raises(GraphError):
            l21_tree_span(gen.cycle_graph(4))

    def test_known_values(self):
        assert l21_tree_span(Graph(1)) == 0
        assert l21_tree_span(gen.path_graph(2)) == 2
        assert l21_tree_span(gen.path_graph(5)) == 4      # Δ=2 -> Δ+2
        assert l21_tree_span(gen.star_graph(6)) == 7      # Δ+1
        assert l21_tree_span(gen.caterpillar_graph(2, 2)) == 4

    def test_matches_exact_on_random_trees(self, rng):
        for _ in range(15):
            t = gen.random_tree(int(rng.integers(2, 11)), seed=rng)
            assert l21_tree_span(t) == exact_span(t, L21)

    def test_span_in_chang_kuo_band(self, rng):
        for _ in range(10):
            t = gen.random_tree(int(rng.integers(2, 30)), seed=rng)
            d = t.max_degree()
            assert l21_tree_span(t) in (d + 1, d + 2)

    def test_labeling_certificate(self, rng):
        for _ in range(8):
            t = gen.random_tree(int(rng.integers(2, 20)), seed=rng)
            lab = l21_tree_labeling(t)
            assert lab.is_feasible(t, L21)
            assert lab.span == l21_tree_span(t)

    def test_single_vertex_labeling(self):
        assert l21_tree_labeling(Graph(1)).labels == (0,)

    def test_agrees_with_tsp_route_when_applicable(self):
        # stars have diameter 2, so both routes apply
        from repro.reduction.solver import solve_labeling
        for leaves in range(2, 8):
            t = gen.star_graph(leaves)
            assert l21_tree_span(t) == solve_labeling(t, L21).span


class TestLayerDP:
    def test_matches_exact(self, rng):
        for _ in range(12):
            n = int(rng.integers(3, 9))
            g = gen.random_connected_gnp(n, float(rng.uniform(0.3, 0.7)), seed=rng)
            assert l21_layer_dp_span(g) == exact_span(g, L21)

    def test_known_families(self):
        assert l21_layer_dp_span(gen.cycle_graph(5)) == 4
        assert l21_layer_dp_span(gen.complete_graph(4)) == 6
        assert l21_layer_dp_span(gen.star_graph(4)) == 5
        assert l21_layer_dp_span(gen.path_graph(2)) == 2

    def test_trivial(self):
        assert l21_layer_dp_span(Graph(1)) == 0
        assert l21_layer_dp_span(Graph(0)) == 0

    def test_size_cap(self):
        with pytest.raises(ReproError):
            l21_layer_dp_span(gen.empty_graph(20))

    def test_disconnected_graphs_supported(self):
        # unlike the TSP route, the layer DP handles any graph
        g = Graph(4, [(0, 1), (2, 3)])
        assert l21_layer_dp_span(g) == exact_span(g, L21)


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0 and s.minimum == 1.0 and s.maximum == 3.0
        assert s.median == 2.0 and s.n == 3

    def test_summarize_empty(self):
        assert np.isnan(summarize([]).mean)

    def test_growth_factor(self):
        assert growth_factor_per_step([10, 12, 14], [1.0, 4.0, 16.0]) == \
            pytest.approx(4.0)
        assert np.isnan(growth_factor_per_step([1], [1.0]))

    def test_fit_power_law(self):
        ns = [10, 20, 40, 80]
        times = [n**3 * 1e-6 for n in ns]
        assert fit_power_law(ns, times) == pytest.approx(3.0, abs=1e-6)

    def test_bootstrap_ci_contains_mean(self):
        data = list(np.random.default_rng(0).normal(5.0, 1.0, size=100))
        lo, hi = bootstrap_mean_ci(data)
        assert lo <= float(np.mean(data)) <= hi

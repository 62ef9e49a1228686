"""The paper's reduction: validation, construction, Claim 1, solver facade.

``test_headline_theorem2_exhaustive`` is the single most important test in
the repository: it verifies λ_TSP == λ_bruteforce on *every* connected
4-vertex graph and hundreds of sampled 5-7 vertex instances.
"""

import itertools

import numpy as np
import pytest

from repro.errors import ReductionNotApplicableError, SolverError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.labeling.exact import exact_span
from repro.labeling.spec import L11, L21, LpSpec
from repro.reduction.from_tour import labeling_from_order, span_for_order
from repro.reduction.solver import solve_labeling
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.reduction.validation import analyze, check_applicable, is_applicable


class TestValidation:
    def test_applicable_cases(self):
        assert is_applicable(gen.petersen_graph(), L21)
        assert is_applicable(gen.complete_graph(5), L21)
        assert is_applicable(gen.path_graph(4), LpSpec((2, 1, 1)))

    def test_diameter_too_large(self):
        assert not is_applicable(gen.path_graph(5), L21)  # diam 4 > 2
        with pytest.raises(ReductionNotApplicableError, match="diam"):
            check_applicable(gen.path_graph(5), L21)

    def test_weight_condition(self):
        g = gen.complete_graph(4)
        assert not is_applicable(g, LpSpec((3, 1)))
        with pytest.raises(ReductionNotApplicableError, match="p_max"):
            check_applicable(gen.petersen_graph(), LpSpec((3, 1)))

    def test_pmin_zero_rejected(self):
        with pytest.raises(ReductionNotApplicableError, match="p_min"):
            check_applicable(gen.complete_graph(3), LpSpec((1, 0)))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_applicable(g, L21)
        with pytest.raises(ReductionNotApplicableError, match="disconnected"):
            check_applicable(g, L21)

    def test_report_fields(self):
        rep = analyze(gen.cycle_graph(5), L21)
        assert rep.connected and rep.diameter == 2 and rep.applicable
        assert rep.reason() == "applicable"


class TestReduction:
    def test_weight_values_match_distances(self):
        g = gen.cycle_graph(5)
        red = reduce_to_path_tsp(g, L21)
        w = red.instance.weights
        for u in range(5):
            for v in range(5):
                if u == v:
                    assert w[u, v] == 0
                elif g.has_edge(u, v):
                    assert w[u, v] == 2  # p1
                else:
                    assert w[u, v] == 1  # p2

    def test_always_metric(self, diam2_graphs):
        for g in diam2_graphs:
            red = reduce_to_path_tsp(g, L21)
            assert red.instance.is_metric()

    def test_weight_band(self, diam2_graphs):
        spec = LpSpec((4, 3))
        for g in diam2_graphs:
            red = reduce_to_path_tsp(g, spec)
            off = red.instance.weights[~np.eye(g.n, dtype=bool)]
            assert off.min() >= 3 and off.max() <= 6

    def test_distance_matrix_reused(self):
        g = gen.petersen_graph()
        red = reduce_to_path_tsp(g, L21)
        from repro.graphs.traversal import all_pairs_distances
        assert np.array_equal(red.distances, all_pairs_distances(g))


class TestClaim1:
    def test_prefix_sum_labeling(self):
        g = gen.cycle_graph(5)
        red = reduce_to_path_tsp(g, L21)
        order = [0, 2, 4, 1, 3]
        lab = labeling_from_order(red, order)
        # labels are cumulative path weights along the order
        w = red.instance.weights
        expected = 0
        prev = order[0]
        assert lab[order[0]] == 0
        for v in order[1:]:
            expected += w[prev, v]
            assert lab[v] == expected
            prev = v

    def test_span_equals_path_weight(self, diam2_graphs):
        rng = np.random.default_rng(0)
        for g in diam2_graphs:
            red = reduce_to_path_tsp(g, L21)
            for _ in range(5):
                order = rng.permutation(g.n).tolist()
                lab = labeling_from_order(red, order)
                assert lab.span == span_for_order(red, order)
                assert lab.is_feasible(g, L21)

    def test_claim1_minimality_per_permutation(self):
        """The prefix-sum labeling is optimal among labelings ordered by π.

        Verified by brute force: no labeling monotone along π with smaller
        span exists (search over small label vectors).
        """
        g = gen.cycle_graph(4)
        red = reduce_to_path_tsp(g, L21)
        order = [0, 1, 2, 3]
        lab = labeling_from_order(red, order)
        target = lab.span
        # exhaustive monotone labelings with span < target
        found_better = False
        for labels in itertools.product(range(target), repeat=4):
            mono = all(
                labels[order[i]] <= labels[order[i + 1]] for i in range(3)
            )
            if mono:
                from repro.labeling.labeling import Labeling
                if Labeling(labels).is_feasible(g, L21):
                    found_better = True
        assert not found_better

    def test_rejects_non_permutation(self):
        red = reduce_to_path_tsp(gen.cycle_graph(4), L21)
        with pytest.raises(SolverError):
            labeling_from_order(red, [0, 1, 2, 2])


class TestSolverFacade:
    def test_headline_theorem2_exhaustive_n4(self):
        """λ via TSP == λ via brute force on every applicable 4-vertex graph."""
        pairs = list(itertools.combinations(range(4), 2))
        checked = 0
        for mask in range(1 << len(pairs)):
            g = Graph(4, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
            for spec in (L21, L11, LpSpec((2, 2))):
                if not is_applicable(g, spec):
                    continue
                assert solve_labeling(g, spec, engine="held_karp").span == \
                    exact_span(g, spec)
                checked += 1
        # 26 connected diam<=2 graphs on 4 labelled vertices x 3 specs = 78
        assert checked == 78

    def test_headline_sampled_n6_multispec(self):
        rng = np.random.default_rng(3)
        specs = [L21, LpSpec((2, 1, 1)), LpSpec((2, 2, 1)), LpSpec((4, 3, 2))]
        checked = 0
        for _ in range(25):
            g = gen.random_connected_gnp(6, 0.45, seed=rng)
            for spec in specs:
                if not is_applicable(g, spec):
                    continue
                assert solve_labeling(g, spec, engine="held_karp").span == \
                    exact_span(g, spec)
                checked += 1
        assert checked >= 25

    def test_every_engine_feasible_output(self, diam2_graphs):
        from repro.tsp.portfolio import ENGINES
        g = diam2_graphs[0]
        for engine in ENGINES:
            r = solve_labeling(g, L21, engine=engine)
            assert r.labeling.is_feasible(g, L21)
            assert r.span == r.labeling.span

    def test_result_metadata(self):
        g = gen.petersen_graph()
        r = solve_labeling(g, L21, engine="held_karp")
        assert r.exact and r.engine == "held_karp"
        assert r.reduce_seconds >= 0 and r.solve_seconds >= 0
        assert r.order == r.path.order

    def test_auto_engine_selection(self):
        small = solve_labeling(gen.complete_graph(6), L21, engine="auto")
        assert small.engine == "held_karp" and small.exact
        big = solve_labeling(
            gen.random_graph_with_diameter_at_most(25, 2, seed=1), L21, engine="auto"
        )
        assert big.engine == "lk" and not big.exact

    def test_known_spans_via_pipeline(self):
        # closed-form families, solved through the TSP pipeline
        assert solve_labeling(gen.complete_graph(5), L21).span == 8
        assert solve_labeling(gen.cycle_graph(5), L21).span == 4
        assert solve_labeling(gen.star_graph(5), L21).span == 6
        assert solve_labeling(gen.complete_bipartite_graph(3, 4), L21).span == 7
        assert solve_labeling(gen.petersen_graph(), L21).span == 9

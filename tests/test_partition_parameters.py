"""Modular decomposition, modular-width, neighborhood diversity, coloring."""

import hashlib
import itertools

import pytest

from repro.errors import GraphError, InstanceTooLargeError, ReproError
from repro.graphs import generators as gen
from repro.graphs.cotree import random_cograph
from repro.graphs.graph import Graph
from repro.graphs.operations import complement, graph_power
from repro.partition.coloring import (
    MAX_COLORING_N,
    chromatic_number_exact,
    chromatic_number_via_twin_quotient,
    color_count,
    dsatur_coloring,
    false_twin_quotient,
    greedy_coloring,
    is_proper_coloring,
)
from repro.partition.modular import (
    MDNode,
    is_module,
    modular_decomposition,
    modular_width,
    smallest_containing_module,
)
from repro.partition.neighborhood_diversity import (
    neighborhood_diversity,
    twin_classes,
)


class TestModules:
    def test_is_module_basics(self):
        g = gen.complete_bipartite_graph(2, 3)
        assert is_module(g, [0, 1])          # one side is a module
        assert is_module(g, [2, 3, 4])
        assert is_module(g, list(range(5)))  # V is always a module
        assert is_module(g, [0])             # singletons are modules

    def test_p4_has_no_nontrivial_module(self):
        g = gen.path_graph(4)
        for size in (2, 3):
            for sub in itertools.combinations(range(4), size):
                assert not is_module(g, sub)

    def test_smallest_containing_module(self):
        g = gen.path_graph(4)
        assert smallest_containing_module(g, {0, 1}) == {0, 1, 2, 3}
        g2 = gen.complete_bipartite_graph(2, 3)
        assert smallest_containing_module(g2, {0, 1}) == {0, 1}

    def test_empty_seed_rejected(self):
        with pytest.raises(GraphError):
            smallest_containing_module(gen.path_graph(3), set())

    @pytest.mark.parametrize("bad", [99, 4, -1])
    def test_seed_vertices_must_exist(self, bad):
        g = gen.path_graph(4)
        with pytest.raises(GraphError, match="out of range"):
            smallest_containing_module(g, {bad})
        with pytest.raises(GraphError, match="out of range"):
            smallest_containing_module(g, {0, bad})
        with pytest.raises(GraphError, match="out of range"):
            is_module(g, [bad])


class TestDecomposition:
    def test_union_root(self):
        tree = modular_decomposition(gen.cluster_graph([2, 3]))
        assert tree.kind == "union" and len(tree.children) == 2

    def test_join_root(self):
        tree = modular_decomposition(gen.complete_bipartite_graph(2, 2))
        assert tree.kind == "join"

    def test_prime_root_p4(self):
        tree = modular_decomposition(gen.path_graph(4))
        assert tree.kind == "prime" and len(tree.children) == 4

    def test_children_partition_and_are_modules(self, random_connected_graphs):
        for g in random_connected_graphs[:10]:
            tree = modular_decomposition(g)
            seen: set[int] = set()
            for node in tree.iter_nodes():
                if node.children:
                    covered = []
                    for c in node.children:
                        covered.extend(c.vertices)
                    assert sorted(covered) == sorted(node.vertices)
                    # each child's vertex set is a module of the induced parent graph
                    from repro.graphs.operations import induced_subgraph
                    ids = list(node.vertices)
                    index = {v: i for i, v in enumerate(ids)}
                    sub = induced_subgraph(g, ids)
                    for c in node.children:
                        assert is_module(sub, [index[v] for v in c.vertices])
                else:
                    assert node.kind == "leaf" and len(node.vertices) == 1
                    seen.add(node.vertices[0])
            assert seen == set(range(g.n))

    def test_substituted_p4_prime_children(self):
        # P4 with vertex 1 blown up into a K2 module
        g = Graph(5, [(0, 1), (0, 4), (1, 4), (1, 2), (4, 2), (2, 3)])
        tree = modular_decomposition(g)
        assert tree.kind == "prime"
        sizes = sorted(len(c.vertices) for c in tree.children)
        assert sizes == [1, 1, 1, 2]


class TestModularWidth:
    def test_cographs_have_width_two(self):
        for s in range(6):
            assert modular_width(random_cograph(9, seed=s)) == 2

    def test_p4_width_four(self):
        assert modular_width(gen.path_graph(4)) == 4

    def test_cycle5_width_five(self):
        assert modular_width(gen.cycle_graph(5)) == 5

    def test_small_graphs_width_two(self):
        assert modular_width(Graph(1)) == 2
        assert modular_width(Graph(2, [(0, 1)])) == 2

    def test_proposition1_complement_invariance(self, random_connected_graphs):
        """Proposition 1: mw(G) == mw(complement of G)."""
        for g in random_connected_graphs[:12]:
            assert modular_width(g) == modular_width(complement(g))

    def test_blown_up_p4_keeps_width_four(self):
        g = Graph(5, [(0, 1), (0, 4), (1, 4), (1, 2), (4, 2), (2, 3)])
        assert modular_width(g) == 4


class TestNeighborhoodDiversity:
    def test_complete_bipartite(self):
        assert neighborhood_diversity(gen.complete_bipartite_graph(3, 4)) == 2

    def test_complete_graph_single_class(self):
        assert neighborhood_diversity(gen.complete_graph(5)) == 1

    def test_empty_graph_single_class(self):
        assert neighborhood_diversity(gen.empty_graph(5)) == 1
        assert neighborhood_diversity(Graph(0)) == 0

    def test_path4_all_singletons(self):
        assert neighborhood_diversity(gen.path_graph(4)) == 4

    def test_classes_are_cliques_or_independent(self, random_connected_graphs):
        from repro.graphs.operations import is_clique, is_independent_set
        for g in random_connected_graphs[:10]:
            for cls in twin_classes(g):
                assert is_clique(g, cls) or is_independent_set(g, cls)

    def test_classes_partition_vertices(self, random_connected_graphs):
        for g in random_connected_graphs[:10]:
            flat = sorted(v for c in twin_classes(g) for v in c)
            assert flat == list(range(g.n))

    def test_proposition2(self, random_connected_graphs):
        """Proposition 2: nd(G^2) <= mw(G) for connected G."""
        for g in random_connected_graphs[:12]:
            assert neighborhood_diversity(graph_power(g, 2)) <= modular_width(g)

    def test_nd_monotone_under_powers(self, random_connected_graphs):
        """nd(G^k) <= nd(G^2) for k >= 2 (cited from Fiala et al.)."""
        for g in random_connected_graphs[:8]:
            nd2 = neighborhood_diversity(graph_power(g, 2))
            for k in (3, 4):
                assert neighborhood_diversity(graph_power(g, k)) <= nd2


def brute_force_chromatic(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if len(set(assignment)) <= k and is_proper_coloring(g, assignment):
                return k
    return max(g.n, 1)


class TestColoring:
    def test_greedy_proper(self, random_connected_graphs):
        for g in random_connected_graphs[:8]:
            assert is_proper_coloring(g, greedy_coloring(g))

    def test_dsatur_proper(self, random_connected_graphs):
        for g in random_connected_graphs[:8]:
            assert is_proper_coloring(g, dsatur_coloring(g))

    def test_exact_matches_brute_force(self):
        cases = [
            gen.cycle_graph(5),      # chi 3
            gen.cycle_graph(6),      # chi 2
            gen.complete_graph(4),   # chi 4
            gen.petersen_graph(),    # chi 3
            gen.path_graph(5),       # chi 2
            gen.wheel_graph(5),      # chi 4
        ]
        expected = [3, 2, 4, 3, 2, 4]
        for g, e in zip(cases, expected):
            chi, colors = chromatic_number_exact(g)
            assert chi == e
            assert is_proper_coloring(g, colors) and color_count(colors) == chi

    def test_exact_random_vs_bruteforce(self, rng):
        for _ in range(6):
            g = gen.random_gnp(6, 0.5, seed=rng)
            chi, _ = chromatic_number_exact(g)
            assert chi == brute_force_chromatic(g)

    def test_size_cap(self):
        with pytest.raises(ReproError):
            chromatic_number_exact(gen.empty_graph(50))

    def test_size_cap_is_too_large(self):
        too_big = gen.empty_graph(MAX_COLORING_N + 1)
        with pytest.raises(InstanceTooLargeError, match=f"n={MAX_COLORING_N}"):
            chromatic_number_exact(too_big)
        # the quotient route caps the core: 41 false twins collapse to one
        assert chromatic_number_via_twin_quotient(too_big)[0] == 1
        with pytest.raises(InstanceTooLargeError):
            chromatic_number_via_twin_quotient(gen.complete_graph(MAX_COLORING_N + 1))

    def test_edge_cases(self):
        assert chromatic_number_exact(Graph(0)) == (0, [])
        assert chromatic_number_exact(gen.empty_graph(4))[0] == 1

    def test_twin_quotient_preserves_chi(self, random_connected_graphs):
        for g in random_connected_graphs[:10]:
            direct, _ = chromatic_number_exact(g)
            via, colors = chromatic_number_via_twin_quotient(g)
            assert via == direct
            assert is_proper_coloring(g, colors)

    def test_quotient_shrinks_twin_heavy_graphs(self):
        g = gen.complete_bipartite_graph(10, 12)
        core, reps, class_of = false_twin_quotient(g)
        assert core.n == 2 and len(reps) == 2
        assert all(0 <= class_of[v] < 2 for v in range(g.n))


def _structural_digest_graphs() -> list[Graph]:
    """The fixed graph set behind :func:`test_structural_outputs_are_pinned`."""
    from repro.harness.workloads import MATRIX, make_workload

    graphs = [
        gen.random_gnp(2 + s % 11, (0.2, 0.4, 0.6, 0.8)[s % 4], seed=s)
        for s in range(60)
    ]
    graphs += [random_cograph(n, seed=s) for n in (5, 9, 13, 19) for s in range(4)]
    families = sorted({leg.family for leg in MATRIX.values()})
    graphs += [make_workload(f, 20, s).graph for f in families for s in (0, 1)]
    graphs += [
        gen.path_graph(4),
        gen.cycle_graph(5),
        Graph(5, [(0, 1), (0, 4), (1, 4), (1, 2), (4, 2), (2, 3)]),
    ]
    return graphs


#: SHA-256 over every structural output of the graph set above.  A change
#: to the modular decomposition, the cograph test or the twin grouping
#: must keep it.
STRUCTURAL_DIGEST = "74cac543082de1c977c96ec139391e5948735f2da88e956116f706aa75db1c27"


def test_structural_outputs_are_pinned():
    from repro.graphs.cotree import is_cograph

    h = hashlib.sha256()
    for g in _structural_digest_graphs():
        tree = modular_decomposition(g)
        pre = [(node.kind, tuple(node.vertices)) for node in tree.iter_nodes()]
        _core, reps, class_of = false_twin_quotient(g)
        row = (
            g.n, sorted(g.edges()), pre, modular_width(g), is_cograph(g),
            twin_classes(g), reps, class_of,
        )
        h.update(repr(row).encode())
    assert h.hexdigest() == STRUCTURAL_DIGEST

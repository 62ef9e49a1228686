"""Cotree/cograph and IO tests."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.cotree import (
    Cotree,
    is_cograph,
    join_node,
    module_split,
    leaf,
    random_cograph,
    random_connected_cograph,
    random_cotree,
    union_node,
)
from repro.graphs.io import (
    from_edge_list_string,
    read_dimacs,
    read_edge_list,
    to_edge_list_string,
    write_dimacs,
    write_edge_list,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected


def _has_induced_p4(g: Graph) -> bool:
    """Brute force: some 4 vertices induce a path (degrees 1, 1, 2, 2)."""
    for quad in itertools.combinations(range(g.n), 4):
        degrees = sorted(len(g.neighbors(v) & set(quad)) for v in quad)
        if degrees == [1, 1, 2, 2]:
            return True
    return False


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, (p for p, k in zip(pairs, keep) if k))


class TestCotree:
    def test_leaf_graph(self):
        assert leaf().to_graph().n == 1

    def test_join_of_leaves_is_complete(self):
        t = join_node(leaf(), leaf(), leaf())
        assert t.to_graph().is_complete()

    def test_union_of_leaves_is_empty(self):
        t = union_node(leaf(), leaf(), leaf())
        assert t.to_graph().m == 0

    def test_p4_free_recognition(self):
        assert not is_cograph(gen.path_graph(4))
        assert is_cograph(gen.path_graph(3))
        assert is_cograph(gen.complete_graph(5))
        assert is_cograph(gen.complete_bipartite_graph(3, 4))
        assert not is_cograph(gen.cycle_graph(5))

    def test_random_cographs_are_cographs(self):
        for s in range(8):
            g = random_cograph(11, seed=s)
            assert g.n == 11
            assert is_cograph(g)

    def test_random_connected_cograph_connected(self):
        for s in range(5):
            g = random_connected_cograph(9, seed=s)
            assert is_connected(g) and is_cograph(g)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_is_cograph_matches_no_induced_p4(self, g):
        assert is_cograph(g) == (not _has_induced_p4(g))

    def test_module_split(self):
        kind, parts = module_split(gen.cluster_graph([2, 3]).adjacency_matrix())
        assert kind == "union"
        assert [p.tolist() for p in parts] == [[0, 1], [2, 3, 4]]
        kind, parts = module_split(gen.complete_bipartite_graph(2, 3).adjacency_matrix())
        assert kind == "join"
        assert [p.tolist() for p in parts] == [[0, 1], [2, 3, 4]]
        assert module_split(gen.path_graph(4).adjacency_matrix()) == ("prime", [])
        # parts come ordered by their smallest member, each sorted
        adj = np.zeros((4, 4), dtype=bool)
        adj[1, 3] = adj[3, 1] = True
        kind, parts = module_split(adj)
        assert [p.tolist() for p in parts] == [[0], [1, 3], [2]]

    def test_cotree_n_leaves(self):
        t = random_cotree(13, seed=0)
        assert t.n_leaves == 13

    def test_internal_node_needs_children(self):
        with pytest.raises(GraphError):
            Cotree("join", (leaf(),))

    def test_leaf_cannot_have_children(self):
        with pytest.raises(GraphError):
            Cotree("leaf", (leaf(),))


class TestEdgeListIO:
    def test_roundtrip_string(self, small_graph_zoo):
        for g in small_graph_zoo:
            assert from_edge_list_string(to_edge_list_string(g)) == g

    def test_roundtrip_file(self, tmp_path):
        g = gen.petersen_graph()
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert read_edge_list(p) == g

    def test_bad_header(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("3\n"))

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("3 2\n0 1\n"))


class TestEdgeListStream:
    def test_multiple_blocks(self, small_graph_zoo):
        from repro.graphs.io import read_edge_list_stream
        text = "".join(to_edge_list_string(g) for g in small_graph_zoo)
        got = list(read_edge_list_stream(io.StringIO(text)))
        assert got == small_graph_zoo

    def test_blank_lines_between_blocks(self):
        from repro.graphs.io import read_edge_list_stream
        text = "2 1\n0 1\n\n\n3 2\n0 1\n1 2\n"
        got = list(read_edge_list_stream(io.StringIO(text)))
        assert [g.n for g in got] == [2, 3]

    def test_truncated_block(self):
        from repro.graphs.io import read_edge_list_stream
        with pytest.raises(GraphError):
            list(read_edge_list_stream(io.StringIO("3 2\n0 1\n")))

    def test_duplicate_edge_mismatch(self):
        # duplicate edge lines coalesce; header count must match the graph
        from repro.graphs.io import read_edge_list_stream
        with pytest.raises(GraphError):
            list(read_edge_list_stream(io.StringIO("3 3\n0 1\n0 1\n1 2\n")))


class TestDimacsIO:
    def test_roundtrip(self, tmp_path):
        g = gen.cycle_graph(5)
        p = tmp_path / "g.col"
        write_dimacs(g, p, comment="five cycle\nsecond line")
        assert read_dimacs(p) == g

    def test_missing_problem_line(self):
        with pytest.raises(GraphError):
            read_dimacs(io.StringIO("e 1 2\n"))

    def test_unknown_line(self):
        with pytest.raises(GraphError):
            read_dimacs(io.StringIO("p edge 2 1\nx 1 2\n"))

    def test_comments_ignored(self):
        g = read_dimacs(io.StringIO("c hello\np edge 3 1\ne 1 3\n"))
        assert g.has_edge(0, 2) and g.m == 1

"""The GraphAnalysis oracle: vectorized APSP, memoization, single-compute.

Three layers of guarantees:

1. **kernel correctness** — the vectorized multi-source APSP is bit-identical
   to the per-source BFS reference on random, disconnected, empty and
   single-vertex graphs;
2. **oracle discipline** — analyses are memoized per graph instance and
   invalidated by the mutation counter;
3. **the one-APSP invariant** — an end-to-end solve (plain, via the service,
   or a session mutation) runs the APSP kernel exactly once, asserted by
   snapshotting :func:`repro.graphs.traversal.apsp_run_count`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError
from repro.graphs import generators as gen
from repro.graphs.analysis import GraphAnalysis, attach_distances, get_analysis
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union, relabel
from repro.graphs.traversal import (
    all_pairs_distances,
    all_pairs_distances_reference,
    apsp_run_count,
    bfs_distances,
    diameter,
    distance_rows_dense,
    eccentricities,
    eccentricity,
    radius,
)
from repro.labeling.spec import L21
from repro.reduction.solver import solve_labeling
from repro.service.server import ConcurrentLabelingService
from repro.service.protocol import SolveRequest
from repro.session import LabelingSession


# ---------------------------------------------------------------------------
# 1. vectorized kernel vs per-source BFS reference
# ---------------------------------------------------------------------------
def test_apsp_empty_graph():
    g = Graph(0)
    assert all_pairs_distances(g).shape == (0, 0)
    assert np.array_equal(all_pairs_distances(g), all_pairs_distances_reference(g))


def test_apsp_single_vertex():
    g = Graph(1)
    assert all_pairs_distances(g).tolist() == [[0]]


def test_apsp_edgeless_graph():
    g = Graph(4)
    d = all_pairs_distances(g)
    assert np.array_equal(d, all_pairs_distances_reference(g))
    assert d[0, 1] == -1 and d[2, 2] == 0


def test_apsp_disconnected_components():
    g = disjoint_union(gen.cycle_graph(5), gen.path_graph(4))
    d = all_pairs_distances(g)
    assert np.array_equal(d, all_pairs_distances_reference(g))
    assert d[0, 5] == -1 and d[5, 0] == -1


@pytest.mark.parametrize("seed", range(8))
def test_apsp_random_graphs_match_reference(seed):
    local = np.random.default_rng(seed)   # reproducible per parametrized case
    n = int(local.integers(2, 14))
    p = float(local.uniform(0.1, 0.9))
    g = gen.random_gnp(n, p, seed=local)  # may be disconnected — on purpose
    assert np.array_equal(all_pairs_distances(g), all_pairs_distances_reference(g))


def test_apsp_matches_reference_on_zoo(small_graph_zoo):
    for g in small_graph_zoo:
        assert np.array_equal(
            all_pairs_distances(g), all_pairs_distances_reference(g)
        ), g


def test_apsp_rows_match_single_source_bfs(random_connected_graphs):
    for g in random_connected_graphs[:5]:
        d = all_pairs_distances(g)
        for s in range(g.n):
            assert np.array_equal(d[s], bfs_distances(g, s))


def test_partial_distance_rows_are_not_an_apsp_run():
    g = gen.petersen_graph()
    adj = g.adjacency_matrix(dtype=np.bool_)
    before = apsp_run_count()
    rows = distance_rows_dense(adj, np.array([2, 5]))
    assert apsp_run_count() == before  # only full matrices count
    assert np.array_equal(rows, all_pairs_distances_reference(g)[[2, 5]])
    all_pairs_distances(g)
    assert apsp_run_count() == before + 1


# ---------------------------------------------------------------------------
# 2. oracle memoization + invalidation
# ---------------------------------------------------------------------------
def test_get_analysis_memoizes_per_instance():
    g = gen.petersen_graph()
    assert get_analysis(g) is get_analysis(g)
    # a copy is a different instance with its own (cold) oracle
    assert get_analysis(g.copy()) is not get_analysis(g)


def test_analysis_distance_computed_once_per_version():
    g = gen.cycle_graph(6)
    before = apsp_run_count()
    a = get_analysis(g)
    d1 = a.distances
    d2 = get_analysis(g).distances
    assert d1 is d2
    assert apsp_run_count() == before + 1


def test_mutation_invalidates_analysis():
    g = gen.path_graph(4)
    a = get_analysis(g)
    assert a.distances[0, 3] == 3
    g.add_edge(0, 3)
    b = get_analysis(g)
    assert b is not a
    assert not a.is_current() and b.is_current()
    assert b.distances[0, 3] == 1
    g.remove_edge(0, 3)
    c = get_analysis(g)
    assert c is not b
    assert c.distances[0, 3] == 3


def test_add_vertex_invalidates_analysis():
    g = gen.cycle_graph(4)
    a = get_analysis(g)
    g.add_vertex()
    b = get_analysis(g)
    assert b is not a
    assert b.n == 5 and not b.is_connected


def test_csr_and_degree_stats():
    g = gen.star_graph(4)   # center 0 + 4 leaves
    a = get_analysis(g)
    assert a.degrees.tolist() == [4, 1, 1, 1, 1]
    assert a.max_degree == 4
    assert a.degree_histogram().tolist() == [0, 4, 0, 0, 1]
    assert a.neighbors_array(0).tolist() == [1, 2, 3, 4]
    assert a.neighbors_array(2).tolist() == [0]
    assert a.indptr.tolist() == [0, 4, 5, 6, 7, 8]


def test_components_and_connectivity():
    g = disjoint_union(gen.complete_graph(3), gen.path_graph(2))
    a = get_analysis(g)
    assert not a.is_connected
    assert a.components == [[0, 1, 2], [3, 4]]
    assert a.component_count == 2
    assert get_analysis(gen.cycle_graph(5)).component_count == 1


def test_attach_distances_seeds_oracle():
    g = gen.cycle_graph(5)
    d = all_pairs_distances_reference(g)
    before = apsp_run_count()
    a = attach_distances(g, d)
    assert get_analysis(g) is a
    assert a.distances is not None and a.diameter == 2
    assert apsp_run_count() == before   # seeded, never recomputed
    with pytest.raises(ValueError):
        attach_distances(g, d[:3, :3])


def test_stale_analysis_rejected():
    from repro.reduction.validation import analyze

    g = gen.random_graph_with_diameter_at_most(7, 2, seed=2)
    stale = get_analysis(g)
    dist = stale.distances   # cached values stay servable after mutation
    non_edge = next(
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    )
    g.add_edge(*non_edge)
    assert dist is stale.distances   # snapshot reads still fine
    # the check reads the mutated graph's own oracle, never the stale one
    report = analyze(g, L21)
    assert report.analysis is get_analysis(g)
    assert report.analysis is not stale and report.analysis.is_current()


def test_stale_analysis_never_computes_from_mutated_graph():
    g = gen.cycle_graph(5)
    stale = get_analysis(g)   # nothing lazy computed yet
    g.add_edge(0, 2)
    with pytest.raises(ValueError):
        stale.distances
    with pytest.raises(ValueError):
        stale.components


# ---------------------------------------------------------------------------
# 3. oracle-routed structural queries
# ---------------------------------------------------------------------------
def test_eccentricities_vector_matches_scalar():
    g = gen.grid_graph(3, 3)
    ecc = eccentricities(g)
    assert ecc.tolist() == [eccentricity(g, v) for v in range(g.n)]
    assert diameter(g) == int(ecc.max())
    assert radius(g) == int(ecc.min())


def test_disconnected_rejected_before_apsp():
    g = disjoint_union(gen.cycle_graph(4), gen.cycle_graph(4))
    before = apsp_run_count()
    with pytest.raises(DisconnectedGraphError):
        diameter(g)
    with pytest.raises(DisconnectedGraphError):
        eccentricities(g)
    # the single-BFS pre-check fails fast: no full APSP was spent
    assert apsp_run_count() == before


def test_trivial_diameter_radius():
    assert diameter(Graph(0)) == 0 and radius(Graph(0)) == 0
    assert diameter(Graph(1)) == 0 and radius(Graph(1)) == 0


# ---------------------------------------------------------------------------
# 4. the one-APSP-per-solve invariant
# ---------------------------------------------------------------------------
def test_plain_solve_computes_apsp_once():
    g = gen.random_graph_with_diameter_at_most(9, 2, seed=3).copy()  # cold
    before = apsp_run_count()
    result = solve_labeling(g, L21, engine="held_karp")
    assert apsp_run_count() == before + 1
    assert result.labeling.is_feasible(g, L21)
    # ... and the feasibility re-check above reused the same oracle
    assert apsp_run_count() == before + 1


def test_service_submit_computes_apsp_once():
    """Acceptance: canonical key + miss solve + verify = exactly one APSP."""
    g = gen.random_graph_with_diameter_at_most(10, 2, seed=17).copy()  # cold
    with ConcurrentLabelingService(workers=1) as svc:
        before = apsp_run_count()
        result = svc.submit(
            SolveRequest(g, L21, engine="held_karp", tier="exact")
        ).result()
        assert apsp_run_count() == before + 1
        assert not result.cached

        # isomorphic resubmit: one APSP for the new graph's canonical key,
        # none for solving (served from cache)
        h = relabel(g, list(reversed(range(g.n))))
        before = apsp_run_count()
        again = svc.submit(
            SolveRequest(h, L21, engine="held_karp", tier="exact")
        ).result()
        assert again.cached and again.span == result.span
        assert apsp_run_count() == before + 1


def test_session_mutation_computes_zero_apsp():
    g = gen.random_graph_with_diameter_at_most(8, 2, seed=23)
    session = LabelingSession(g, L21, engine="held_karp")
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    u, v = non_edges[0]
    before = apsp_run_count()
    session.add_edge(u, v)
    # the dynamic fast path repairs the previous oracle across the trial
    # copy: applicability check + re-solve + verify run no APSP kernel
    assert apsp_run_count() == before


def test_graph_power_shares_oracle():
    g = gen.cycle_graph(7).copy()
    from repro.graphs.operations import graph_power

    before = apsp_run_count()
    get_analysis(g).distances
    graph_power(g, 2)
    graph_power(g, 3)
    assert apsp_run_count() == before + 1


# ---------------------------------------------------------------------------
# 5. the stats CLI rides on one analysis
# ---------------------------------------------------------------------------
def test_cli_stats(tmp_path, capsys):
    import json

    from repro.cli import main as cli_main
    from repro.graphs import io as gio

    path = tmp_path / "g.txt"
    gio.write_edge_list(gen.petersen_graph(), path)
    assert cli_main(["stats", str(path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {
        "n": 10,
        "m": 15,
        "components": 1,
        "max_degree": 3,
        "degree_histogram": [0, 0, 0, 10],
        "diameter": 2,
        "radius": 2,
    }

    assert cli_main(["stats", str(path)]) == 0
    text = capsys.readouterr().out
    assert "diameter: 2" in text and "3: 10" in text


def test_cli_stats_disconnected(tmp_path, capsys):
    import json

    from repro.cli import main as cli_main
    from repro.graphs import io as gio

    path = tmp_path / "g.txt"
    gio.write_edge_list(disjoint_union(gen.path_graph(2), gen.path_graph(3)), path)
    assert cli_main(["stats", str(path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["components"] == 2
    assert record["diameter"] is None and record["radius"] is None


# ---------------------------------------------------------------------------
# 6. layering
# ---------------------------------------------------------------------------
def test_graphs_package_imports_only_lower_layers():
    """``repro.graphs`` is the bottom layer: no import reaches upward.

    Walks every import statement, function-level ones included, so a lazy
    ``from repro.dynamic import ...`` inside a method is caught too.
    """
    import repro.graphs

    allowed = ("repro.graphs", "repro.errors", "repro.obs")
    offenders = []
    for path in sorted(Path(repro.graphs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"relative import in {path.name}"
                names = [node.module]
            else:
                continue
            for name in names:
                internal = name == "repro" or name.startswith("repro.")
                if internal and not any(
                    name == a or name.startswith(a + ".") for a in allowed
                ):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, offenders

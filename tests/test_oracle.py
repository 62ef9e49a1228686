"""Blocked lazy distance oracle: bit-identity, LRU residency, promotion.

The oracle's contract — row blocks materialized on demand over the CSR
adjacency, bit-identical to the per-source BFS reference, held under a byte
budget, ``int16`` until a level overflows — is exercised here with
hypothesis over random/disconnected/mutated graphs plus deterministic LRU
and dtype-boundary cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphs.analysis as analysis_mod
from repro.graphs import generators as gen
from repro.graphs.analysis import GraphAnalysis, LazyDistanceOracle, get_analysis
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    UNREACHABLE,
    all_pairs_distances_reference,
    apsp_run_count,
    distance_rows_csr,
)
from repro.obs import REGISTRY

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, min_n=1, max_n=20):
    """Random graphs, connectedness NOT enforced (the oracle must not care)."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, (p for p, keep in zip(pairs, mask) if keep))


def blocked_analysis(g: Graph, mp, **knobs) -> GraphAnalysis:
    """A fresh analysis forced onto the blocked path (dense limit -> 0)."""
    mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
    a = GraphAnalysis(g)
    if knobs:
        a.configure_oracle(**knobs)
    return a


# ---------------------------------------------------------------------------
# bit-identity properties
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(graphs())
def test_blocked_assembly_matches_reference(g):
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=3)
        ref = all_pairs_distances_reference(g)
        assert np.array_equal(np.asarray(a.distances), ref)


@settings(**SETTINGS)
@given(graphs(min_n=2))
def test_blocked_rows_match_reference_rowwise(g):
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=4, budget_bytes=8 * g.n)
        ref = all_pairs_distances_reference(g)
        for v in range(g.n):
            assert np.array_equal(np.asarray(a.row(v)), ref[v]), v
        # arbitrary multi-block slices agree too
        assert np.array_equal(np.asarray(a.rows(1, g.n)), ref[1:])


@settings(**SETTINGS)
@given(graphs(min_n=2), st.data())
def test_blocked_matches_reference_after_mutation(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        get_analysis(g).distances  # warm the pre-mutation snapshot
        if u != v:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        fresh = get_analysis(g)
        fresh.configure_oracle(block_rows=3)
        assert np.array_equal(
            np.asarray(fresh.distances), all_pairs_distances_reference(g)
        )


def test_blocked_assembly_runs_no_dense_kernel():
    g = gen.path_graph(40)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        before = apsp_run_count()
        get_analysis(g).distances
        assert apsp_run_count() == before


# ---------------------------------------------------------------------------
# LRU residency: budget, eviction, re-materialization
# ---------------------------------------------------------------------------
def test_lru_eviction_and_rematerialization():
    g = gen.path_graph(32)
    ref = all_pairs_distances_reference(g)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        block_bytes = 4 * 32 * 2  # 4 rows x n of int16
        oracle = a.configure_oracle(block_rows=4, budget_bytes=2 * block_bytes)
        for v in range(g.n):  # full sweep: 8 blocks through a 2-block budget
            assert np.array_equal(np.asarray(a.row(v)), ref[v])
            assert oracle.resident_bytes <= oracle.budget_bytes
        stats = oracle.stats()
        assert stats["evictions"] >= 6
        assert stats["resident_blocks"] == 2
        assert stats["peak_bytes"] == 2 * block_bytes
        # the evicted first block re-materializes bit-identically (a miss)
        misses = oracle.counters["misses"]
        assert np.array_equal(np.asarray(a.row(0)), ref[0])
        assert oracle.counters["misses"] == misses + 1


def test_single_block_larger_than_budget_is_still_served():
    g = gen.path_graph(16)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        oracle = a.configure_oracle(block_rows=8, budget_bytes=1)
        row = a.row(3)
        assert int(row[0]) == 3
        assert oracle.resident_bytes == 8 * 16 * 2  # the one oversized block
        assert not row.flags.writeable


def test_lru_keeps_recently_used_block():
    g = gen.path_graph(16)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        block_bytes = 4 * 16 * 2
        oracle = a.configure_oracle(block_rows=4, budget_bytes=2 * block_bytes)
        a.row(0)  # block 0
        a.row(4)  # block 1
        a.row(0)  # touch block 0: block 1 is now least recent
        a.row(8)  # block 2 evicts block 1, not block 0
        hits = oracle.counters["hits"]
        a.row(1)
        assert oracle.counters["hits"] == hits + 1  # block 0 still resident


def test_peak_bytes_is_a_high_water_mark():
    g = gen.path_graph(24)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        oracle = a.configure_oracle(block_rows=4, budget_bytes=10**9)
        for v in range(g.n):
            a.row(v)
        assert oracle.peak_bytes == oracle.resident_bytes == 6 * 4 * 24 * 2
        assert float(REGISTRY.value("repro_oracle_peak_bytes")) >= oracle.peak_bytes


# ---------------------------------------------------------------------------
# dtype promotion on level overflow
# ---------------------------------------------------------------------------
def test_int8_block_promotes_and_matches_reference():
    g = gen.path_graph(200)  # diameter 199 > int8 max
    indptr, indices = g.csr_arrays()
    before = REGISTRY.value("repro_oracle_promotions_total")
    rows = distance_rows_csr(
        indptr, indices, np.array([0]), g.n, dtype=np.int8
    )
    assert rows.dtype == np.int16
    assert REGISTRY.value("repro_oracle_promotions_total") == before + 1
    assert rows[0].tolist() == list(range(200))


def test_int16_boundary_promotes_to_int32():
    n = 32771  # path diameter 32770 crosses the int16 max of 32767
    g = gen.path_graph(n)
    indptr, indices = g.csr_arrays()
    rows = distance_rows_csr(indptr, indices, np.array([0]), n)
    assert rows.dtype == np.int32
    assert int(rows[0, -1]) == n - 1
    assert int(rows[0, 32767]) == 32767


def test_unreachable_pairs_hold_sentinel():
    g = Graph(6, [(0, 1), (2, 3)])  # three components, one isolated pair
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=2)
        assert int(a.row(0)[5]) == UNREACHABLE
        assert int(a.row(4)[4]) == 0


# ---------------------------------------------------------------------------
# consumer equivalence: blocked vs dense give identical labelings
# ---------------------------------------------------------------------------
def test_greedy_labeling_identical_blocked_vs_dense():
    from repro.labeling.greedy import greedy_labeling
    from repro.labeling.spec import L21

    g = gen.random_graph_with_diameter_at_most(40, 2, seed=3)
    dense = greedy_labeling(g.copy(), L21)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        h = g.copy()
        blocked = greedy_labeling(h, L21)
        assert get_analysis(h)._distances is None  # never went dense
    assert blocked.labels == dense.labels


def test_oracle_stats_shape_without_any_access():
    a = get_analysis(gen.path_graph(5))
    stats = a.oracle_stats()
    assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
    assert stats["hit_rate"] == 0.0

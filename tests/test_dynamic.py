"""Dynamic-engine tests: delta repair vs reference APSP, session fast path.

The load-bearing property: **any** mutation stream (edge inserts, edge
deletes, vertex additions, undo) maintained by the dynamic layer yields a
distance matrix bit-identical to a from-scratch reference APSP at every
step — asserted here over seeded random streams, a hypothesis-driven
program of operations, and the named churn legs the perf suite measures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import (
    DELETE_FALLBACK_FRACTION,
    DeltaEngine,
    affected_sources,
    distance_rows,
    full_apsp_refresh_count,
    relax_insert,
)
from repro.errors import ReductionNotApplicableError
from repro.graphs import generators as gen
from repro.graphs.analysis import attach_distances, get_analysis
from repro.graphs.graph import Graph, MUTATION_LOG_CAPACITY, Mutation
from repro.graphs.traversal import (
    all_pairs_distances_reference,
    apsp_run_count,
)
from repro.harness.workloads import DYNAMIC, apply_churn_op, churn_stream
from repro.labeling.spec import L21
from repro.service.server import ConcurrentLabelingService
from repro.session import LabelingSession


def _assert_engine_matches(engine: DeltaEngine, graph: Graph) -> None:
    dist = engine.refresh(graph)
    ref = all_pairs_distances_reference(graph)
    assert np.array_equal(dist, ref), "delta repair diverged from reference"


# ---------------------------------------------------------------------------
# 1. mutation log on Graph
# ---------------------------------------------------------------------------
class TestMutationLog:
    def test_records_every_structural_change(self):
        g = Graph(3)
        v0 = g.version
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(0, 1)
        w = g.add_vertex()
        ops = [m.op for m in g.mutations_since(v0)]
        assert ops == ["add_edge", "add_edge", "remove_edge", "add_vertex"]
        assert g.mutation_log[-1] == Mutation(g.version, "add_vertex", w, -1)

    def test_duplicate_add_is_not_logged(self):
        g = Graph(3, [(0, 1)])
        v = g.version
        g.add_edge(1, 0)  # coalesced duplicate: no version bump, no record
        assert g.version == v
        assert g.mutations_since(v) == ()

    def test_gap_beyond_window_returns_none(self):
        g = Graph(2)
        base_version = g.version
        for _ in range(MUTATION_LOG_CAPACITY + 5):
            g.add_vertex()
        assert g.mutations_since(base_version) is None
        recent = g.version - 3
        assert len(g.mutations_since(recent)) == 3

    def test_future_version_returns_none(self):
        g = Graph(2)
        assert g.mutations_since(g.version + 1) is None

    def test_copy_preserves_version_and_log(self):
        g = Graph(4, [(0, 1), (1, 2)])
        h = g.copy()
        assert h.version == g.version
        assert h.mutation_log == g.mutation_log
        h.add_edge(2, 3)
        assert g.mutations_since(g.version) == ()  # original untouched
        assert [m.op for m in h.mutations_since(g.version)] == ["add_edge"]


# ---------------------------------------------------------------------------
# 2. kernels
# ---------------------------------------------------------------------------
class TestKernels:
    def test_relax_insert_matches_reference(self):
        g = gen.random_connected_gnp(10, 0.3, seed=1)
        dist = all_pairs_distances_reference(g)
        absent = [(u, v) for u in range(10) for v in range(u + 1, 10)
                  if not g.has_edge(u, v)]
        for u, v in absent[:6]:
            g.add_edge(u, v)
            relax_insert(dist, u, v)
            assert np.array_equal(dist, all_pairs_distances_reference(g))

    def test_relax_insert_bridges_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two paths
        dist = all_pairs_distances_reference(g)
        assert dist[0, 3] == -1
        g.add_edge(2, 3)
        relax_insert(dist, 2, 3)
        assert np.array_equal(dist, all_pairs_distances_reference(g))
        assert dist[0, 5] == 5

    def test_affected_sources_is_sound_superset(self):
        # rows outside the superset provably keep their distances
        g = gen.random_connected_gnp(12, 0.35, seed=5)
        for u, v in list(g.edges())[:8]:
            before = all_pairs_distances_reference(g)
            touched = set(affected_sources(before, u, v).tolist())
            g.remove_edge(u, v)
            after = all_pairs_distances_reference(g)
            unchanged = [i for i in range(g.n) if i not in touched]
            assert np.array_equal(before[unchanged], after[unchanged])
            g.add_edge(u, v)

    @pytest.mark.parametrize("sources", [[0, 3, 7], []], ids=["rows", "empty"])
    @pytest.mark.parametrize(
        "dtype", [np.int64, np.int16], ids=["int64", "int16"]
    )
    @pytest.mark.parametrize("shape", ["connected", "disconnected"])
    @pytest.mark.parametrize("regime", ["dense", "csr"])
    def test_distance_rows_matches_reference(
        self, monkeypatch, regime, shape, dtype, sources
    ):
        if regime == "csr":  # every n is above the limit: CSR kernel
            monkeypatch.setattr(
                "repro.graphs.analysis.DENSE_MATERIALIZE_LIMIT", 0
            )
        if shape == "connected":
            g = gen.petersen_graph()
        else:  # a path, a triangle and an isolated vertex
            g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
        adj = g.adjacency_matrix(dtype=np.bool_)
        sources = np.array(sources, dtype=np.int64)
        rows = distance_rows(adj, sources, dtype=dtype)
        assert rows.dtype == dtype and rows.shape == (len(sources), g.n)
        ref = all_pairs_distances_reference(g)
        assert np.array_equal(rows, ref[sources])


# ---------------------------------------------------------------------------
# 3. the engine over mutation streams (the property)
# ---------------------------------------------------------------------------
class TestDeltaEngineStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_stream_matches_reference_every_step(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.random_connected_gnp(9 + seed, 0.35, seed=seed)
        engine = DeltaEngine(g)
        undo: list[tuple[str, int, int]] = []
        for _ in range(60):
            roll = rng.random()
            if roll < 0.30 and g.m > 1:
                edges = list(g.edges())
                u, v = edges[int(rng.integers(len(edges)))]
                g.remove_edge(u, v)
                undo.append(("add_edge", u, v))
            elif roll < 0.40 and undo:
                apply_churn_op(g, undo.pop())  # undo a prior change
            elif roll < 0.50:
                w = g.add_vertex()
                if rng.random() < 0.8 and g.n > 1:
                    g.add_edge(int(rng.integers(g.n - 1)), w)
            else:
                absent = [(u, v) for u in range(g.n)
                          for v in range(u + 1, g.n) if not g.has_edge(u, v)]
                if not absent:
                    continue
                u, v = absent[int(rng.integers(len(absent)))]
                g.add_edge(u, v)
                undo.append(("remove_edge", u, v))
            _assert_engine_matches(engine, g)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 7),
        program=st.lists(
            st.tuples(st.sampled_from(["add", "remove", "grow"]),
                      st.integers(0, 10 ** 6)),
            min_size=1, max_size=12,
        ),
    )
    def test_hypothesis_program_matches_reference(self, n, program):
        g = gen.cycle_graph(n)
        engine = DeltaEngine(g)
        for kind, pick in program:
            if kind == "grow":
                w = g.add_vertex()
                if pick % 2 and g.n > 1:
                    g.add_edge(pick % (g.n - 1), w)
            elif kind == "add":
                absent = [(u, v) for u in range(g.n)
                          for v in range(u + 1, g.n) if not g.has_edge(u, v)]
                if not absent:
                    continue
                g.add_edge(*absent[pick % len(absent)])
            else:
                edges = list(g.edges())
                if not edges:
                    continue
                g.remove_edge(*edges[pick % len(edges)])
            _assert_engine_matches(engine, g)

    @pytest.mark.parametrize("leg", list(DYNAMIC))
    def test_named_churn_legs_are_deterministic_and_correct(self, leg):
        base_a, ops_a = churn_stream(leg)
        base_b, ops_b = churn_stream(leg)
        assert ops_a == ops_b and base_a == base_b  # bit-for-bit regenerable
        g = base_a.copy()
        engine = DeltaEngine(g)
        for op in ops_a[:15]:
            apply_churn_op(g, op)
        _assert_engine_matches(engine, g)  # multi-op gap in one refresh

    def test_disconnecting_delete_is_exact(self):
        g = gen.path_graph(6)
        engine = DeltaEngine(g)
        g.remove_edge(2, 3)  # splits the path
        dist = engine.refresh(g)
        assert np.array_equal(dist, all_pairs_distances_reference(g))
        assert dist[0, 5] == -1

    def test_over_threshold_delete_falls_back_and_stays_exact(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.dynamic.engine.DELETE_FALLBACK_FRACTION", 0.1
        )
        g = gen.complete_graph(8)  # every row touches every edge
        engine = DeltaEngine(g)
        before = full_apsp_refresh_count()
        g.remove_edge(0, 1)
        _assert_engine_matches(engine, g)
        assert full_apsp_refresh_count() == before + 1

    def test_trimmed_window_falls_back_and_stays_exact(self):
        g = gen.cycle_graph(6)
        engine = DeltaEngine(g)
        for _ in range(MUTATION_LOG_CAPACITY + 3):
            w = g.add_vertex()
            g.add_edge(0, w)
        before = full_apsp_refresh_count()
        _assert_engine_matches(engine, g)
        assert full_apsp_refresh_count() == before + 1

    def test_divergent_sibling_copies_resync_instead_of_corrupting(self):
        # two copies of the same ancestor, mutated differently, reach the
        # same version/n/m — only the mutation-log witness tells them apart
        g = gen.cycle_graph(6)
        engine = DeltaEngine(g)
        t1 = g.copy()
        t1.add_edge(0, 2)
        assert np.array_equal(
            engine.refresh(t1), all_pairs_distances_reference(t1)
        )
        t2 = g.copy()
        t2.add_edge(1, 4)
        dist = engine.refresh(t2)
        assert np.array_equal(dist, all_pairs_distances_reference(t2))
        assert dist[0, 2] == 2  # t1's chord must not leak into t2's matrix

    def test_unrelated_graphs_with_matching_last_record_resync(self):
        # two independent graphs can coincide on their single newest
        # record; the suffix witness must still tell them apart
        g1 = Graph(5)
        g1.add_edge(0, 2)
        g1.add_edge(0, 1)
        g2 = Graph(5)
        g2.add_edge(3, 4)
        g2.add_edge(0, 1)  # same last record as g1, different lineage
        engine = DeltaEngine(g1)
        g2.add_edge(1, 2)
        dist = engine.refresh(g2)
        assert np.array_equal(dist, all_pairs_distances_reference(g2))
        assert dist[0, 2] == 2 and dist[3, 4] == 1

    def test_foreign_graph_resyncs_instead_of_corrupting(self):
        g = gen.cycle_graph(6)
        engine = DeltaEngine(g)
        other = gen.star_graph(7)  # unrelated lineage, different version
        before = full_apsp_refresh_count()
        dist = engine.refresh(other)
        assert np.array_equal(dist, all_pairs_distances_reference(other))
        assert full_apsp_refresh_count() == before + 1

    def test_attach_requires_sync_and_installs_oracle(self):
        g = gen.cycle_graph(5)
        engine = DeltaEngine(g)
        g.add_edge(0, 2)
        with pytest.raises(ValueError, match="not synced"):
            engine.attach(g)
        engine.refresh(g)
        analysis = engine.attach(g)
        assert get_analysis(g) is analysis
        # attach copies: later engine refreshes must not mutate the oracle
        snapshot = analysis.distances.copy()
        g.add_edge(1, 3)
        engine.refresh(g)
        assert np.array_equal(analysis.distances, snapshot)


# ---------------------------------------------------------------------------
# 4. session fast path
# ---------------------------------------------------------------------------
class TestSessionFastPath:
    def test_mutations_run_zero_apsp(self):
        g = gen.random_graph_with_diameter_at_most(9, 2, seed=11)
        s = LabelingSession(g, L21, engine="held_karp")
        absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if not g.has_edge(u, v)]
        before = apsp_run_count()
        s.add_edge(*absent[0])
        s.add_vertex(connect_to=list(range(5)))
        s.remove_edge(*absent[0])
        assert apsp_run_count() == before

    def test_fast_path_spans_match_cold_solves(self):
        g = gen.random_graph_with_diameter_at_most(8, 2, seed=31)
        s = LabelingSession(g, L21, engine="held_karp")
        absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if not g.has_edge(u, v)]
        for u, v in absent[:3]:
            s.add_edge(u, v)
            cold = LabelingSession(s.graph, L21, engine="held_karp")
            assert s.span == cold.span
            assert s.labeling.is_feasible(s.graph, L21)

    def test_rejected_mutation_resets_engine_but_not_state(self):
        s = LabelingSession(gen.cycle_graph(5), L21, engine="held_karp")
        with pytest.raises(ReductionNotApplicableError):
            s.add_vertex(connect_to=[0])  # pendant: diameter 3
        # the session still fast-paths correctly after the rollback
        before = apsp_run_count()
        delta = s.add_edge(0, 2)
        assert delta.span_after >= delta.span_before
        assert apsp_run_count() == before
        assert s.labeling.is_feasible(s.graph, L21)

    def test_service_session_reuses_canonical_key_without_apsp(self):
        g = gen.random_graph_with_diameter_at_most(9, 2, seed=4)
        with ConcurrentLabelingService(workers=1) as svc:
            s = LabelingSession(g, L21, engine="lk", service=svc)
            absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                      if not g.has_edge(u, v)]
            u, v = absent[0]
            before = apsp_run_count()
            s.add_edge(u, v)
            assert apsp_run_count() == before
            # undo returns to a cached topology: a warm hit, still zero APSP
            before = apsp_run_count()
            delta = s.remove_edge(u, v)
            assert s.current.cached
            assert apsp_run_count() == before
            assert delta.span_after == s.history[0].span


# ---------------------------------------------------------------------------
# 5. perf scenario + CLI
# ---------------------------------------------------------------------------
class TestDynamicPerfAndCli:
    def test_scenario_emits_gated_metric(self):
        from repro.perf.suite import dynamic_churn_scenario

        rec = dynamic_churn_scenario(quick=True, repeats=1)
        assert rec.experiment == "dynamic_churn:churn-diam2-small"
        assert rec.metrics["full_apsp_refresh_count"] == 0
        assert rec.metrics["steps"] > 0

    def test_full_apsp_refresh_count_gate_trips(self):
        from repro.perf import PerfRecord, Trajectory, compare

        def traj(count):
            return Trajectory(
                environment={"calibration_seconds": 0.01},
                records=[PerfRecord(
                    "dynamic_churn:churn-diam2-small", (0.01,),
                    {"full_apsp_refresh_count": count},
                )],
                kind="quick",
            )

        assert compare(traj(0), traj(0)).passed
        report = compare(traj(2), traj(0))
        assert not report.passed
        assert report.verdicts[0].status == "metric-regression"
        assert "full_apsp_refresh_count" in report.verdicts[0].detail

    def test_cli_dynamic_verifies_and_reports(self, capsys):
        from repro.cli import main

        assert main(["dynamic", "--steps", "8", "--verify", "--json"]) == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["verified"] is True
        assert record["steps"] == 8
        assert record["full_apsp_refreshes"] == 0

    def test_cli_unknown_leg_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["dynamic", "--leg", "warp-speed"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_perf_compare_missing_bench_fails_cleanly(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["perf", "compare", "--bench",
                     str(tmp_path / "BENCH_9.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# 6. attach_distances interaction
# ---------------------------------------------------------------------------
def test_attach_distances_keeps_connectivity_semantics():
    g = gen.path_graph(5)
    engine = DeltaEngine(g)
    g.remove_edge(0, 1)
    engine.refresh(g)
    analysis = engine.attach(g)
    assert analysis.is_connected is False
    g.add_edge(0, 1)
    engine.refresh(g)
    analysis = engine.attach(g)
    assert analysis.is_connected is True
    assert analysis.diameter == 4


def test_attach_distances_shape_guard():
    g = gen.path_graph(4)
    with pytest.raises(ValueError, match="shape"):
        attach_distances(g, np.zeros((3, 3), dtype=np.int64))

"""The service over request streams + sessions: dedup, accounting, correctness.

Every stream is fed submit-and-wait to a one-worker (inline)
``ConcurrentLabelingService`` on the exact tier, so each duplicate finds
its original already cached.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.labeling.spec import L11, L21
from repro.reduction.solver import solve_labeling
from repro.service.api import solve_record
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService
from repro.session import LabelingSession, _diff_labels


def random_relabel(graph, seed):
    perm = np.random.default_rng(seed).permutation(graph.n).tolist()
    return relabel(graph, perm)


def duplicate_stream(uniques, copies, engine="held_karp"):
    """Each unique graph plus ``copies`` relabeled twins, interleaved."""
    reqs = []
    for i, g in enumerate(uniques):
        reqs.append(
            SolveRequest(g, L21, engine=engine, tag=f"u{i}", tier="exact")
        )
        for c in range(copies):
            reqs.append(
                SolveRequest(
                    random_relabel(g, 31 * i + c), L21, engine=engine,
                    tag=f"u{i}c{c}", tier="exact",
                )
            )
    return reqs


def solve_all(svc, reqs):
    """Submit each request and wait for its answer before the next."""
    return [svc.submit(r).result() for r in reqs]


@pytest.fixture
def svc():
    with ConcurrentLabelingService(workers=1) as service:
        yield service


class TestBatchSolver:
    """Request streams through one inline service, submit-and-wait."""

    def test_results_in_request_order_and_feasible(self, svc):
        uniques = [
            gen.random_graph_with_diameter_at_most(10, 2, seed=s)
            for s in range(3)
        ]
        reqs = duplicate_stream(uniques, copies=2)
        results = solve_all(svc, reqs)
        assert [r.tag for r in results] == [r.tag for r in reqs]
        for req, res in zip(reqs, results):
            assert res.labeling.require_feasible(req.graph, req.spec)

    def test_duplicates_share_span_with_direct_solve(self, svc):
        g = gen.random_graph_with_diameter_at_most(11, 2, seed=4)
        direct = solve_labeling(g, L21, engine="held_karp").span
        results = solve_all(svc, duplicate_stream([g], copies=4))
        assert all(r.span == direct for r in results)
        assert sum(not r.cached for r in results) == 1

    def test_report_accounting(self, svc):
        uniques = [
            gen.random_graph_with_diameter_at_most(9, 2, seed=s)
            for s in range(2)
        ]
        reqs = duplicate_stream(uniques, copies=3)   # 2 unique, 8 total
        solve_all(svc, reqs)
        assert svc.stats.submitted == 8
        assert len(svc.cache) == 2
        assert svc.stats.solved == 2
        assert svc.stats.hits == 6
        assert svc.stats.coalesced == 0
        assert svc.stats.hit_rate == pytest.approx(0.75)

    def test_duplicate_of_evicted_entry_is_solved_again(self):
        # One-entry cache: g1's solve evicts g0 before g0's twin arrives,
        # so the twin is solved again — to the same span, because the
        # canonical instance and the engine are deterministic.
        g0, g1 = (
            gen.random_graph_with_diameter_at_most(9, 2, seed=s)
            for s in (5, 6)
        )
        reqs = [
            SolveRequest(g, L21, engine="held_karp", tier="exact")
            for g in (g0, g1, random_relabel(g0, 1), random_relabel(g1, 2))
        ]
        with ConcurrentLabelingService(workers=1, cache_capacity=1) as svc:
            results = solve_all(svc, reqs)
        assert len(svc.cache) == 1
        assert svc.stats.solved == 4
        assert svc.stats.hits == 0
        assert [r.span for r in results[2:]] == [r.span for r in results[:2]]
        for req, res in zip(reqs, results):
            assert res.labeling.require_feasible(req.graph, req.spec)

    def test_second_batch_hits_warm_cache(self, svc):
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=1)
        solve_all(svc, [SolveRequest(g, L21, engine="held_karp")])
        (result,) = solve_all(
            svc, [SolveRequest(random_relabel(g, 9), L21, engine="held_karp")]
        )
        assert result.cached
        assert svc.stats.hits == 1 and svc.stats.solved == 1

    def test_engine_is_part_of_the_key(self, svc):
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=2)
        solve_all(svc, [SolveRequest(g, L21, engine="held_karp")])
        (result,) = solve_all(svc, [SolveRequest(g, L21, engine="two_opt")])
        assert not result.cached          # different engine, fresh solve
        assert result.engine == "two_opt"

    def test_spec_is_part_of_the_key(self, svc):
        g = gen.cycle_graph(5)
        solve_all(svc, [SolveRequest(g, L21)])
        solve_all(svc, [SolveRequest(g, L11)])
        assert svc.stats.solved == 2 and svc.stats.hits == 0


class TestLabelingService:
    def test_submit_and_stats(self, svc):
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=6)
        first, second = solve_all(svc, [
            SolveRequest(g, L21, engine="held_karp"),
            SolveRequest(random_relabel(g, 1), L21, engine="held_karp"),
        ])
        assert not first.cached and second.cached
        assert first.span == second.span
        stats = svc.cache.stats
        assert stats.hits == 1 and stats.misses == 1

    def test_cache_persistence_across_services(self, tmp_path):
        path = tmp_path / "service-cache.json"
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=8)
        with ConcurrentLabelingService(workers=1, cache_path=path) as warm:
            solve_all(warm, [SolveRequest(g, L21, engine="held_karp")])
        warm.cache.save()
        with ConcurrentLabelingService(workers=1, cache_path=path) as cold:
            (again,) = solve_all(cold, [
                SolveRequest(random_relabel(g, 2), L21, engine="held_karp")
            ])
        assert again.cached

    def test_solve_record_shapes_match(self, svc):
        g = gen.cycle_graph(5)
        direct = solve_labeling(g, L21, engine="held_karp")
        (service,) = solve_all(svc, [SolveRequest(g, L21, engine="held_karp")])
        a = solve_record(direct, graph=g, spec=L21, include_labels=True)
        b = solve_record(service, graph=g, spec=L21, include_labels=True)
        assert set(a) == set(b)
        assert a["span"] == b["span"] == 4
        assert a["cached"] is False
        assert sorted(a["labels"]) == sorted(b["labels"])


class TestSessionServiceIntegration:
    def test_session_routes_through_shared_service(self, svc):
        g = gen.cycle_graph(5)
        s = LabelingSession(g, L21, engine="held_karp", service=svc)
        assert s.span == 4
        assert svc.cache.stats.misses == 1
        # a second session on an isomorphic graph is a pure cache hit
        s2 = LabelingSession(
            random_relabel(g, 5), L21, engine="held_karp", service=svc
        )
        assert s2.span == 4
        assert svc.cache.stats.hits == 1
        assert s2.current.cached

    def test_mutate_and_revert_gets_warm_hit(self, svc):
        s = LabelingSession(gen.cycle_graph(5), L21, engine="held_karp",
                            service=svc)
        s.add_edge(0, 2)
        delta = s.remove_edge(0, 2)      # back to C5: warm hit
        assert s.current.cached
        assert delta.span_after == 4
        assert s.labeling.is_feasible(s.graph, L21)

    def test_session_history_spans_consistent(self, svc):
        s = LabelingSession(gen.complete_graph(3), L21, engine="held_karp",
                            service=svc)
        v = s.add_vertex(connect_to=[0, 1, 2])
        assert v == 3
        assert s.span_trajectory() == [4, 6]


class TestDiffLabels:
    def test_pure_relabeling(self):
        assert _diff_labels((0, 2, 4), (0, 3, 4)) == ((1,), ())

    def test_added_vertices_not_reported_as_relabeled(self):
        relabeled, added = _diff_labels((0, 2, 4), (0, 2, 4, 6, 8))
        assert relabeled == ()
        assert added == (3, 4)

    def test_mixed_change_and_growth(self):
        relabeled, added = _diff_labels((0, 2, 4), (1, 2, 4, 6))
        assert relabeled == (0,)
        assert added == (3,)

    def test_empty_histories(self):
        assert _diff_labels((), ()) == ((), ())
        assert _diff_labels((), (0, 1)) == ((), (0, 1))

    def test_session_delta_reports_added_separately(self):
        s = LabelingSession(gen.complete_graph(3), L21, engine="held_karp")
        trial = s.graph
        trial.add_vertex()
        for u in (0, 1, 2):
            trial.add_edge(u, 3)
        delta = s._commit(trial)
        assert delta.added == (3,)
        assert 3 not in delta.relabeled

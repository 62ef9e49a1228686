"""Tests for the concurrent serving front-end (`repro.service.server`).

The hammer test is the headline: many client threads, overlapping
identical and distinct requests, and the service must run the engine
exactly once per distinct problem while every caller gets a feasible
answer in its own coordinates.  The rest covers the contractual edges —
backpressure, rejection, graceful and aborting shutdown, error
propagation — with event-gated slow solves instead of sleeps, so the
suite stays deterministic.
"""

import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.labeling.spec import L21
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService
from repro.session import LabelingSession

ENGINE = "nearest_neighbor"  # cheapest engine: these tests exercise plumbing


def req(graph, engine=ENGINE):
    """An L(2,1) request for ``graph``."""
    return SolveRequest(graph, L21, engine=engine)


def make_server(**kwargs):
    kwargs.setdefault("offload", False)  # deterministic inline solves
    return ConcurrentLabelingService(**kwargs)


def gated_solver(server, started=None, release=None, fail=False):
    """Wrap the server's inline solve with test gates.

    ``started`` is set when a worker enters a solve; ``release`` blocks it
    until the test is ready; ``fail=True`` raises instead of solving.
    """
    orig = server._solve_inline

    def gated(form, request, tier):
        if started is not None:
            started.set()
        if release is not None:
            assert release.wait(timeout=10), "test forgot to release the solver"
        if fail:
            raise RuntimeError("injected engine failure")
        return orig(form, request, tier)

    server._solve_inline = gated


# ---------------------------------------------------------------------------
# the hammer
# ---------------------------------------------------------------------------
def test_hammer_no_duplicate_solves_and_consistent_shards():
    bases = [
        gen.random_graph_with_diameter_at_most(12, 2, seed=s) for s in range(4)
    ]
    rng = np.random.default_rng(7)
    requests = [
        (i % len(bases), relabel(bases[i % len(bases)],
                                 rng.permutation(12).tolist()))
        for i in range(48)
    ]
    server = make_server(workers=4, queue_size=8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = list(
            pool.map(
                lambda item: (item[0], server.submit(req(item[1]))),
                requests,
            )
        )
    results = [(base_idx, fut.result()) for base_idx, fut in futures]
    server.shutdown(wait=True)

    # every caller answered, feasibly, in its own coordinates
    for (base_idx, res), (_, graph) in zip(results, requests):
        res.labeling.require_feasible(graph, L21)
    # isomorphic requests agree on the span
    spans: dict[int, int] = {}
    for base_idx, res in results:
        assert spans.setdefault(base_idx, res.span) == res.span

    # exactly one engine run per distinct problem, however the 8 client
    # threads interleaved with the 4 workers
    stats = server.stats
    assert stats.solved == len(bases)
    assert stats.submitted == len(requests)
    assert stats.rejected == stats.cancelled == stats.errors == 0
    assert stats.hits + stats.coalesced == len(requests) - len(bases)
    assert stats.completed == len(requests)

    # shard-stat consistency: hits + misses == lookups, per shard and summed
    cache = server.cache
    agg = cache.stats
    assert agg.hits + agg.misses == agg.lookups
    per_shard = cache.shard_stats()
    assert sum(s.lookups for s in per_shard) == agg.lookups
    for s in per_shard:
        assert s.hits + s.misses == s.lookups
    assert 0.0 <= cache.contention_rate <= 1.0


# ---------------------------------------------------------------------------
# dedup / coalescing
# ---------------------------------------------------------------------------
def test_concurrent_identical_requests_coalesce_onto_one_solve():
    g = gen.random_graph_with_diameter_at_most(10, 2, seed=3)
    server = make_server(workers=1, queue_size=8)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)

    first = server.submit(req(g.copy()))
    assert started.wait(timeout=10)  # worker is inside the (gated) solve
    # these arrive while the identical solve is in flight -> coalesce
    dupes = [server.submit(req(g.copy())) for _ in range(5)]
    release.set()
    spans = {f.result().span for f in [first, *dupes]}
    server.shutdown(wait=True)
    assert len(spans) == 1
    assert server.stats.solved == 1
    assert server.stats.coalesced == 5


def test_coalesced_results_translate_to_each_callers_order():
    base = gen.random_graph_with_diameter_at_most(10, 2, seed=4)
    other = relabel(base, list(reversed(range(base.n))))
    server = make_server(workers=1, queue_size=8)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)

    f1 = server.submit(req(base))
    assert started.wait(timeout=10)
    f2 = server.submit(req(other))  # isomorphic, in flight
    release.set()
    r1, r2 = f1.result(), f2.result()
    server.shutdown(wait=True)
    assert server.stats.solved == 1 and server.stats.coalesced == 1
    assert r1.span == r2.span
    r1.labeling.require_feasible(base, L21)
    r2.labeling.require_feasible(other, L21)  # its OWN vertex order


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------
def _distinct_graphs(count, n=10):
    return [
        gen.random_graph_with_diameter_at_most(n, 2, seed=50 + i)
        for i in range(count)
    ]


def test_nonblocking_submit_rejects_past_high_water():
    graphs = _distinct_graphs(4)
    server = make_server(workers=1, queue_size=2, block=False)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    try:
        server.submit(req(graphs[0]))
        assert started.wait(timeout=10)  # slot 0 is on the worker, not queued
        server.submit(req(graphs[1]))
        server.submit(req(graphs[2]))  # queue now full
        with pytest.raises(ServiceOverloadedError):
            server.submit(req(graphs[3]))
        assert server.stats.rejected == 1
    finally:
        release.set()
        server.shutdown(wait=True)


def test_rejected_owner_propagates_overload_to_followers(monkeypatch):
    # a follower that coalesces onto an owner whose enqueue is then
    # rejected must observe the ServiceOverloadedError, not a bare
    # cancellation it cannot distinguish from an abort-shutdown
    import queue as queue_mod

    g = gen.random_graph_with_diameter_at_most(10, 2, seed=21)
    server = make_server(workers=1, queue_size=1)
    in_put, proceed = threading.Event(), threading.Event()
    orig_put = server._queue.put
    first = {"pending": True}

    def rejecting_put(item, block=True, timeout=None):
        if first["pending"]:
            first["pending"] = False
            in_put.set()
            assert proceed.wait(timeout=10)
            raise queue_mod.Full
        return orig_put(item, block=block, timeout=timeout)

    monkeypatch.setattr(server._queue, "put", rejecting_put)
    owner_error: list = []

    def owner():
        try:
            server.submit(req(g.copy()))
        except ServiceOverloadedError as exc:
            owner_error.append(exc)

    t = threading.Thread(target=owner)
    t.start()
    assert in_put.wait(timeout=10)  # owner registered in-flight, now in put
    follower = server.submit(req(g.copy()))  # coalesces
    proceed.set()
    t.join()
    assert owner_error, "owner must see the synchronous rejection"
    with pytest.raises(ServiceOverloadedError):
        follower.result(timeout=10)
    assert server.stats.rejected == 1 and server.stats.coalesced == 1
    server.shutdown(wait=True)


def test_blocking_submit_times_out_then_succeeds_after_drain():
    graphs = _distinct_graphs(4)
    server = make_server(workers=1, queue_size=1)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    server.submit(req(graphs[0]))
    assert started.wait(timeout=10)
    server.submit(req(graphs[1]))  # fills the queue
    with pytest.raises(ServiceOverloadedError):
        server.submit(req(graphs[2]), timeout=0.05)
    release.set()
    fut = server.submit(req(graphs[3]))  # space freed
    assert fut.result().span > 0
    server.shutdown(wait=True)


# ---------------------------------------------------------------------------
# shutdown / drain
# ---------------------------------------------------------------------------
def test_graceful_shutdown_drains_queue():
    graphs = _distinct_graphs(6)
    server = make_server(workers=2, queue_size=8)
    futures = [server.submit(req(g)) for g in graphs]
    server.shutdown(wait=True)
    assert all(f.result().span > 0 for f in futures)
    assert server.stats.completed == len(graphs)
    with pytest.raises(ServiceClosedError):
        server.submit(req(graphs[0]))


def test_abort_shutdown_cancels_nonempty_queue():
    graphs = _distinct_graphs(5)
    server = make_server(workers=1, queue_size=8)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    running = server.submit(req(graphs[0]))
    assert started.wait(timeout=10)  # worker busy; the rest stays queued
    queued = [server.submit(req(g)) for g in graphs[1:]]
    assert server.queue_depth() == len(queued)
    # a relabeled copy coalesces onto a queued job: no queue slot of its own
    # (tier pinned: at this depth the router would send ``auto`` to approx)
    g = relabel(graphs[1], list(range(graphs[1].n))[::-1])
    follower = SolveRequest(g, L21, engine=ENGINE, tier="exact")
    queued.append(server.submit(follower))
    assert server.queue_depth() == len(queued) - 1

    release.set()
    server.shutdown(wait=False)
    # the in-flight solve completed; everything still queued was cancelled
    assert running.result(timeout=10).span > 0
    for f in queued:
        with pytest.raises(CancelledError):
            f.result(timeout=10)
    stats = server.stats.snapshot()
    assert stats["cancelled"] == len(queued)  # the follower counts too
    assert stats["coalesced"] == 1
    assert stats["completed"] == (
        stats["submitted"] - stats["rejected"] - stats["cancelled"]
    )
    assert server.queue_depth() == 0
    with pytest.raises(ServiceClosedError):
        server.submit(req(graphs[0]))
    server.shutdown(wait=True)  # idempotent


def test_caller_cancelled_future_counts_as_cancelled():
    server = make_server(workers=1, queue_size=8)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    future = server.submit(req(_distinct_graphs(1)[0]))
    assert started.wait(timeout=10)
    assert future.cancel()  # the caller gives up while the solve runs
    release.set()
    server.shutdown(wait=True)
    stats = server.stats.snapshot()
    assert stats["solved"] == stats["cancelled"] == 1
    assert stats["completed"] == 0


def test_drain_is_a_checkpoint_not_a_shutdown():
    graphs = _distinct_graphs(3)
    server = make_server(workers=2, queue_size=8)
    futures = [server.submit(req(g)) for g in graphs]
    server.drain()
    assert all(f.done() for f in futures)
    # intake still open
    assert server.submit(req(graphs[0])).result().cached
    server.shutdown(wait=True)


# ---------------------------------------------------------------------------
# failure paths and integration
# ---------------------------------------------------------------------------
def test_engine_failure_reaches_every_waiter():
    g = gen.random_graph_with_diameter_at_most(10, 2, seed=9)
    server = make_server(workers=1, queue_size=8)
    orig = server._solve_inline
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release, fail=True)
    f1 = server.submit(req(g.copy()))
    assert started.wait(timeout=10)
    f2 = server.submit(req(g.copy()))  # coalesced waiter
    release.set()
    for f in (f1, f2):
        with pytest.raises(RuntimeError, match="injected engine failure"):
            f.result(timeout=10)
    assert server.stats.errors == 1
    # the failure is not cached: a retry solves cleanly
    server._solve_inline = orig
    assert server.submit(req(g.copy())).result().span > 0
    server.shutdown(wait=True)


def test_process_offload_path_solves_correctly():
    # force the process-pool branch even on single-core hosts: results and
    # feasibility must be indistinguishable from inline solving
    g1, g2 = _distinct_graphs(2)
    with ConcurrentLabelingService(workers=2, offload=True) as server:
        r1 = server.submit(req(g1)).result()
        r2 = server.submit(req(g2)).result()
    r1.labeling.require_feasible(g1, L21)
    r2.labeling.require_feasible(g2, L21)
    inline = ConcurrentLabelingService(workers=1, offload=False)
    assert inline.submit(req(g1)).result().span == r1.span
    inline.shutdown(wait=True)


def test_constructor_validation():
    with pytest.raises(ReproError):
        ConcurrentLabelingService(workers=0)
    with pytest.raises(ReproError):
        ConcurrentLabelingService(queue_size=0)


def test_submit_returns_future_and_fast_path_hits():
    g = gen.random_graph_with_diameter_at_most(10, 2, seed=11)
    with make_server(workers=2) as server:
        first = server.submit(req(g.copy()))
        assert isinstance(first, Future)
        assert not first.result().cached
        again = server.submit(req(g.copy()))
        res = again.result()
        assert res.cached and res.seconds == 0.0
        assert server.stats.hits >= 1


def test_session_routes_through_concurrent_service():
    g = gen.random_graph_with_diameter_at_most(12, 2, seed=13)
    with make_server(workers=2) as server:
        session = LabelingSession(g, L21, engine="lk", service=server)
        baseline = LabelingSession(g, L21, engine="lk")
        assert session.span == baseline.span
        non_edge = next(
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        delta = session.add_edge(*non_edge)
        assert delta.span_after == session.span
        # a second identical session replays warm: every solve a cache hit
        replay = LabelingSession(g, L21, engine="lk", service=server)
        replay.add_edge(*non_edge)
        assert replay.span_trajectory() == session.span_trajectory()
        assert replay.history[-1].cached


def test_service_session_answers_like_a_service_free_session():
    # n > LARGE_N: an ``auto`` submission would be routed to the approx
    # tier; a session's solve must stay on the engine it was bound to
    g = gen.star_graph(300)
    baseline = LabelingSession(g, L21, engine=ENGINE)
    with make_server(workers=1) as server:
        session = LabelingSession(g, L21, engine=ENGINE, service=server)
    assert session.current.engine == ENGINE
    assert session.current.tier == "exact"
    assert session.span == baseline.span
    assert server.router.counters["approx"] == 0


def test_single_worker_matches_multi_worker_results():
    stream = _distinct_graphs(6, n=12)
    spans = []
    for workers in (1, 3):
        with make_server(workers=workers) as server:
            futures = [server.submit(req(g, "lk")) for g in stream]
            spans.append([f.result().span for f in futures])
    assert spans[0] == spans[1]

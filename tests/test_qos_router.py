"""Tests for the QoS router: tier selection, deadline drops, loadgen accounting.

The degradation contract under pressure is exact -> approx -> 429: an idle
server answers exactly, a pressured one downgrades ``auto`` requests to
the one-pass approx tier, and only a full queue rejects.  Deadline-expired
work is dropped *before* any solver runs — counted, never errored.  The
load harness mirrors the same three-valued outcome model: intentional
shedding is ``dropped``, never an error, so ``load --fail-on-errors``
holds under deliberate overload.
"""

import threading
import time

import pytest

from repro.errors import (
    ERROR_TABLE,
    DeadlineExpiredError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.harness.loadgen import (
    DROP_STATUSES,
    LoadReport,
    PayloadInstance,
    StepReport,
    _classify,
    default_payload_instances,
)
from repro.labeling.spec import L21
from repro.obs import REGISTRY
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService, QosRouter

ENGINE = "nearest_neighbor"  # cheapest engine: these tests exercise routing


def make_server(**kwargs):
    kwargs.setdefault("offload", False)  # deterministic inline solves
    return ConcurrentLabelingService(**kwargs)


def gated_solver(server, started=None, release=None):
    """Event-gate the server's inline solve (no sleeps in tests)."""
    orig = server._solve_inline

    def gated(form, request, tier):
        if started is not None:
            started.set()
        if release is not None:
            assert release.wait(timeout=10), "test forgot to release the solver"
        return orig(form, request, tier)

    server._solve_inline = gated


def counting_solvers(server):
    """Count every exact and approx solve the server actually runs."""
    counts = {"exact": 0, "approx": 0}
    orig = server._solve_inline

    def counting(form, request, tier):
        counts[tier] += 1
        return orig(form, request, tier)

    server._solve_inline = counting
    return counts


def _graphs(count, n=10, start=0):
    return [
        gen.random_graph_with_diameter_at_most(n, 2, seed=start + i)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# routing policy (unit level)
# ---------------------------------------------------------------------------
def test_router_policy_matrix():
    router = QosRouter(queue_size=8)  # approx_depth = 4
    g = Graph(3, [(0, 1), (1, 2)])
    big = Graph(300, [(i, i + 1) for i in range(299)])

    def req(**kw):
        return SolveRequest(g, L21, engine=ENGINE, **kw)

    assert router.route(req(tier="auto"), queue_depth=0) == "exact"
    assert router.route(req(tier="auto"), queue_depth=4) == "approx"
    # explicit tiers are always honored, pressure or not
    assert router.route(req(tier="exact"), queue_depth=8) == "exact"
    assert router.route(req(tier="approx"), queue_depth=0) == "approx"
    # big instances and tight deadlines degrade auto
    assert router.route(
        SolveRequest(big, L21, engine=ENGINE, tier="auto"), queue_depth=0
    ) == "approx"
    assert router.route(
        req(tier="auto", deadline_ms=50), queue_depth=0
    ) == "approx"
    assert router.route(
        req(tier="auto", deadline_ms=5000), queue_depth=0
    ) == "exact"

    state = router.to_json()
    assert state["exact"] == 3 and state["approx"] == 4
    # explicit-approx requests are honored, not "degraded"
    assert state["degraded"] == 3
    assert state["approx_depth"] == 4


def test_wire_codes_for_shedding():
    """Both shed paths map to the statuses the harness treats as drops."""
    assert ERROR_TABLE[ServiceOverloadedError] == ("overloaded", 429)
    assert ERROR_TABLE[DeadlineExpiredError] == ("deadline_expired", 504)
    assert {429, 504} == set(DROP_STATUSES)


# ---------------------------------------------------------------------------
# degradation order under saturation
# ---------------------------------------------------------------------------
def test_degradation_order_exact_then_approx_then_429():
    graphs = _graphs(4)
    server = make_server(workers=1, queue_size=2)  # approx_depth = 1
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    try:
        # idle: auto routes exact; the worker picks it up and blocks
        first = server.submit(SolveRequest(graphs[0], L21, engine=ENGINE))
        assert started.wait(timeout=10)
        # depth 0: still exact (fills queue slot 1)
        second = server.submit(SolveRequest(graphs[1], L21, engine=ENGINE))
        # depth 1 >= approx_depth: auto degrades to approx (slot 2)
        third = server.submit(SolveRequest(graphs[2], L21, engine=ENGINE))
        # queue full: the only move left is rejection
        with pytest.raises(ServiceOverloadedError):
            server.submit(
                SolveRequest(graphs[3], L21, engine=ENGINE), block=False
            )
        release.set()
        results = [f.result(timeout=30) for f in (first, second, third)]
    finally:
        release.set()
        server.shutdown(wait=True)

    assert [r.tier for r in results] == ["exact", "exact", "approx"]
    assert results[2].gap is not None and results[2].gap >= 0
    for res, g in zip(results, graphs):
        res.labeling.require_feasible(g, L21)
    state = server.router.to_json()
    assert state["exact"] == 2
    assert state["approx"] == 2  # the rejected 4th was routed before the 429
    assert state["degraded"] == 2
    assert server.stats.rejected == 1


def test_saturated_queue_size_1_rejects_after_degrading():
    """The minimal server: one slot, one worker — route still precedes 429."""
    graphs = _graphs(3, start=20)
    server = make_server(workers=1, queue_size=1)  # approx_depth = 1
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    try:
        first = server.submit(SolveRequest(graphs[0], L21, engine=ENGINE))
        assert started.wait(timeout=10)
        second = server.submit(SolveRequest(graphs[1], L21, engine=ENGINE))
        with pytest.raises(ServiceOverloadedError):
            server.submit(
                SolveRequest(graphs[2], L21, engine=ENGINE), block=False
            )
        release.set()
        assert first.result(timeout=30).tier == "exact"
        assert second.result(timeout=30).tier == "exact"
    finally:
        release.set()
        server.shutdown(wait=True)
    state = server.router.to_json()
    assert state["exact"] == 2 and state["approx"] == 1
    assert server.stats.rejected == 1


def test_closed_service_routes_nothing(monkeypatch):
    """A submit after shutdown fails before the router or canonicalization."""
    import repro.service.server as server_module

    server = make_server(workers=1)
    server.shutdown(wait=True)
    canonicalized = []
    real_canonical_form = server_module.canonical_form

    def counting_canonical_form(*args, **kwargs):
        canonicalized.append(args)
        return real_canonical_form(*args, **kwargs)

    monkeypatch.setattr(server_module, "canonical_form", counting_canonical_form)
    exact_before = REGISTRY.value("repro_router_requests_total", tier="exact")
    with pytest.raises(ServiceClosedError):
        server.submit(SolveRequest(_graphs(1)[0], L21, engine=ENGINE))
    assert server.router.to_json()["exact"] == 0
    assert REGISTRY.value(
        "repro_router_requests_total", tier="exact"
    ) == exact_before
    assert canonicalized == []
    assert server.stats.submitted == 0


# ---------------------------------------------------------------------------
# deadline drops
# ---------------------------------------------------------------------------
def test_expired_deadline_dropped_before_any_solve():
    graphs = _graphs(2, start=40)
    server = make_server(workers=1, queue_size=4)
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release)
    counts = counting_solvers(server)
    expired_before = REGISTRY.value("repro_router_expired_total")
    try:
        blocker = server.submit(SolveRequest(graphs[0], L21, engine=ENGINE))
        assert started.wait(timeout=10)
        # queued behind the blocker; its 1ms budget expires while waiting
        doomed = server.submit(
            SolveRequest(
                graphs[1], L21, engine=ENGINE, tier="exact", deadline_ms=1
            )
        )
        time.sleep(0.05)
        release.set()
        assert blocker.result(timeout=30).span >= 0
        with pytest.raises(DeadlineExpiredError):
            doomed.result(timeout=30)
    finally:
        release.set()
        server.shutdown(wait=True)

    # dropped before solving: exactly one solve ran (the blocker's), and
    # the drop is counted — in the router and the registry — not errored
    assert counts == {"exact": 1, "approx": 0}
    assert server.router.to_json()["expired"] == 1
    assert REGISTRY.value("repro_router_expired_total") == expired_before + 1
    assert server.stats.errors == 0
    assert server.stats.completed == 2  # both public futures resolved


def test_generous_deadline_not_dropped():
    g = _graphs(1, start=50)[0]
    server = make_server(workers=1, queue_size=4)
    try:
        res = server.submit(
            SolveRequest(g, L21, engine=ENGINE, deadline_ms=60_000)
        ).result(timeout=30)
        res.labeling.require_feasible(g, L21)
    finally:
        server.shutdown(wait=True)
    assert server.router.to_json()["expired"] == 0


# ---------------------------------------------------------------------------
# mid-stream crash
# ---------------------------------------------------------------------------
def test_mid_stream_crash_still_resolves_every_public_future():
    graphs = _graphs(6, start=60)
    server = make_server(workers=2, queue_size=8)
    orig = server._solve_inline
    crash_on = {2}  # the third distinct solve dies mid-stream

    def crashing(form, request, tier, _seen=[]):
        idx = len(_seen)
        _seen.append(form.key)
        if idx in crash_on:
            raise RuntimeError("injected mid-stream worker crash")
        return orig(form, request, tier)

    server._solve_inline = crashing
    try:
        futures = [
            server.submit(SolveRequest(g, L21, engine=ENGINE)) for g in graphs
        ]
        outcomes = []
        for fut in futures:
            try:
                outcomes.append(("ok", fut.result(timeout=30)))
            except RuntimeError as exc:
                outcomes.append(("crashed", exc))
    finally:
        server.shutdown(wait=True)

    kinds = [k for k, _ in outcomes]
    assert kinds.count("crashed") == 1
    assert kinds.count("ok") == len(graphs) - 1
    for (kind, res), g in zip(outcomes, graphs):
        if kind == "ok":
            res.labeling.require_feasible(g, L21)
    # every public future resolved; the crash is an error, not a hang
    assert server.stats.completed == len(graphs)
    assert server.stats.errors == 1


# ---------------------------------------------------------------------------
# loadgen dropped-accounting
# ---------------------------------------------------------------------------
def test_classify_drop_statuses_are_not_errors():
    for status in (429, 504):
        assert _classify(status, b"{}", b"raw") == ("dropped", False)
    assert _classify(500, b"{}", b"raw") == ("error", False)
    assert _classify(200, b"not json", b"raw") == ("error", False)


def test_classify_verifies_feasibility_only_with_instance():
    inst = PayloadInstance(body=b"{}", graph=Graph(2, [(0, 1)]), spec=L21)
    ok = b'{"labels": [0, 2], "tier": "approx"}'
    bad = b'{"labels": [0, 0], "tier": "exact"}'
    assert _classify(200, ok, inst) == ("ok", True)
    assert _classify(200, bad, inst) == ("infeasible", False)
    # bytes payloads carry no instance: no verification, approx flag only
    assert _classify(200, bad, b"raw") == ("ok", False)


def test_step_report_separates_drops_from_errors():
    step = StepReport(
        offered_rps=50.0, duration=1.0, sent=10, completed=4, errors=1,
        achieved_rps=4.0, p50_ms=1.0, p95_ms=2.0, p99_ms=3.0,
        dropped=3, approx=2, infeasible=2,
    )
    assert step.error_rate == pytest.approx(0.3)  # drops excluded
    row = step.to_json()
    assert row["dropped"] == 3 and row["approx"] == 2
    assert row["infeasible"] == 2

    report = LoadReport(steps=(step, step))
    assert report.total_dropped == 6
    assert report.total_errors == 2
    assert report.total_infeasible == 4
    assert report.total_approx == 4
    doc = report.to_json()
    assert doc["total_dropped"] == 6 and doc["total_infeasible"] == 4


def test_default_payload_instances_carry_tier_and_deadline():
    import json as _json

    pool = default_payload_instances(
        count=3, seed=7, tier="approx", deadline_ms=250
    )
    assert len(pool) == 3
    for inst in pool:
        body = _json.loads(inst.body)
        assert body["tier"] == "approx" and body["deadline_ms"] == 250
        assert inst.graph.n == 12 and inst.spec == L21

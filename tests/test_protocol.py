"""Tests for the unified service protocol (`repro.service.protocol`).

Covers the lossless wire round-trip for :class:`SolveRequest` /
:class:`SolveResponse` (seeded and property-based), the validation
behaviour on malformed payloads, and the consolidated error table in
:mod:`repro.errors`.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ERROR_TABLE,
    ReproError,
    RequestValidationError,
    ServiceOverloadedError,
    error_code,
    error_payload,
    http_status,
)
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import L21, LpSpec
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.server import ConcurrentLabelingService

ENGINE = "nearest_neighbor"


# ---------------------------------------------------------------------------
# wire round-trips
# ---------------------------------------------------------------------------
def test_request_roundtrip_seeded_graphs():
    for seed in range(6):
        g = gen.random_graph_with_diameter_at_most(10 + seed, 2, seed=seed)
        req = SolveRequest(g, L21, engine="lk", tag=f"s{seed}")
        back = SolveRequest.from_json(req.to_json())
        assert back.graph == req.graph
        assert back.spec == req.spec
        assert back.engine == req.engine and back.tag == req.tag
        # the wire survives an actual JSON encode/decode too
        again = SolveRequest.from_json(json.loads(json.dumps(req.to_json())))
        assert again.graph == req.graph and again.spec == req.spec


def test_request_roundtrip_preserves_canonical_key():
    from repro.service.api import _composed_key
    from repro.service.canonical import canonical_form

    g = gen.random_graph_with_diameter_at_most(14, 2, seed=3)
    req = SolveRequest(g, L21, engine="lk")
    back = SolveRequest.from_json(req.to_json())
    key = _composed_key(canonical_form(req.graph, req.spec), req, "exact")
    key_back = _composed_key(
        canonical_form(back.graph, back.spec), back, "exact"
    )
    assert key == key_back, "wire round-trip must hit the same cache entry"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    edge_bits=st.integers(min_value=0, max_value=2**66 - 1),
    p=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    engine=st.sampled_from(["auto", "lk", "two_opt"]),
    tag=st.one_of(st.none(), st.text(max_size=8)),
)
def test_request_roundtrip_property(n, edge_bits, p, engine, tag):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for i, e in enumerate(pairs) if (edge_bits >> i) & 1]
    req = SolveRequest(Graph(n, edges), LpSpec(tuple(p)), engine=engine, tag=tag)
    back = SolveRequest.from_json_line(json.dumps(req.to_json()))
    assert back.graph == req.graph
    assert back.spec == req.spec
    assert back.engine == req.engine and back.tag == req.tag
    # every field crosses the wire: graph as n + edges, spec as p
    fields = {f.name for f in dataclasses.fields(SolveRequest)}
    wire = (fields - {"graph", "spec"}) | {"n", "edges", "p"}
    assert wire == set(req.to_json())


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                    max_size=10),
    span=st.integers(min_value=0, max_value=40),
    engine=st.sampled_from(["lk", "held_karp"]),
    exact=st.booleans(),
    cached=st.booleans(),
    seconds=st.floats(min_value=0, max_value=10, allow_nan=False),
    tag=st.one_of(st.none(), st.text(max_size=8)),
)
def test_response_roundtrip_property(labels, span, engine, exact, cached,
                                     seconds, tag):
    resp = SolveResponse(
        labeling=Labeling(tuple(labels)), span=span, engine=engine,
        exact=exact, cached=cached, key="k:auto", seconds=seconds, tag=tag,
    )
    back = SolveResponse.from_json(json.loads(json.dumps(resp.to_json())))
    assert back == resp  # frozen dataclasses: full field equality


def test_request_roundtrip_tier_and_deadline():
    g = gen.cycle_graph(6)
    for tier, deadline_ms in [("exact", None), ("approx", 100),
                              ("auto", 1), ("auto", None)]:
        req = SolveRequest(g, L21, engine="lk", tier=tier,
                           deadline_ms=deadline_ms)
        for back in (
            SolveRequest.from_json(req.to_json()),
            SolveRequest.from_json_line(json.dumps(req.to_json())),
        ):
            assert back.tier == tier
            assert back.deadline_ms == deadline_ms
            assert back.graph == req.graph and back.spec == req.spec


def test_response_roundtrip_tier_and_gap():
    for tier, gap in [("exact", None), ("approx", 0), ("approx", 3)]:
        resp = SolveResponse(
            labeling=Labeling((0, 2, 4)), span=4, engine="lk",
            exact=False, cached=False, key="k:approx", seconds=0.1,
            tier=tier, gap=gap,
        )
        wire = json.loads(json.dumps(resp.to_json()))
        assert wire["tier"] == tier and wire["gap"] == gap
        assert SolveResponse.from_json(wire) == resp


def test_old_clients_omitting_new_fields_still_parse():
    """Pre-QoS payloads carry neither tier nor deadline/gap — defaults apply."""
    req = SolveRequest.from_json({"n": 2, "edges": [[0, 1]], "p": [2, 1]})
    assert req.tier == "auto" and req.deadline_ms is None
    resp = SolveResponse.from_json({
        "labels": [0, 2], "span": 2, "engine": "lk", "exact": True,
        "cached": False, "key": "k:lk", "seconds": 0.0,
    })
    assert resp.tier == "exact" and resp.gap is None


def test_explicit_approx_tier_answers_with_certificate():
    with ConcurrentLabelingService(workers=1) as svc:
        resp = svc.submit(
            SolveRequest(gen.cycle_graph(5), L21, tier="approx")
        ).result()
    assert resp.tier == "approx"
    assert resp.gap is not None and resp.gap >= 0
    assert not resp.exact
    back = SolveResponse.from_json(json.loads(json.dumps(resp.to_json())))
    assert back == resp


def test_response_roundtrip_from_live_solve():
    with ConcurrentLabelingService(workers=1) as svc:
        resp = svc.submit(
            SolveRequest(gen.cycle_graph(5), L21, engine="held_karp")
        ).result()
    assert isinstance(resp, SolveResponse)
    back = SolveResponse.from_json(resp.to_json())
    assert back == resp


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {},
        {"n": 3, "edges": []},                               # missing p
        {"n": -1, "edges": [], "p": [2, 1]},                 # negative n
        {"n": True, "edges": [], "p": [2, 1]},               # bool is not int
        {"n": 3, "edges": [[0]], "p": [2, 1]},               # bad pair
        {"n": 3, "edges": [[0, "1"]], "p": [2, 1]},          # non-int vertex
        {"n": 3, "edges": [], "p": []},                      # empty p
        {"n": 3, "edges": [], "p": [0]},                     # p below 1
        {"n": 3, "edges": [], "p": [2, 1], "engine": 7},     # bad engine
        {"n": 3, "edges": [], "p": [2, 1], "tag": 7},        # bad tag
        {"n": 3, "edges": [], "p": [2, 1], "bogus": 1},      # unknown field
        {"n": 2, "edges": [[0, 5]], "p": [2, 1]},            # vertex off graph
        {"n": 3, "edges": [], "p": [2, 1], "tier": "fast"},  # unknown tier
        {"n": 3, "edges": [], "p": [2, 1], "tier": 7},       # non-string tier
        {"n": 3, "edges": [], "p": [2, 1], "deadline_ms": 0},     # not positive
        {"n": 3, "edges": [], "p": [2, 1], "deadline_ms": -50},   # negative
        {"n": 3, "edges": [], "p": [2, 1], "deadline_ms": True},  # bool not int
        {"n": 3, "edges": [], "p": [2, 1], "deadline_ms": "100"}, # string
        {"n": 3, "edges": [], "p": [2, 1], "engine": "nope"},  # unknown engine
    ],
)
def test_request_from_json_rejects_malformed(payload):
    with pytest.raises(RequestValidationError):
        SolveRequest.from_json(payload)


def test_request_from_json_line_rejects_bad_json():
    with pytest.raises(RequestValidationError):
        SolveRequest.from_json_line(b"{not json")


def test_response_from_json_rejects_malformed():
    with pytest.raises(RequestValidationError):
        SolveResponse.from_json({"labels": [0], "span": 1})  # missing fields
    with pytest.raises(RequestValidationError):
        SolveResponse.from_json({"labels": [-1], "span": 1, "engine": "lk",
                                 "exact": True, "cached": False, "key": "k",
                                 "seconds": 0.0})


# ---------------------------------------------------------------------------
# the error table
# ---------------------------------------------------------------------------
def _all_repro_error_classes():
    seen, stack = set(), [ReproError]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
    return seen


def test_error_table_covers_every_subclass():
    """Every ReproError subclass resolves to a row (its own or inherited)."""
    for cls in _all_repro_error_classes():
        code = error_code(cls)
        status = http_status(cls)
        assert isinstance(code, str) and code
        assert 400 <= status < 600


def test_error_table_codes_are_stable_and_unique():
    codes = [code for code, _ in ERROR_TABLE.values()]
    assert len(codes) == len(set(codes)), "codes are a vocabulary: no reuse"
    assert error_code(ServiceOverloadedError("x")) == "overloaded"
    assert http_status(ServiceOverloadedError) == 429
    assert error_code(RequestValidationError) == "invalid_request"
    assert http_status(ReproError) == 500


def test_error_payload_shape():
    payload = error_payload(ServiceOverloadedError("queue full"))
    assert payload == {"error": "queue full", "code": "overloaded",
                       "status": 429}


def test_cli_error_line_carries_code(capsys, tmp_path):
    from repro.cli import main

    path = tmp_path / "c6.edges"   # C6 has diameter 3 > k: not applicable
    path.write_text(
        "6 6\n" + "".join(f"{u} {(u + 1) % 6}\n" for u in range(6))
    )
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: [not_applicable]" in err


def test_cli_engine_size_cap_is_too_large(capsys, tmp_path):
    from repro.cli import main

    path = tmp_path / "star21.edges"   # 22 vertices: past Held-Karp's cap
    path.write_text("22 21\n" + "".join(f"0 {v}\n" for v in range(1, 22)))
    code = main(["solve", str(path), "--engine", "held_karp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [too_large] ")
    assert "'lk'" in err and "'auto'" in err


# ---------------------------------------------------------------------------
# the request object is the only submit form
# ---------------------------------------------------------------------------
def test_new_submit_does_not_warn(recwarn):
    with ConcurrentLabelingService(workers=1) as svc:
        request = SolveRequest(gen.cycle_graph(5), L21, engine=ENGINE)
        svc.submit(request).result()
    assert not [w for w in recwarn if w.category is DeprecationWarning]

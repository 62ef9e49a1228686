"""E16 — extension: asyncio network front end under open-loop load.

Three claims, all asserted (so ``make bench`` is also a correctness gate):

1. a ``/solve`` answered over a real TCP socket is byte-for-byte the same
   result the in-process service returns — the wire protocol is lossless
   end to end (span, engine, exactness, canonical key all survive);
2. at a low offered rate (far below capacity) the open-loop generator
   completes **every** request with zero errors, and the recorded
   latency percentiles are ordered (p50 <= p95 <= p99) — the smoke floor
   the CI ``load-smoke`` job re-checks on every push;
3. the ``/metrics`` exposition scraped over HTTP parses cleanly under
   the Prometheus 0.0.4 grammar (``tools/metrics_lint.py``) and carries
   the three catalogued ``repro_http_*`` families with live samples.

The timed leg benchmarks a short fixed-rate ramp through real sockets —
the per-request wire cost (connect, frame, parse) on top of a warm cache,
which is the steady state a production front end lives in.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import urllib.request
from pathlib import Path

from repro.graphs import generators as gen
from repro.harness.loadgen import default_payload_instances, run_load
from repro.labeling.spec import L21
from repro.net import BackgroundServer
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.server import ConcurrentLabelingService

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from metrics_lint import check_exposition  # noqa: E402

RATE = 25.0          # req/s: far below single-worker capacity on a warm cache
DURATION = 1.0       # seconds per load leg


def serve() -> BackgroundServer:
    """A live server over a fresh 2-worker service, as `repro serve` runs."""
    return BackgroundServer(ConcurrentLabelingService(workers=2))


def post_solve(url: str, request: SolveRequest) -> SolveResponse:
    body = json.dumps(request.to_json()).encode()
    http = urllib.request.Request(url + "/solve", data=body, method="POST")
    with urllib.request.urlopen(http, timeout=30) as response:
        return SolveResponse.from_json(json.loads(response.read()))


def test_wire_matches_in_process():
    requests = [
        SolveRequest(
            gen.random_graph_with_diameter_at_most(12, 2, seed=seed),
            L21,
            engine="lk",
            tag=f"e16[{seed}]",
        )
        for seed in range(4)
    ]
    with ConcurrentLabelingService(workers=1) as local:
        expected = [
            local.submit(dataclasses.replace(r, tier="exact")).result()
            for r in requests
        ]
    with serve() as server:
        served = [post_solve(server.url, r) for r in requests]
    for want, got, req in zip(expected, served, requests):
        assert got.span == want.span and got.engine == want.engine
        assert got.exact == want.exact and got.key == want.key
        got.labeling.require_feasible(req.graph, req.spec)


def test_low_rate_load_zero_errors():
    with serve() as server:
        report = run_load(
            server.url, rates=[RATE], duration=DURATION, seed=0
        )
    (step,) = report.steps
    assert step.sent > 0 and step.completed == step.sent
    assert step.errors == 0, (
        f"{step.errors} of {step.sent} requests failed at a {RATE} req/s "
        f"offered rate the server must absorb without shedding"
    )
    assert 0.0 < step.p50_ms <= step.p95_ms <= step.p99_ms
    assert step.achieved_rps > 0.0


def test_scraped_metrics_parse_and_cover_http_families():
    with serve() as server:
        run_load(server.url, rates=[10.0], duration=0.5, seed=1)
        with urllib.request.urlopen(server.url + "/metrics", timeout=30) as r:
            assert r.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = r.read().decode()
    problems = check_exposition(text)
    assert problems == [], f"exposition failed the 0.0.4 grammar: {problems}"
    assert 'repro_http_requests_total{endpoint="/solve",status="200"}' in text
    assert "repro_http_request_seconds_count" in text
    assert "repro_http_open_connections" in text


def test_bench_open_loop_ramp(benchmark):
    payloads = default_payload_instances(count=4, n=12, engine="lk", seed=0)
    with serve() as server:
        # warm the cache so the timed laps measure wire cost, not solves
        run_load(
            server.url, rates=[10.0], duration=0.5,
            payloads=payloads, seed=2,
        )

        def run():
            return run_load(
                server.url, rates=[RATE], duration=DURATION,
                payloads=payloads, seed=3,
            )

        report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.total_errors == 0
    assert report.steps[0].completed == report.steps[0].sent

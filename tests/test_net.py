"""End-to-end tests for the asyncio HTTP front end (`repro.net`).

Everything here talks to a real listening socket through
:class:`BackgroundServer` — urllib for the simple round-trips,
``http.client`` where the test needs connection-level control (keep-alive,
streamed NDJSON reads) — so the request framing, the routing, the error
mapping and the shutdown behaviour are all exercised over the wire, not
through internal calls.  Slow solves are event-gated (the
``test_service_server`` idiom), never slept.
"""

import http.client
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.labeling.spec import L21
from repro.net import BackgroundServer
from repro.service.protocol import SolveRequest, SolveResponse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from metrics_lint import check_exposition  # noqa: E402

ENGINE = "nearest_neighbor"  # cheapest engine: these tests exercise plumbing


def make_server(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("offload", False)
    return BackgroundServer(**kwargs)


def graph(seed, n=12):
    return gen.random_graph_with_diameter_at_most(n, 2, seed=seed)


def solve_body(g, tag=None, engine=ENGINE):
    return json.dumps(
        SolveRequest(g, L21, engine=engine, tag=tag).to_json()
    ).encode()


def post(url, path, body):
    request = urllib.request.Request(url + path, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return response.status, response.headers, response.read()


def gated_solver(server, started=None, release=None, gate_tag=None):
    """Gate the service's inline solve: ``gate_tag`` (or all) requests block."""
    service = server.service
    orig = service._solve_inline

    def gated(form, request, tier):
        if gate_tag is None or request.tag == gate_tag:
            if started is not None:
                started.set()
            if release is not None:
                assert release.wait(timeout=30), "test forgot to release"
        return orig(form, request, tier)

    service._solve_inline = gated


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------
def test_solve_stats_metrics_healthz_roundtrip():
    with make_server() as server:
        url = server.url

        status, payload = get(url, "/healthz")[0], json.loads(
            get(url, "/healthz")[2]
        )
        assert status == 200 and payload == {"status": "ok"}

        g = graph(0)
        status, record = post(url, "/solve", solve_body(g, tag="one"))
        assert status == 200
        response = SolveResponse.from_json(record)
        assert response.tag == "one" and not response.cached
        # the wire answer is a real feasible labeling for the instance
        response.labeling.require_feasible(g, L21)

        status, record = post(url, "/solve", solve_body(g, tag="two"))
        assert status == 200 and record["cached"]
        assert record["span"] == response.span

        status, _headers, body = get(url, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["submitted"] >= 2 and stats["hits"] >= 1

        status, headers, body = get(url, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert check_exposition(text) == []
        assert 'repro_http_requests_total{endpoint="/solve",status="200"}' in text
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_http_open_connections" in text


def test_keep_alive_serves_many_requests_per_connection():
    with make_server() as server:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for seed in (1, 1, 2):
                conn.request("POST", "/solve", body=solve_body(graph(seed)))
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())  # must drain before reusing
        finally:
            conn.close()


def test_unknown_path_method_and_bad_payload():
    with make_server() as server:
        url = server.url
        with pytest.raises(urllib.error.HTTPError) as err:
            get(url, "/nope")
        assert err.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as err:
            get(url, "/solve")               # GET on a POST route
        assert err.value.code == 405

        with pytest.raises(urllib.error.HTTPError) as err:
            post(url, "/solve", b"{not json")
        assert err.value.code == 400
        assert json.loads(err.value.read())["code"] == "invalid_request"

        with pytest.raises(urllib.error.HTTPError) as err:
            post(url, "/batch", solve_body(graph(0)) + b"\n{bad\n")
        assert err.value.code == 400         # whole batch validated up front


def test_unknown_engine_is_rejected_before_the_service():
    with make_server() as server:
        url = server.url
        before = json.loads(get(url, "/stats")[2])
        with pytest.raises(urllib.error.HTTPError) as err:
            post(url, "/solve", solve_body(graph(0), engine="nope"))
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["code"] == "invalid_request"
        assert "unknown engine 'nope'" in body["error"]
        after = json.loads(get(url, "/stats")[2])
        # rejected at validation: never submitted, never a server error
        for counter in ("submitted", "errors"):
            assert after[counter] == before[counter]


def test_inapplicable_instance_maps_to_422():
    with make_server() as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server.url, "/solve", solve_body(gen.cycle_graph(6)))
        assert err.value.code == 422
        assert json.loads(err.value.read())["code"] == "not_applicable"


# ---------------------------------------------------------------------------
# the NDJSON batch stream
# ---------------------------------------------------------------------------
def test_batch_streams_in_completion_order():
    with make_server() as server:
        release = threading.Event()
        gated_solver(server, release=release, gate_tag="slow")

        body = (
            solve_body(graph(3), tag="slow")
            + b"\n"
            + solve_body(graph(4), tag="fast")
            + b"\n"
        )
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/batch", body=body)
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            first = json.loads(response.readline())
            assert first["tag"] == "fast", (
                "completion order: the ungated request streams out first"
            )
            release.set()
            second = json.loads(response.readline())
            assert second["tag"] == "slow" and second["span"] > 0
            assert response.readline() == b""   # close-delimited stream ends
        finally:
            release.set()
            conn.close()


def test_batch_per_request_errors_keep_the_stream_going():
    with make_server() as server:
        body = (
            solve_body(graph(5), tag="good")
            + b"\n"
            + solve_body(gen.cycle_graph(6), tag="bad")   # diam 3: 422 inside
            + b"\n"
        )
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/batch", body=body)
            response = conn.getresponse()
            records = [json.loads(line) for line in response.read().splitlines()]
        finally:
            conn.close()
        by_tag = {r["tag"]: r for r in records}
        assert by_tag["good"]["span"] > 0
        assert by_tag["bad"]["code"] == "not_applicable"


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------
def test_full_queue_maps_overload_to_429():
    with make_server(workers=1, queue_size=1) as server:
        url = server.url
        started, release = threading.Event(), threading.Event()
        gated_solver(server, started=started, release=release)

        results = {}

        def client(name, seed):
            try:
                results[name] = post(url, "/solve", solve_body(graph(seed)))[0]
            except urllib.error.HTTPError as err:
                results[name] = err.code

        try:
            # A occupies the single worker...
            t_a = threading.Thread(target=client, args=("a", 10))
            t_a.start()
            assert started.wait(timeout=30)
            # ...B fills the queue (poll: A's dequeue is asynchronous)...
            t_b = threading.Thread(target=client, args=("b", 11))
            t_b.start()
            deadline = time.monotonic() + 30
            while server.service.queue_depth() < 1:
                assert time.monotonic() < deadline, "B never reached the queue"
                time.sleep(0.01)
            # ...so C must be rejected immediately with 429.
            with pytest.raises(urllib.error.HTTPError) as err:
                post(url, "/solve", solve_body(graph(12)))
            assert err.value.code == 429
            assert json.loads(err.value.read())["code"] == "overloaded"
        finally:
            release.set()
        t_a.join(timeout=30)
        t_b.join(timeout=30)
        assert results == {"a": 200, "b": 200}, "accepted requests still finish"


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------
def test_graceful_drain_finishes_inflight_and_503s_late_submissions():
    server = make_server()
    url = server.url
    started, release = threading.Event(), threading.Event()
    gated_solver(server, started=started, release=release, gate_tag="slow")

    # a keep-alive connection opened while the server is healthy
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    conn.request("GET", "/healthz")
    assert json.loads(conn.getresponse().read()) == {"status": "ok"}

    slow_result = {}

    def slow_client():
        slow_result["status"], slow_result["record"] = post(
            url, "/solve", solve_body(graph(20), tag="slow")
        )

    t_slow = threading.Thread(target=slow_client)
    t_slow.start()
    assert started.wait(timeout=30)

    shutter = threading.Thread(target=server.shutdown)   # drain=True
    shutter.start()

    # the listener closes promptly; poll until new connections are refused
    deadline = time.monotonic() + 30
    while True:
        try:
            probe = http.client.HTTPConnection(
                server.host, server.port, timeout=1
            )
            probe.request("GET", "/healthz")
            probe.getresponse().read()
            probe.close()
        except OSError:
            break
        assert time.monotonic() < deadline, "listener never closed"
        time.sleep(0.02)

    # late submission on the still-open connection: 503 service_closed
    conn.request("POST", "/solve", body=solve_body(graph(21)))
    response = conn.getresponse()
    payload = json.loads(response.read())
    assert response.status == 503 and payload["code"] == "service_closed"
    conn.close()

    # the in-flight request still completes successfully
    release.set()
    t_slow.join(timeout=60)
    shutter.join(timeout=60)
    assert slow_result["status"] == 200
    assert slow_result["record"]["tag"] == "slow"
    assert not shutter.is_alive(), "drain must complete"


def test_background_server_shutdown_is_idempotent():
    server = make_server()
    get(server.url, "/healthz")
    server.shutdown()
    server.shutdown()   # second call is a no-op, not an error


# ---------------------------------------------------------------------------
# the open-loop load generator
# ---------------------------------------------------------------------------
def test_load_ramp_low_rate_zero_errors():
    from repro.harness.loadgen import run_load

    with make_server() as server:
        report = run_load(server.url, rates=[8.0], duration=0.8, seed=1)
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.errors == 0 and step.error_rate == 0.0
    assert step.completed == step.sent > 0
    assert 0.0 < step.p50_ms <= step.p95_ms <= step.p99_ms
    assert report.to_json()["total_errors"] == 0


def test_load_report_counts_server_errors():
    """Against a dead port every request is an error, not an exception."""
    from repro.harness.loadgen import run_load

    with make_server() as server:
        url = server.url
    report = run_load(url, rates=[20.0], duration=0.3, seed=2, timeout=2.0)
    assert report.total_errors == report.total_sent > 0


def test_load_rejects_bad_parameters():
    from repro.harness.loadgen import run_load

    with pytest.raises(ReproError):
        run_load("http://127.0.0.1:1", rates=[])
    with pytest.raises(ReproError):
        run_load("http://127.0.0.1:1", rates=[-5.0])
    with pytest.raises(ReproError):
        run_load("not-a-url", rates=[5.0])


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------
def test_cli_load_self_serve_smoke(capsys, tmp_path):
    """The `make load-smoke` contract end to end, in-process."""
    from repro.cli import main

    prom = tmp_path / "load.prom"
    code = main([
        "load", "--rate", "15", "--duration", "0.5", "--no-offload",
        "--json", "--fail-on-errors", "--dump-metrics", str(prom),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_errors"] == 0 and report["total_sent"] > 0
    exposition = prom.read_text()
    assert check_exposition(exposition) == []
    assert "repro_http_requests_total" in exposition


def test_cli_load_against_running_server(capsys):
    from repro.cli import main

    with make_server() as server:
        code = main([
            "load", "--url", server.url, "--rate", "10",
            "--duration", "0.4",
        ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p50ms" in out       # the fixed-width table header
    assert "10.0" in out


def test_cli_serve_drains_on_sigterm(tmp_path):
    """`repro-label serve` binds, answers, and exits 0 on SIGTERM."""
    import re
    import signal
    import subprocess

    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--no-offload"],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, f"no serving banner, got {line!r}"
        url = match.group(1)
        with urllib.request.urlopen(url + "/healthz", timeout=30) as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0
        assert "draining" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

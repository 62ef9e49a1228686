"""Open-loop load generator for the :mod:`repro.net` HTTP front end.

The generator is **open-loop**: arrivals follow a seeded Poisson process
(exponential inter-arrival gaps) and each request is fired as its own
asyncio task the moment its arrival time comes due — the sender never
waits for a response before sending the next request.  This is the honest
way to measure a queueing system: a closed-loop client (send, wait, send)
self-throttles exactly when the server saturates, hiding the queueing
delay that real independent users would experience.  Here, when the
offered rate exceeds capacity, latency and the error rate climb in the
recorded numbers instead of silently flattening the offered load.

A run sweeps a list of offered rates (a ramp), holds each for a fixed
duration, and emits one :class:`StepReport` per step — p50/p95/p99
latency, achieved rps, error rate — which together form the saturation
curve ``repro-label load`` reports.  The ``qos_overload`` perf scenario
runs one overload step of it.

Outcomes are three-valued, mirroring the server's QoS ladder: a 200 is
``completed``, a 429 (queue full) or 504 (deadline expired) is
``dropped`` — intentional shedding, never counted in ``error_rate`` — and
everything else (bad status, timeout, socket failure, unparseable or
infeasible body) is an ``error``.  Every payload is a
:class:`PayloadInstance` carrying its instance, so every 200 response's
labeling is re-verified feasible on the client side; a wire answer that
violates its own constraints counts as ``infeasible``, which fails
``load --fail-on-errors`` exactly like an error.

Every request opens its own TCP connection and POSTs one pre-serialized
:class:`~repro.service.protocol.SolveRequest` to ``/solve``, so each
sample pays the full wire cost.  Payloads cycle through a small seeded
pool of distinct instances: the first lap is all cold solves, after which
the steady state exercises the submit → canonicalize → cache-hit path —
the regime a warm production server lives in.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import urlparse

import numpy as np

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.labeling.labeling import Labeling
from repro.labeling.spec import L21, LpSpec
from repro.net.httpio import read_response, write_request
from repro.service.protocol import SolveRequest

#: Per-request client timeout (seconds); a timed-out request is an error.
REQUEST_TIMEOUT = 30.0

#: Settle gap between ramp steps, letting the previous step's stragglers
#: clear the server queue so steps measure their own offered rate.
STEP_GAP_SECONDS = 0.1

#: HTTP statuses that mean intentional shedding (backpressure 429, expired
#: deadline 504) — counted as ``dropped``, never as errors.
DROP_STATUSES = frozenset({429, 504})


@dataclass(frozen=True)
class PayloadInstance:
    """One pre-serialized ``/solve`` body plus the instance it encodes.

    Carrying the graph and spec next to the bytes lets the client re-verify
    every 200 response's labeling against the constraints it was asked to
    satisfy — the end-to-end feasibility floor of the overload smoke.
    """

    body: bytes
    graph: Graph
    spec: LpSpec


def default_payload_instances(
    count: int = 4,
    n: int = 12,
    engine: str = "lk",
    seed: int = 0,
    tier: str = "auto",
    deadline_ms: int | None = None,
) -> list[PayloadInstance]:
    """A seeded pool of ``/solve`` bodies with their instances attached.

    ``count`` distinct diameter-2 instances of ``n`` vertices — small
    enough that the solve itself is cheap, distinct enough that the first
    lap through the pool is all cache misses.  ``tier`` / ``deadline_ms``
    parameterize the QoS fields on every request.
    """
    payloads = []
    for i in range(count):
        graph = gen.random_graph_with_diameter_at_most(n, 2, seed=seed + i)
        request = SolveRequest(
            graph,
            L21,
            engine=engine,
            tag=f"load[{i}]",
            tier=tier,
            deadline_ms=deadline_ms,
        )
        payloads.append(
            PayloadInstance(
                body=json.dumps(request.to_json()).encode("utf-8"),
                graph=graph,
                spec=L21,
            )
        )
    return payloads


@dataclass(frozen=True)
class StepReport:
    """Measured outcome of one offered-rate step."""

    offered_rps: float
    duration: float              # intended send window (seconds)
    sent: int
    completed: int               # HTTP 200 responses (verified when possible)
    errors: int                  # bad statuses, timeouts, socket errors
    achieved_rps: float          # completed / wall (wall includes tail drain)
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: 429/504 responses — intentional shedding, excluded from errors.
    dropped: int = 0
    #: 200 responses answered by the approx tier.
    approx: int = 0
    #: 200 responses whose labeling failed client-side verification.
    infeasible: int = 0

    @property
    def error_rate(self) -> float:
        """Errors (incl. infeasible answers) as a fraction of requests sent.

        Drops are *not* errors: shedding under overload is the
        backpressure/QoS design working, so ``load --fail-on-errors``
        must not fail on it.
        """
        return (self.errors + self.infeasible) / self.sent if self.sent else 0.0

    def to_json(self) -> dict:
        """JSON row for reports and the perf trajectory."""
        return {
            "offered_rps": self.offered_rps,
            "duration": self.duration,
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "dropped": self.dropped,
            "approx": self.approx,
            "infeasible": self.infeasible,
            "error_rate": round(self.error_rate, 4),
            "achieved_rps": round(self.achieved_rps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


@dataclass(frozen=True)
class LoadReport:
    """The whole ramp: one :class:`StepReport` per offered rate."""

    steps: tuple[StepReport, ...]

    @property
    def total_sent(self) -> int:
        """Requests sent across every step."""
        return sum(s.sent for s in self.steps)

    @property
    def total_errors(self) -> int:
        """Failed requests across every step (drops excluded)."""
        return sum(s.errors for s in self.steps)

    @property
    def total_dropped(self) -> int:
        """Intentionally shed requests (429/504) across every step."""
        return sum(s.dropped for s in self.steps)

    @property
    def total_approx(self) -> int:
        """Approx-tier answers across every step."""
        return sum(s.approx for s in self.steps)

    @property
    def total_infeasible(self) -> int:
        """Responses that failed client-side feasibility verification."""
        return sum(s.infeasible for s in self.steps)

    def to_json(self) -> dict:
        """JSON document (the ``repro-label load --json`` output)."""
        return {
            "steps": [s.to_json() for s in self.steps],
            "total_sent": self.total_sent,
            "total_errors": self.total_errors,
            "total_dropped": self.total_dropped,
            "total_approx": self.total_approx,
            "total_infeasible": self.total_infeasible,
        }


async def _exchange(host: str, port: int, payload: bytes) -> tuple[int, bytes]:
    """One fresh-connection ``/solve`` exchange; ``(status, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        write_request(writer, "POST", "/solve", payload)
        await writer.drain()
        response = await read_response(reader)
    finally:
        writer.close()
    return response.status, response.body


def _classify(
    status: int, body: bytes, payload: PayloadInstance
) -> tuple[str, bool]:
    """``(kind, approx)`` for one wire outcome.

    ``kind`` is one of ``ok`` / ``dropped`` / ``infeasible`` / ``error``;
    a 200's labeling is checked against the payload's instance.
    """
    if status in DROP_STATUSES:
        return "dropped", False
    if status != 200:
        return "error", False
    try:
        record = json.loads(body)
        approx = record.get("tier") == "approx"
        labeling = Labeling.from_sequence(record["labels"])
        if not labeling.is_feasible(payload.graph, payload.spec):
            return "infeasible", approx
    except (ValueError, KeyError, TypeError, ReproError):
        return "error", False
    return "ok", approx


async def _one_request(
    host: str,
    port: int,
    payload: PayloadInstance,
    timeout: float,
) -> tuple[str, float, bool]:
    """Fire one ``/solve`` over a fresh connection; ``(kind, latency, approx)``."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    try:
        status, reply = await asyncio.wait_for(
            _exchange(host, port, payload.body), timeout=timeout
        )
    except (ReproError, ConnectionError, OSError, TimeoutError,
            asyncio.TimeoutError, asyncio.IncompleteReadError):
        return "error", loop.time() - t0, False
    latency = loop.time() - t0
    kind, approx = _classify(status, reply, payload)
    return kind, latency, approx


async def _run_step(
    host: str,
    port: int,
    rate: float,
    duration: float,
    payloads: list[PayloadInstance],
    rng: np.random.Generator,
    timeout: float,
) -> StepReport:
    """Hold one offered rate for ``duration`` seconds; gather every sample."""
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    t_start = loop.time()
    deadline = t_start + duration
    t_next = t_start
    index = 0
    while t_next < deadline:
        delay = t_next - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                _one_request(
                    host, port, payloads[index % len(payloads)], timeout
                )
            )
        )
        index += 1
        # Poisson arrivals: exponential gaps at the offered rate.  The next
        # send time advances by the *schedule*, not by when this iteration
        # actually ran, so a slow response path cannot throttle the sender.
        t_next += float(rng.exponential(1.0 / rate))
    outcomes = await asyncio.gather(*tasks)
    wall = loop.time() - t_start         # includes the tail drain
    latencies = [sec for kind, sec, _ in outcomes if kind == "ok"]
    counts = {"ok": 0, "dropped": 0, "infeasible": 0, "error": 0}
    approx = 0
    for kind, _sec, was_approx in outcomes:
        counts[kind] += 1
        approx += was_approx
    lat_ms = np.asarray(latencies) * 1e3
    return StepReport(
        offered_rps=rate,
        duration=duration,
        sent=len(tasks),
        completed=counts["ok"],
        errors=counts["error"],
        dropped=counts["dropped"],
        approx=approx,
        infeasible=counts["infeasible"],
        achieved_rps=counts["ok"] / wall if wall > 0 else 0.0,
        p50_ms=float(np.percentile(lat_ms, 50)) if latencies else 0.0,
        p95_ms=float(np.percentile(lat_ms, 95)) if latencies else 0.0,
        p99_ms=float(np.percentile(lat_ms, 99)) if latencies else 0.0,
    )


async def run_ramp(
    host: str,
    port: int,
    rates: list[float],
    duration: float = 2.0,
    payloads: list[PayloadInstance] | None = None,
    seed: int = 0,
    timeout: float = REQUEST_TIMEOUT,
) -> LoadReport:
    """Sweep the offered rates in order; one :class:`StepReport` each.

    ``payloads`` defaults to :func:`default_payload_instances` at ``seed``;
    every 200 response is verified feasible against its payload's instance.
    """
    if not rates or any(r <= 0 for r in rates):
        raise ReproError(f"rates must be positive, got {rates}")
    if payloads is None:
        payloads = default_payload_instances(seed=seed)
    rng = np.random.default_rng(seed)
    steps = []
    for rate in rates:
        steps.append(
            await _run_step(host, port, rate, duration, payloads, rng, timeout)
        )
        await asyncio.sleep(STEP_GAP_SECONDS)
    return LoadReport(steps=tuple(steps))


def run_load(
    url: str,
    rates: list[float],
    duration: float = 2.0,
    payloads: list[PayloadInstance] | None = None,
    seed: int = 0,
    timeout: float = REQUEST_TIMEOUT,
) -> LoadReport:
    """Synchronous entry point: ramp ``url`` (e.g. ``http://127.0.0.1:8425``).

    Runs the whole sweep on a private event loop; safe to call from any
    thread that is not already inside asyncio.
    """
    parsed = urlparse(url if "//" in url else f"http://{url}")
    if parsed.hostname is None or parsed.port is None:
        raise ReproError(f"load target needs host and port, got {url!r}")
    return asyncio.run(
        run_ramp(
            parsed.hostname,
            parsed.port,
            rates,
            duration=duration,
            payloads=payloads,
            seed=seed,
            timeout=timeout,
        )
    )

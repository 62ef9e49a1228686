"""Asyncio HTTP front end over :class:`ConcurrentLabelingService`.

This is the wire tier of the serving stack: a pure-stdlib asyncio HTTP/1.1
server (no third-party framework) that speaks the
:mod:`repro.service.protocol` schema on five routes:

``POST /solve``
    One :meth:`SolveRequest.to_json` body in, one
    :meth:`SolveResponse.to_json` body out.  Submission is non-blocking —
    a full queue maps :class:`~repro.errors.ServiceOverloadedError`
    straight to HTTP 429, so overload is an explicit, immediate signal
    instead of silent latency.
``POST /batch``
    NDJSON stream of requests in, NDJSON stream of responses out **in
    completion order** (the reply is close-delimited, flushed line by
    line as solves finish).  Per-request failures become error lines
    tagged with the request's ``tag``; the stream keeps going.
``GET /stats``
    The labeling service's :meth:`ServerStats.to_json` snapshot, plus the
    QoS router's state under ``"router"`` (per-tier routing counts,
    degradations, deadline drops, thresholds).
``GET /metrics``
    Prometheus text exposition (format 0.0.4) straight from the process
    :data:`~repro.obs.metrics.REGISTRY`.
``GET /healthz``
    ``{"status": "ok"}`` — flips to ``"draining"`` once shutdown begins.

Every error body is the JSON payload from
:func:`repro.errors.error_payload`, so the wire and the CLI share one
error vocabulary (stable ``code`` strings, HTTP statuses from the same
table).

Shutdown is graceful: :meth:`NetworkServer.shutdown` stops the listener,
lets every in-flight request finish, answers late submissions on
still-open connections with 503 (``service_closed``), then retires the
labeling service it fronts.

The event loop owns all connection state; CPU-heavy work — canonical-form
key derivation inside ``submit`` and the solves themselves — happens on
the labeling service's executor threads, so the loop stays responsive at
high connection churn.

:class:`BackgroundServer` wraps the whole thing in a daemon thread running
its own event loop, giving synchronous callers (tests, benchmarks, the
perf suite, ``repro-label load`` self-serve mode) a context-managed server
with a real TCP port.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time

from repro.errors import (
    ReproError,
    ServiceClosedError,
    error_payload,
    http_status,
)
from repro.net.httpio import (
    HttpMessage,
    LINE_LIMIT,
    read_request,
    response_head,
    write_response,
)
from repro.obs.metrics import REGISTRY
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService

#: Content type of the Prometheus text exposition the scrape endpoint serves.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Known routes, for the 404/405 split and the endpoint metric label.
_ROUTES = {
    "/solve": ("POST",),
    "/batch": ("POST",),
    "/stats": ("GET",),
    "/metrics": ("GET",),
    "/healthz": ("GET",),
}

_M_REQUESTS = REGISTRY.counter("repro_http_requests_total")
_M_LATENCY = REGISTRY.histogram("repro_http_request_seconds")
_M_LATENCY.labels()  # materialize: expose zeroed buckets immediately
_M_OPEN = REGISTRY.gauge("repro_http_open_connections")
_M_OPEN.labels()


class NetworkServer:
    """The asyncio HTTP front end; one instance per listening socket.

    Parameters
    ----------
    service:
        The :class:`ConcurrentLabelingService` to expose.  The server
        takes it over: :meth:`shutdown` retires it.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        service: ConcurrentLabelingService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Bind configuration; the socket opens in :meth:`start`."""
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._closing = False
        self._shut_down = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._active = 0                 # requests currently being answered
        self._quiet = asyncio.Event()    # set whenever _active == 0
        self._quiet.set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the listening socket (resolves ``port=0`` to the real port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    async def wait_shutdown(self) -> None:
        """Block until :meth:`shutdown` has completed."""
        await self._shut_down.wait()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection: keep-alive loop over requests."""
        self._writers.add(writer)
        _M_OPEN.inc(1)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ReproError as exc:    # framing error: answer and close
                    write_response(
                        writer,
                        http_status(exc),
                        json.dumps(error_payload(exc)).encode(),
                        close=True,
                    )
                    await writer.drain()
                    return
                if request is None:
                    return                   # peer closed cleanly
                keep_alive = await self._serve_request(request, writer)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return                           # peer vanished mid-message
        finally:
            self._writers.discard(writer)
            _M_OPEN.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_request(
        self, request: HttpMessage, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether the connection stays open.

        Wraps the route handler with the in-flight accounting graceful
        drain waits on, the wire-latency histogram, and the
        per-endpoint/status request counter.
        """
        t0 = time.perf_counter()
        endpoint = request.path if request.path in _ROUTES else "other"
        self._active += 1
        self._quiet.clear()
        try:
            status, keep_alive = await self._route(request, writer)
        finally:
            self._active -= 1
            if self._active == 0:
                self._quiet.set()
            _M_LATENCY.observe(time.perf_counter() - t0)
        _M_REQUESTS.labels(endpoint=endpoint, status=str(status)).inc()
        return keep_alive and not self._closing

    async def _route(
        self, request: HttpMessage, writer: asyncio.StreamWriter
    ) -> tuple[int, bool]:
        """Dispatch to the endpoint handler; returns ``(status, keep)``."""
        method, path = request.method, request.path
        if path not in _ROUTES:
            return self._error(writer, ReproError(f"no such path: {path}"), 404)
        if method not in _ROUTES[path]:
            return self._error(
                writer,
                ReproError(f"{path} only accepts {_ROUTES[path][0]}"),
                405,
            )
        if path == "/healthz":
            body = {"status": "draining" if self._closing else "ok"}
            return self._json(writer, 200, body)
        if path == "/stats":
            payload = self.service.stats.to_json()
            payload["router"] = self.service.router.to_json()
            return self._json(writer, 200, payload)
        if path == "/metrics":
            text = REGISTRY.render_prom().encode("utf-8")
            write_response(writer, 200, text, content_type=PROM_CONTENT_TYPE)
            return 200, True
        try:
            if self._closing:
                raise ServiceClosedError("server is draining; retry elsewhere")
            if path == "/solve":
                return await self._solve(request, writer)
            return await self._batch(request, writer)
        except ReproError as exc:
            return self._error(writer, exc)

    # ------------------------------------------------------------------
    def _json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> tuple[int, bool]:
        """Write one JSON response; keep the connection open."""
        write_response(writer, status, json.dumps(payload).encode("utf-8"))
        return status, True

    def _error(
        self,
        writer: asyncio.StreamWriter,
        exc: ReproError,
        status: int | None = None,
    ) -> tuple[int, bool]:
        """Write the table-driven JSON error body for ``exc``."""
        payload = error_payload(exc)
        if status is not None:
            payload["status"] = status
        status = payload["status"]
        write_response(writer, status, json.dumps(payload).encode("utf-8"))
        return status, True

    async def _submit(self, request: SolveRequest, block: bool) -> asyncio.Future:
        """Submit off-loop (key derivation runs APSP) and await-ify the future.

        ``submit`` itself is CPU-bound — canonical-form derivation runs the
        APSP kernel — so it goes to the default executor; the returned
        :class:`concurrent.futures.Future` is wrapped for the event loop.
        """
        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            None,
            functools.partial(self.service.submit, request, block=block),
        )
        return asyncio.wrap_future(future, loop=loop)

    async def _solve(
        self, request: HttpMessage, writer: asyncio.StreamWriter
    ) -> tuple[int, bool]:
        """``POST /solve``: parse, submit without blocking, answer."""
        solve_request = SolveRequest.from_json_line(request.body)
        response = await (await self._submit(solve_request, block=False))
        return self._json(writer, 200, response.to_json())

    async def _batch(
        self, request: HttpMessage, writer: asyncio.StreamWriter
    ) -> tuple[int, bool]:
        """``POST /batch``: NDJSON in, completion-order NDJSON out.

        The whole batch is validated before the first response byte, so a
        malformed line is a clean HTTP 400.  After that the reply is a
        close-delimited stream: every finished solve is flushed as its own
        line the moment it completes — the client sees results in
        completion order, not submission order.  Submission blocks on the
        service queue (backpressure throttles the batch instead of
        rejecting it); per-request solve failures become
        ``{"tag", "error", "code"}`` lines and the stream continues.
        """
        lines = [ln for ln in request.body.splitlines() if ln.strip()]
        requests = [SolveRequest.from_json_line(ln) for ln in lines]
        writer.write(
            response_head(200, content_type="application/x-ndjson", close=True)
        )
        loop = asyncio.get_running_loop()
        done: asyncio.Queue = asyncio.Queue()

        def _finished(tag: str | None, fut) -> None:
            # runs on a service worker thread — hop back onto the loop
            loop.call_soon_threadsafe(done.put_nowait, (tag, fut))

        pending = 0
        for solve_request in requests:
            try:
                future = await self._submit(solve_request, block=True)
            except ReproError as exc:
                done.put_nowait((solve_request.tag, exc))
                pending += 1
                continue
            future.add_done_callback(
                functools.partial(_finished, solve_request.tag)
            )
            pending += 1
        for _ in range(pending):
            tag, outcome = await done.get()
            if not isinstance(outcome, BaseException):
                try:
                    record = outcome.result().to_json()
                except BaseException as exc:
                    outcome = exc
            if isinstance(outcome, BaseException):
                record = {"tag": tag}
                record.update(error_payload(_as_repro_error(outcome)))
            writer.write(json.dumps(record).encode("utf-8") + b"\n")
            await writer.drain()
        return 200, False                    # close-delimited: one per conn

    # ------------------------------------------------------------------
    async def shutdown(self, drain: bool = True) -> None:
        """Stop intake, let in-flight requests finish, retire the service.

        With ``drain=True`` (default) every request already being answered
        runs to completion — late submissions arriving on still-open
        keep-alive connections get 503 ``service_closed`` — and then the
        labeling service drains its queue and shuts down.  ``drain=False``
        cancels queued work instead.  Idempotent.
        """
        if self._closing and self._shut_down.is_set():
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            await self._quiet.wait()
        for writer in list(self._writers):
            writer.close()
        await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(self.service.shutdown, wait=drain)
        )
        self._shut_down.set()


def _as_repro_error(exc: BaseException) -> ReproError:
    """Clamp an arbitrary failure to the error-table vocabulary."""
    return exc if isinstance(exc, ReproError) else ReproError(str(exc))


class BackgroundServer:
    """A :class:`NetworkServer` on its own daemon thread and event loop.

    Synchronous callers (tests, benchmarks, the perf suite's
    ``qos_overload`` scenario, ``repro-label load`` self-serve mode) get a
    live TCP port without touching asyncio:

    constructor starts the loop + a server over ``service`` and blocks
    until the socket is bound; :meth:`shutdown` runs the graceful drain
    on the loop (which retires the service) and joins the thread.  Usable
    as a context manager.
    """

    def __init__(
        self, service: ConcurrentLabelingService, timeout: float = 30.0
    ) -> None:
        """Start the loop thread and wait for the socket to bind."""
        self._service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: NetworkServer | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._down = False
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise ReproError("background server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        """Thread body: own loop, start the server, park until shutdown."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            try:
                self.server = NetworkServer(self._service)
                await self.server.start()
            except BaseException as exc:    # surface to the constructor
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.wait_shutdown()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound host."""
        return self.server.host

    @property
    def port(self) -> int:
        """Bound (resolved) port."""
        return self.server.port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return self.server.url

    @property
    def service(self) -> ConcurrentLabelingService:
        """The labeling service behind the wire (for tests and stats)."""
        return self.server.service

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully stop the server and join its thread.  Idempotent."""
        if self._down:
            return
        self._down = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        """Context manager: the running server itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Graceful drain on exit."""
        self.shutdown(drain=True)

"""The benchmark's own HTTP/1.1 client: one asyncio thread, keep-alive pool.

Kept independent of the program's ``repro.net.httpio`` so a change to the
server's framing is measured, not mirrored.  Two load generators share it:

- :func:`open_loop` fires requests on a precomputed schedule (Poisson
  arrivals) and times each one from its *scheduled* send time, so waiting
  for a free connection, or a late generator, counts against the request;
- :func:`closed_loop` runs ``clients`` callers that each send, wait for the
  reply, and send again.

:func:`post_batch` sends one NDJSON ``POST /batch`` and timestamps every
reply line as it arrives (priming uses it).

Replies are stored raw; parsing and checking happen after the timed window
so the event loop only moves bytes while it is being measured.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

#: Per-request client timeout (seconds); a timed-out request is an error.
TIMEOUT_S = 60.0


class HttpError(Exception):
    """A malformed reply or a broken connection."""


class Conn:
    """One keep-alive connection to the server."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        """Wrap an open stream pair."""
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        """Connect to ``host:port``."""
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
        return cls(reader, writer)

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        """Queue one request (keep-alive: no ``Connection: close``)."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)

    async def read_head(self) -> tuple[int, dict[str, str]]:
        """Status code and lower-cased headers of the next reply."""
        line = await self.reader.readline()
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"malformed status line {line!r}")
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return int(parts[1]), headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        """One content-length exchange on this connection."""
        self.send(method, path, body)
        await self.writer.drain()
        status, headers = await self.read_head()
        if "content-length" not in headers:
            raise HttpError(f"{path}: reply has no Content-Length")
        return status, await self.reader.readexactly(int(headers["content-length"]))

    async def close(self) -> None:
        """Close the socket and wait for it to go."""
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass
class Sample:
    """One request's outcome."""

    index: int               # position in the stream's request list
    status: int              # HTTP status, 0 for a client-side failure
    body: bytes
    latency: float           # seconds, from scheduled (or actual) send
    start: float             # scheduled (or actual) send, s after stream start
    lag: float = 0.0         # open loop: generator lateness against schedule


@dataclass
class Pool:
    """At most ``size`` keep-alive connections, handed out one at a time."""

    host: str
    port: int
    size: int
    _free: asyncio.Queue = field(default_factory=asyncio.Queue)
    _conns: list = field(default_factory=list)

    async def start(self) -> None:
        """Open every connection up front."""
        for _ in range(self.size):
            conn = await Conn.open(self.host, self.port)
            self._conns.append(conn)
            self._free.put_nowait(conn)

    async def solve(self, body: bytes) -> tuple[int, bytes]:
        """``POST /solve`` on the next free connection.

        A connection that fails is replaced, so one broken exchange costs
        one request, not the rest of the run.
        """
        conn = await self._free.get()
        try:
            result = await asyncio.wait_for(
                conn.request("POST", "/solve", body), TIMEOUT_S)
        except (OSError, HttpError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            await conn.close()
            self._conns.remove(conn)
            conn = await Conn.open(self.host, self.port)
            self._conns.append(conn)
            result = (0, b"")
        self._free.put_nowait(conn)
        return result

    async def close(self) -> None:
        """Close every connection."""
        for conn in self._conns:
            await conn.close()


def poisson_schedule(rate: float, seconds: float, rng) -> list[float]:
    """Arrival offsets (seconds) of a Poisson stream at ``rate`` per second."""
    out, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= seconds:
            return out
        out.append(t)


async def open_loop(pool: Pool, bodies: list[bytes],
                    schedule: list[float]) -> list[Sample]:
    """Send ``bodies[i]`` at ``schedule[i]``; never wait for a reply first."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    samples: list[Sample] = []

    async def one(i: int, due: float, lag: float) -> None:
        status, body = await pool.solve(bodies[i])
        samples.append(Sample(i, status, body, loop.time() - due, due - t0, lag))

    tasks = []
    for i, offset in enumerate(schedule):
        due = t0 + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, due, loop.time() - due)))
    await asyncio.gather(*tasks)
    samples.sort(key=lambda s: s.index)
    return samples


async def closed_loop(pool: Pool, bodies: list[bytes], clients: int,
                      seconds: float) -> tuple[list[Sample], float]:
    """``clients`` callers send-and-wait over ``bodies`` in order.

    Returns the samples and the wall time from start to the last reply.
    A caller starts no request after ``seconds``, or once ``bodies`` are
    used up; ones in flight finish.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    stop = t0 + seconds
    samples: list[Sample] = []
    cursor = iter(range(len(bodies)))

    async def caller() -> None:
        for i in cursor:
            if loop.time() >= stop:
                return
            t = loop.time()
            status, body = await pool.solve(bodies[i])
            samples.append(Sample(i, status, body, loop.time() - t, t - t0))

    await asyncio.gather(*(caller() for _ in range(clients)))
    samples.sort(key=lambda s: s.index)
    return samples, loop.time() - t0


async def post_batch(host: str, port: int,
                     lines: list[bytes]) -> list[tuple[float, bytes]]:
    """One ``POST /batch`` on its own connection (the reply is close-delimited).

    Returns every reply line with its arrival time, in seconds after the send.
    """
    loop = asyncio.get_running_loop()
    conn = await Conn.open(host, port)
    t0 = loop.time()
    got = []
    try:
        conn.send("POST", "/batch", b"\n".join(lines) + b"\n")
        await conn.writer.drain()
        await asyncio.wait_for(conn.read_head(), TIMEOUT_S)
        while True:
            line = await asyncio.wait_for(conn.reader.readline(), TIMEOUT_S)
            if not line:
                return got
            got.append((loop.time() - t0, line))
    finally:
        await conn.close()


async def get(host: str, port: int, path: str) -> bytes:
    """One ``GET`` on a fresh connection; raises unless the reply is 200."""
    conn = await Conn.open(host, port)
    try:
        status, body = await asyncio.wait_for(conn.request("GET", path), TIMEOUT_S)
    finally:
        await conn.close()
    if status != 200:
        raise HttpError(f"GET {path} answered {status}")
    return body

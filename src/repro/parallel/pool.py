"""Process-pool utilities (per the hpc-parallel guides).

The solvers here are pure CPU-bound Python/NumPy, so thread pools gain
nothing under the GIL; processes are the right tool.  Two shapes:

- :func:`parallel_map` — a one-shot ``ProcessPoolExecutor`` map for sweeps
  and portfolios.  Everything submitted through it must be a module-level
  callable plus plain-data arguments.
- :class:`WorkerPool` — the serving path's long-lived worker processes
  behind one blocking call.  :meth:`~WorkerPool.solve` checks out an idle
  worker, sends it a canonical graph's exported arrays (distance matrix
  plus CSR adjacency, see :func:`repro.graphs.analysis.export_buffers`)
  and a ``(key, p, engine)`` tuple through its pipe, and reads the reply
  on the caller's thread.  Only numpy arrays and small tuples cross the
  pipe, never a :class:`~repro.graphs.graph.Graph`; the worker rebuilds
  the graph with :func:`~repro.graphs.analysis.adopt_buffers` and keeps
  nothing between calls.  A worker that dies mid-call makes that call
  raise :class:`~repro.errors.WorkerCrashedError`, is respawned, and is
  counted in ``repro_pool_worker_restarts_total`` — callers never hang.

Trace spans propagate across the boundary: the worker runs each solve
under a ``solve.offload`` span parented to the caller's active context
and ships its drained span rows back for the parent tracer to ingest.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import ReproError, WorkerCrashedError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER, SpanContext

T = TypeVar("T")
R = TypeVar("R")

_M_RESTARTS = REGISTRY.counter("repro_pool_worker_restarts_total")
_M_RESTARTS.labels()
_M_DISPATCH = REGISTRY.counter("repro_pool_dispatch_total")
_M_IMBALANCE = REGISTRY.gauge("repro_pool_route_imbalance")
_M_IMBALANCE.labels()


def effective_cpu_count() -> int:
    """CPUs this process may actually run on, at least 1.

    ``os.sched_getaffinity(0)`` respects cgroup/container CPU masks and
    ``taskset`` pinning, which bare ``os.cpu_count()`` ignores — under a
    pinned CI leg or a containerized runner the two can disagree by an
    order of magnitude, and every scaling decision (offload auto-detect,
    multi-core bench floors, perf provenance) must use the effective
    number.  Falls back to ``os.cpu_count()`` where affinity is
    unsupported (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_workers() -> int:
    """Effective CPU count with a small safety margin, at least 1."""
    return max(1, effective_cpu_count() - 1)


def chunked(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive chunks of ``size`` items (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for i in range(0, len(items), size):
        yield items[i : i + size]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Order-preserving parallel map over processes.

    ``fn`` must be picklable (module-level).  Falls back to a plain loop when
    only one worker is requested or there is at most one item (avoids pool
    start-up latency in the degenerate cases).
    """
    items = list(items)
    workers = workers or default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# ---------------------------------------------------------------------------
# the serving pool: worker side
# ---------------------------------------------------------------------------
def _solve(buffers: dict[str, np.ndarray], job: tuple) -> tuple:
    """Solve one ``(key, p, engine)`` job on the graph ``buffers`` encode."""
    from repro.graphs.analysis import adopt_buffers
    from repro.labeling.spec import LpSpec
    from repro.reduction.solver import solve_labeling

    distances = buffers["distances"]
    graph = adopt_buffers(
        distances.shape[0], buffers["indptr"], buffers["indices"], distances
    )
    key, p, engine = job
    t0 = time.perf_counter()
    result = solve_labeling(graph, LpSpec(p), engine=engine)
    seconds = time.perf_counter() - t0
    return (
        key,
        result.labeling.labels,
        result.span,
        result.engine,
        result.exact,
        seconds,
    )


def _worker_main(conn) -> None:
    """Worker-process loop: rebuild, solve, reply — until the stop sentinel.

    Messages in: ``("job", buffers, (key, p, engine), ctx_row)`` or
    ``None`` (clean shutdown).  Messages out: ``("ready", pid)`` once,
    then ``("result", ok, payload, spans)`` per job.  Failures are shipped
    back as exception objects; the parent re-raises them in the caller.
    """
    TRACER.drain()  # a fork-inherited buffer must not replay parent spans
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return
            if msg is None:
                return
            _, buffers, job, ctx_row = msg
            spans: tuple = ()
            try:
                if ctx_row is None:
                    payload = _solve(buffers, job)
                else:
                    with TRACER.activate(SpanContext(**ctx_row)):
                        with TRACER.span(
                            "solve.offload", pid=os.getpid(), key=job[0]
                        ):
                            payload = _solve(buffers, job)
                    spans = tuple(s.to_json() for s in TRACER.drain())
                out = ("result", True, payload, spans)
            except BaseException as exc:
                out = ("result", False, _portable(exc), ())
            try:
                conn.send(out)
            except (BrokenPipeError, OSError):
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it pickles, else a :class:`ReproError` carrying its repr."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"worker solve failed: {exc!r}")


# ---------------------------------------------------------------------------
# the serving pool: parent side
# ---------------------------------------------------------------------------
#: Consecutive deaths before the ready handshake that retire a worker slot.
_MAX_EARLY_DEATHS = 3


class _Worker:
    """Parent-side state for one worker process: its pipe and handshake."""

    __slots__ = ("proc", "conn", "ready")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: True once the ``("ready", pid)`` handshake was read off the pipe.
        self.ready = False

    def stop(self) -> None:
        """Send the stop sentinel and drop the parent's end of the pipe."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.conn.close()


class WorkerPool:
    """Persistent worker processes, each serving one blocking call at a time.

    A call takes the longest-idle worker (a FIFO of slot indices), sends it
    ``(buffers, job)`` and reads the reply on the calling thread; with
    every worker busy, callers wait for one to come back.  The pool starts
    no thread of its own.

    Parameters
    ----------
    workers:
        Worker-process count, i.e. how many calls run at once.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default.  Both fork and spawn are exercised in the tests.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        """Start the worker processes."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._ctx = get_context(start_method)
        self._cond = threading.Condition()
        self._closing = False
        self._restarts = 0
        #: Consecutive deaths-before-ready per slot: a worker that cannot
        #: even start (broken environment, import failure) must not be
        #: respawned forever — at the cap the slot is retired.
        self._early_deaths = [0] * workers
        self._dispatched = [0] * workers
        self._m_dispatch = [
            _M_DISPATCH.labels(worker=str(i)) for i in range(workers)
        ]
        _M_IMBALANCE.set_function(
            lambda pool: pool.route_imbalance(), owner=self
        )
        self._slots = [self._spawn() for _ in range(workers)]
        #: Idle slot indices, longest-idle first.
        self._idle = deque(range(workers))

    def _spawn(self) -> _Worker:
        """Start one worker process (callers serialize forks on the lock)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name="pool-worker",
        )
        proc.start()
        child_conn.close()  # the parent keeps only its own end
        return _Worker(proc, parent_conn)

    # ------------------------------------------------------------------
    def wait_ready(self, timeout: float | None = 30.0) -> None:
        """Block until every idle worker sent its ready handshake.

        Benchmarks call this before timing so interpreter start-up (spawn
        imports numpy per worker) never pollutes a measured serve.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            slots = list(self._idle)
            self._idle.clear()
        try:
            for slot in slots:
                self._usable(slot, deadline)
        finally:
            for slot in slots:
                self._checkin(slot)

    def worker_pids(self) -> list[int]:
        """Worker PIDs, in slot order (crash tests kill these)."""
        with self._cond:
            return [w.proc.pid for w in self._slots]

    @property
    def restart_count(self) -> int:
        """Workers respawned after dying (mirrors the restarts counter)."""
        with self._cond:
            return self._restarts

    def dispatch_counts(self) -> list[int]:
        """Calls dispatched per worker slot over the pool's lifetime."""
        with self._cond:
            return list(self._dispatched)

    def route_imbalance(self) -> float:
        """Max-over-mean dispatch count (1.0 = perfectly balanced)."""
        with self._cond:
            total = sum(self._dispatched)
            if not total:
                return 1.0
            return max(self._dispatched) / (total / self.workers)

    # ------------------------------------------------------------------
    def solve(self, buffers: dict[str, np.ndarray], job: tuple) -> tuple:
        """Solve one ``(key, p, engine)`` job on a worker; blocks for it.

        ``buffers`` is the canonical graph as
        :func:`~repro.graphs.analysis.export_buffers` returns it; it is
        pickled into the worker's pipe with the job.  Returns the
        worker's ``(key, labels, span, engine, exact, seconds)`` tuple,
        or raises what the solve raised — :class:`WorkerCrashedError`
        when the worker died instead of answering.  The worker's
        ``solve.offload`` span parents under the caller's active trace
        context.
        """
        ctx = TRACER.current_context()
        ctx_row = (
            None if ctx is None
            else {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
        )
        return self._call(("job", buffers, job, ctx_row))

    def _call(self, message: tuple):
        """Send ``message`` to an idle worker and return its reply payload."""
        slot = self._checkout()
        try:
            worker = self._usable(slot)
            with self._cond:
                self._dispatched[slot] += 1
            self._m_dispatch[slot].inc()
            try:
                worker.conn.send(message)
                reply = worker.conn.recv()
            except (EOFError, OSError):
                reply = None
            except BaseException:
                # interrupted: a late reply must never reach the next call
                worker.proc.kill()
                worker.proc.join()
                raise
            if reply is None:
                self._replace(slot, worker)
                raise WorkerCrashedError(
                    f"pool worker {worker.proc.pid} died with the job in flight"
                )
        finally:
            self._checkin(slot)
        _, ok, payload, spans = reply
        if spans:
            TRACER.ingest(list(spans))
        if not ok:
            raise payload
        return payload

    def _checkout(self) -> int:
        """Take the longest-idle slot, waiting while every worker is busy."""
        with self._cond:
            while True:
                if self._closing:
                    raise ReproError("pool is shut down; no new jobs")
                if self._idle:
                    return self._idle.popleft()
                if all(d >= _MAX_EARLY_DEATHS for d in self._early_deaths):
                    raise WorkerCrashedError(
                        "every pool worker died before becoming ready; "
                        "the pool is broken"
                    )
                self._cond.wait()

    def _checkin(self, slot: int) -> None:
        """Hand a slot back after a call; a closing pool stops its worker."""
        with self._cond:
            if self._early_deaths[slot] >= _MAX_EARLY_DEATHS:
                return  # retired
            if not self._closing:
                self._idle.append(slot)
                self._cond.notify()
                return
            worker = self._slots[slot]
        worker.stop()

    def _usable(self, slot: int, deadline: float | None = None) -> _Worker:
        """The slot's worker with its handshake read; dead ones are replaced.

        A worker found dead before the call (killed while idle) is
        replaced transparently, so the call still succeeds.
        """
        while True:
            worker = self._slots[slot]
            if not worker.ready:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if not worker.conn.poll(remaining):
                    raise ReproError("pool workers not ready before timeout")
                try:
                    worker.conn.recv()
                    worker.ready = True
                except (EOFError, OSError):
                    self._replace(slot, worker)
                    continue
            if worker.proc.is_alive():
                return worker
            self._replace(slot, worker)

    def _replace(self, slot: int, dead: _Worker) -> None:
        """Respawn a dead worker's slot, counted as a restart.

        A worker that died *before* its ready handshake never ran a job —
        three of those in a row mean the worker environment itself is
        broken (an import failure would otherwise respawn forever), so the
        slot is retired and this raises :class:`WorkerCrashedError`, as it
        does when the pool is shutting down.
        """
        with self._cond:
            deaths = 0 if dead.ready else self._early_deaths[slot] + 1
            self._early_deaths[slot] = deaths
            error = None
            if self._closing:
                error = "pool shut down with the job in flight"
            elif deaths >= _MAX_EARLY_DEATHS:
                error = ("pool worker died repeatedly before becoming "
                         "ready; worker slot retired")
                self._cond.notify_all()  # waiters re-check for live slots
            else:
                self._slots[slot] = self._spawn()
                self._restarts += 1
        dead.conn.close()
        dead.proc.join(timeout=1.0)
        if error is not None:
            raise WorkerCrashedError(error)
        _M_RESTARTS.inc()

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers.  Idempotent, and never hangs.

        Idle workers get the stop sentinel at once, busy ones from their
        caller when its call returns.  Workers still running after a
        shared five-second grace are terminated, which fails their calls
        with :class:`WorkerCrashedError`.
        """
        with self._cond:
            if self._closing:
                return
            self._closing = True
            idle = [self._slots[slot] for slot in self._idle]
            self._idle.clear()
            workers = list(self._slots)
            self._cond.notify_all()
        for worker in idle:
            worker.stop()
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        """Context manager: the running pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Stop the workers on scope exit."""
        self.shutdown()

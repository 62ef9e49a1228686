"""Persistent shared-memory worker pool for the serving path.

Cold solves cross the process boundary without pickling the graph, via
two cooperating pieces:

- :class:`ShmArena` — a parent-side registry that publishes a canonical
  graph's heavy arrays (distance matrix + CSR adjacency, see
  :func:`repro.graphs.analysis.export_buffers`) **once** into a
  ``multiprocessing.shared_memory`` segment, keyed by canonical cache key.
  Entries are leased (refcounted) while jobs are in flight, LRU-evicted at
  zero refs past capacity, and unlinked deterministically on
  :meth:`~ShmArena.close` — with an atexit sweep as the backstop, so
  segments never outlive the process.
- :class:`ShmWorkerPool` — long-lived worker processes behind one
  blocking call.  :meth:`~ShmWorkerPool.solve` checks out an idle worker,
  sends it a tiny picklable :class:`ShmDescriptor` plus a ``(key, p,
  engine)`` tuple, and reads the reply on the caller's thread.  Workers
  reconstruct the canonical graph as **zero-copy numpy views** into the
  segment (:func:`repro.graphs.analysis.adopt_buffers`) and keep a small
  LRU of adopted graphs.  A worker that dies mid-call makes that call
  raise :class:`~repro.errors.WorkerCrashedError`, is respawned, and is
  counted in ``repro_pool_worker_restarts_total`` — callers never hang.

Trace spans propagate across the boundary: the worker runs each solve
under a ``solve.offload`` span parented to the caller's active context
and ships its drained span rows back for the parent tracer to ingest.
"""

from __future__ import annotations

import atexit
import glob
import itertools
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.errors import ReproError, WorkerCrashedError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER, SpanContext

#: Prefix of every segment this module creates; the tests' zero-leak
#: fixture (and the /dev/shm lifecycle assertions) key off it.
SEGMENT_PREFIX = "repro_shm_"

#: Arena capacity default: refcount-zero entries past this are LRU-unlinked.
DEFAULT_ARENA_CAPACITY = 64

#: Worker-side adopted-graph LRU size.
DEFAULT_GRAPH_CACHE = 32

#: Segment offsets are aligned so every numpy view starts on a cache line.
_ALIGN = 64

_M_SHM_BYTES = REGISTRY.counter("repro_shm_bytes_published_total")
_M_SHM_BYTES.labels()
_M_SEGMENTS_LIVE = REGISTRY.gauge("repro_shm_segments_live")
_M_SEGMENTS_LIVE.labels()
_M_RESTARTS = REGISTRY.counter("repro_pool_worker_restarts_total")
_M_RESTARTS.labels()
_M_DISPATCH = REGISTRY.counter("repro_pool_dispatch_total")
_M_IMBALANCE = REGISTRY.gauge("repro_pool_route_imbalance")
_M_IMBALANCE.labels()


def live_segment_names() -> list[str]:
    """Names of this module's shm segments currently in ``/dev/shm``.

    The zero-leak acceptance criterion made concrete: the test suites'
    session fixtures snapshot this before and after a run, and the
    lifecycle tests assert individual segments appear and vanish.  Sorted
    for deterministic assertion messages; empty on non-Linux hosts.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux host
        return []
    return sorted(
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    )


@dataclass(frozen=True)
class ShmDescriptor:
    """Everything a worker needs to reconstruct one published graph.

    Picklable and tiny — this is what crosses the process boundary instead
    of the arrays themselves.  ``fields`` rows are
    ``(name, dtype, shape, offset)`` into the named segment.
    """

    key: str
    segment: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]
    nbytes: int


def _attach_segment(name: str) -> SharedMemory:
    """Open an existing segment without adopting its lifetime.

    CPython's resource tracker registers *attaching* processes too
    (bpo-39959 / gh-82300), so a worker exiting would unlink — or, with a
    fork-shared tracker, de-register — a segment the parent still owns.
    Python 3.13 grew ``track=False`` for exactly this; on older
    interpreters the registration call is suppressed for the duration of
    the attach (the worker is single-threaded here, so the swap is safe).
    """
    try:
        return SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - nothing else here
            original(rname, rtype)

    resource_tracker.register = _skip_shm
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _views(shm: SharedMemory, descriptor: ShmDescriptor) -> dict[str, np.ndarray]:
    """Zero-copy numpy views into ``shm`` per the descriptor's layout."""
    return {
        name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        for name, dtype, shape, offset in descriptor.fields
    }


# ---------------------------------------------------------------------------
# parent side: the arena
# ---------------------------------------------------------------------------
class _ArenaEntry:
    """One published segment: the handle, its descriptor, and the lease count."""

    __slots__ = ("shm", "descriptor", "refs")

    def __init__(self, shm: SharedMemory, descriptor: ShmDescriptor) -> None:
        self.shm = shm
        self.descriptor = descriptor
        self.refs = 0


class ShmArena:
    """Refcounted registry of shared-memory segments, keyed by canonical key.

    The owner (one per :class:`~repro.service.server.
    ConcurrentLabelingService`) publishes each canonical graph's buffers
    once; jobs lease the entry while in flight.  Eviction only ever takes
    refcount-zero entries (LRU order), ``close()`` unlinks everything, and
    an atexit sweep unlinks whatever a crashed caller left behind —
    ``/dev/shm`` ends every process empty of ``repro_shm_*`` names.
    """

    def __init__(self, capacity: int = DEFAULT_ARENA_CAPACITY) -> None:
        """An empty arena owning at most ``capacity`` idle segments."""
        if capacity < 1:
            raise ReproError(f"arena capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[str, _ArenaEntry] = {}  # insertion order = LRU
        self._lock = threading.Lock()
        self._closed = False
        self._seq = itertools.count()
        _LIVE_ARENAS.add(self)
        # the newest arena owns the liveness gauge (weakly — the gauge
        # never keeps a closed arena alive)
        _M_SEGMENTS_LIVE.set_function(lambda arena: len(arena), owner=self)

    def __len__(self) -> int:
        """Segments currently owned (published and not yet unlinked)."""
        return len(self._entries)

    # ------------------------------------------------------------------
    def lease(self, key: str) -> ShmDescriptor | None:
        """Bump the refcount and return the descriptor, or ``None`` if absent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries[key] = self._entries.pop(key)  # LRU touch
            entry.refs += 1
            return entry.descriptor

    def publish(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> ShmDescriptor:
        """Publish ``arrays`` under ``key`` (idempotent) and lease the entry.

        The first publish for a key copies each array into one fresh
        segment (offsets cache-line aligned) and counts the bytes in
        ``repro_shm_bytes_published_total``; subsequent publishes — or a
        racing worker thread's — find the entry and only take a lease.
        Always pair with :meth:`release`.
        """
        with self._lock:
            if self._closed:
                raise ReproError("arena is closed; no new segments")
            entry = self._entries.get(key)
            if entry is not None:
                self._entries[key] = self._entries.pop(key)
                entry.refs += 1
                return entry.descriptor
            fields = []
            offset = 0
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                offset = -(-offset // _ALIGN) * _ALIGN  # round up
                fields.append(
                    (name, arr.dtype.str, tuple(arr.shape), offset)
                )
                offset += arr.nbytes
            segment = f"{SEGMENT_PREFIX}{os.getpid()}_{next(self._seq)}"
            shm = SharedMemory(name=segment, create=True, size=max(offset, 1))
            descriptor = ShmDescriptor(
                key=key,
                segment=segment,
                fields=tuple(fields),
                nbytes=offset,
            )
            for view, (name, arr) in zip(
                _views(shm, descriptor).values(), arrays.items()
            ):
                view[...] = arr
            entry = _ArenaEntry(shm, descriptor)
            entry.refs = 1
            self._entries[key] = entry
            _M_SHM_BYTES.inc(offset)
            evicted = self._evictable()
        for stale in evicted:
            _unlink(stale.shm)
        return entry.descriptor

    def release(self, key: str) -> None:
        """Drop one lease.  Releasing an absent or idle key is a no-op."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.refs > 0:
                entry.refs -= 1

    def _evictable(self) -> list[_ArenaEntry]:
        """Pop LRU refcount-zero entries past capacity (lock held)."""
        evicted = []
        while len(self._entries) > self.capacity:
            idle = next(
                (k for k, e in self._entries.items() if e.refs == 0), None
            )
            if idle is None:
                break  # everything leased: over-capacity beats corruption
            evicted.append(self._entries.pop(idle))
        return evicted

    def close(self) -> None:
        """Unlink every segment.  Idempotent; double-close is a no-op."""
        with self._lock:
            if self._closed and not self._entries:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            _unlink(entry.shm)

    def __enter__(self) -> "ShmArena":
        """Context manager: the arena itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Unlink everything on scope exit."""
        self.close()


def _unlink(shm: SharedMemory) -> None:
    """Close and unlink one owned segment, tolerating repeats."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - parent keeps no live views
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


#: Every arena not yet garbage-collected; the atexit sweep closes them so
#: an abandoned (never-closed) arena still leaves /dev/shm clean.
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


@atexit.register
def _sweep_arenas() -> None:
    """Interpreter-exit backstop: unlink every still-open arena's segments."""
    for arena in list(_LIVE_ARENAS):
        arena.close()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _drop_adopted(entry: tuple[SharedMemory, object]) -> None:
    """Release one worker-side cache entry: views first, then the mapping.

    The numpy views hold the segment's exported buffer; the graph's
    memoized analysis is the only reference to them, so detaching it lets
    ``shm.close()`` succeed instead of raising :class:`BufferError`.
    """
    shm, graph = entry
    graph._analysis = None
    del graph
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a solver kept a view alive
        pass


def _adopted_graph(cache: dict, max_cached: int, descriptor: ShmDescriptor):
    """The worker's canonical graph for ``descriptor``, LRU-cached.

    Re-adopts when the key's segment changed (the parent evicted and
    republished); evicts least-recently-used entries past ``max_cached``.
    """
    from repro.graphs.analysis import adopt_buffers

    entry = cache.get(descriptor.key)
    if entry is not None and entry[0].name == descriptor.segment:
        cache[descriptor.key] = cache.pop(descriptor.key)  # LRU touch
        return entry[1]
    if entry is not None:
        _drop_adopted(cache.pop(descriptor.key))
    shm = _attach_segment(descriptor.segment)
    views = _views(shm, descriptor)
    n = views["distances"].shape[0]
    graph = adopt_buffers(
        n, views["indptr"], views["indices"], views["distances"]
    )
    cache[descriptor.key] = (shm, graph)
    while len(cache) > max_cached:
        _drop_adopted(cache.pop(next(iter(cache))))
    return graph


def _solve_adopted(
    cache: dict, max_cached: int, descriptor: ShmDescriptor, job: tuple
) -> tuple:
    """Solve one ``(key, p, engine)`` job on the adopted canonical graph."""
    from repro.labeling.spec import LpSpec
    from repro.reduction.solver import solve_labeling

    graph = _adopted_graph(cache, max_cached, descriptor)
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


def _probe_adopted(
    cache: dict, max_cached: int, descriptor: ShmDescriptor
) -> dict:
    """Diagnostic job: is the worker's matrix really a view into the segment?

    ``bench_e15_shm_pool.py``'s zero-copy gate asserts on this: the
    adopted distance matrix must not own its data, and its base must be
    the segment's exported ``memoryview`` — i.e. the worker reads the
    parent's bytes, it never rebuilt an ``O(n^2)`` matrix of its own.
    """
    import mmap

    from repro.graphs.analysis import get_analysis

    graph = _adopted_graph(cache, max_cached, descriptor)
    dist = get_analysis(graph).distances
    base = dist
    while isinstance(base, np.ndarray):
        base = base.base
    # numpy unwraps ``shm.buf`` to the segment's underlying mmap
    return {
        "pid": os.getpid(),
        "key": descriptor.key,
        "owns_data": bool(dist.flags["OWNDATA"]),
        "base_is_shm_buffer": isinstance(base, (mmap.mmap, memoryview)),
        "nbytes": int(dist.nbytes),
        "cached_graphs": len(cache),
    }


def _worker_main(conn, max_cached: int) -> None:
    """Worker-process loop: adopt, solve, reply — until the stop sentinel.

    Messages in: ``("job", descriptor, (key, p, engine), ctx_row)``,
    ``("probe", descriptor)``, or ``None`` (clean shutdown).  Messages out:
    ``("ready", pid)`` once, then ``("result", ok, payload, spans)`` per
    message.  Failures are shipped back as exception objects; the parent
    re-raises them in the caller.
    """
    TRACER.drain()  # a fork-inherited buffer must not replay parent spans
    cache: dict[str, tuple[SharedMemory, object]] = {}
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return
            if msg is None:
                return
            spans: tuple = ()
            try:
                if msg[0] == "probe":
                    payload = _probe_adopted(cache, max_cached, msg[1])
                else:
                    _, descriptor, job, ctx_row = msg
                    if ctx_row is None:
                        payload = _solve_adopted(
                            cache, max_cached, descriptor, job
                        )
                    else:
                        with TRACER.activate(SpanContext(**ctx_row)):
                            with TRACER.span(
                                "solve.offload", pid=os.getpid(), key=job[0]
                            ):
                                payload = _solve_adopted(
                                    cache, max_cached, descriptor, job
                                )
                        spans = tuple(s.to_json() for s in TRACER.drain())
                out = ("result", True, payload, spans)
            except BaseException as exc:
                out = ("result", False, _portable(exc), ())
            try:
                conn.send(out)
            except (BrokenPipeError, OSError):
                return
    finally:
        for entry in cache.values():
            _drop_adopted(entry)
        cache.clear()
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
# parent side: the pool
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


class ShmWorkerPool:
    """Persistent worker processes, each serving one blocking call at a time.

    A call takes the longest-idle worker (a FIFO of slot indices), sends it
    ``(descriptor, job)`` and reads the reply on the calling thread; with
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
            args=(child_conn, DEFAULT_GRAPH_CACHE),
            daemon=True,
            name="shm-pool-worker",
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
    def solve(self, descriptor: ShmDescriptor, job: tuple) -> tuple:
        """Solve one ``(key, p, engine)`` job on a worker; blocks for it.

        Returns the worker's ``(key, labels, span, engine, exact,
        seconds)`` tuple, or raises what the solve raised —
        :class:`WorkerCrashedError` when the worker died instead of
        answering.  The worker's ``solve.offload`` span parents under the
        caller's active trace context.
        """
        ctx = TRACER.current_context()
        ctx_row = (
            None if ctx is None
            else {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
        )
        return self._call(("job", descriptor, job, ctx_row))

    def probe(self, descriptor: ShmDescriptor) -> dict:
        """Run the zero-copy diagnostic for ``descriptor`` (see tests)."""
        return self._call(("probe", descriptor))

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

    def __enter__(self) -> "ShmWorkerPool":
        """Context manager: the running pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Stop the workers on scope exit."""
        self.shutdown()

"""The labeling service: bounded queue, worker pool, in-flight dedup.

:class:`ConcurrentLabelingService` is the one front end over
:func:`~repro.service.api.solve_canonical` and the sharded result cache —
sessions, the CLI, the HTTP tier, experiments and benchmarks all submit to
it.  A caller that wants call-and-wait semantics submits and waits on the
future (``service.submit(req).result()``); with ``workers=1`` the solve
runs inline on the one worker thread.  The pieces:

- **Bounded submission queue** — :meth:`ConcurrentLabelingService.submit`
  enqueues work and returns a :class:`~concurrent.futures.Future`
  immediately.  Past the high-water mark the submission *blocks* (default)
  or fails fast with :class:`~repro.errors.ServiceOverloadedError`
  (``block=False``), so a burst degrades into latency or explicit rejection
  instead of unbounded memory growth.
- **Worker pool** — ``workers`` threads drain the queue.  Cold solves are
  CPU-bound Python, so when the host has more than one effective core each
  worker thread hands its solve to a persistent :class:`WorkerPool`
  (one long-lived process per thread) as one blocking
  :meth:`~WorkerPool.solve` call, and the pool width is the real
  parallelism; on a single-core host they solve inline and the threads
  still provide queuing, coalescing and backpressure.  An offloaded
  request crosses the process boundary as its canonical graph's distance
  matrix and CSR adjacency plus a ``(key, p, engine)`` tuple, sent
  through the worker's pipe — the graph itself never pickles, and no
  pool is spun up per request.  A worker process that dies mid-solve
  fails that request with :class:`~repro.errors.WorkerCrashedError` and
  is respawned.
- **Dedup in flight** — concurrent requests with the same canonical key
  coalesce onto one internal solve; every caller still receives its *own*
  future whose result is translated through its own vertex order (two
  isomorphic requests share the solve, never the coordinates).
- **Sharded cache fast path** — submissions probe the
  :class:`~repro.service.shard.ShardedResultCache` before queueing, so a
  warm request costs one shard lock and never touches the queue.
- **Graceful drain/shutdown** — :meth:`shutdown` stops intake, then either
  drains the queue (``wait=True``) or cancels everything still queued
  (``wait=False``); in-progress solves always run to completion so no
  future is left forever pending.

>>> from repro.graphs.generators import cycle_graph
>>> from repro.labeling.spec import L21
>>> from repro.service.protocol import SolveRequest
>>> with ConcurrentLabelingService(workers=2) as server:
...     req = SolveRequest(cycle_graph(5), L21, engine="held_karp")
...     span = server.submit(req).result().span
>>> span
4
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    DeadlineExpiredError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.graphs.analysis import export_buffers, get_analysis
from repro.obs.metrics import REGISTRY, CounterSet
from repro.obs.trace import TRACER, SpanContext
from repro.parallel.pool import WorkerPool, effective_cpu_count
from repro.service.api import _answer, _composed_key, solve_canonical
from repro.service.cache import CachedSolve
from repro.service.canonical import (
    CanonicalForm,
    canonical_form,
    canonical_instance,
)
from repro.service.protocol import SolveRequest
from repro.service.shard import ShardedResultCache

#: Default submission-queue high-water mark.
DEFAULT_QUEUE_SIZE = 64

#: Sentinel that tells a worker thread to exit.
_STOP = object()

#: Registry children behind every :class:`ServerStats` count, materialized
#: at import so the exposition shows zeroed series before any traffic.
_SERVER_COUNTERS = {
    "submitted": REGISTRY.counter("repro_server_submitted_total").labels(),
    "completed": REGISTRY.counter("repro_server_completed_total").labels(),
    "hits": REGISTRY.counter("repro_server_hits_total").labels(),
    "coalesced": REGISTRY.counter("repro_server_coalesced_total").labels(),
    "solved": REGISTRY.counter("repro_server_solved_total").labels(),
    "rejected": REGISTRY.counter("repro_server_rejected_total").labels(),
    "cancelled": REGISTRY.counter("repro_server_cancelled_total").labels(),
    "errors": REGISTRY.counter("repro_server_errors_total").labels(),
}
_HIGH_WATER_GAUGE = REGISTRY.gauge("repro_queue_high_water")
_HIGH_WATER_GAUGE.labels()

#: Registry children behind every :class:`QosRouter` count, and the per-tier
#: latency histograms; both tiers' series exist from import on.
_ROUTER_REQUESTS = REGISTRY.counter("repro_router_requests_total")
_ROUTER_COUNTERS = {
    "exact": _ROUTER_REQUESTS.labels(tier="exact"),
    "approx": _ROUTER_REQUESTS.labels(tier="approx"),
    "degraded": REGISTRY.counter("repro_router_degraded_total").labels(),
    "expired": REGISTRY.counter("repro_router_expired_total").labels(),
}
_TIER_SECONDS = {
    tier: REGISTRY.histogram("repro_tier_request_seconds").labels(tier=tier)
    for tier in ("exact", "approx")
}


#: Fraction of the queue's high-water mark past which ``auto`` requests
#: degrade to the approx tier.
APPROX_PRESSURE = 0.5

#: ``auto`` instances above this vertex count always go approx — an exact
#: engine run on them would monopolize a worker.
LARGE_N = 256

#: ``auto`` requests with less remaining budget than this go approx.
MIN_EXACT_DEADLINE_MS = 250


@dataclass
class QosRouter:
    """Per-request quality-of-service tier selection under pressure.

    The router turns two-valued backpressure (block / 429) into a graceful
    ladder: ``exact`` while the queue is shallow, ``approx`` as pressure
    rises (or the instance is too large, or the deadline too tight, for an
    exact solve to make sense), and the queue's existing high-water
    rejection stays the 429 of last resort.  Explicit ``tier="exact"`` /
    ``tier="approx"`` requests are always honoured — only ``auto`` is
    routed.

    Deadline-expired work is dropped *before* a solve starts
    (:meth:`note_expired`); the drop is counted, never recorded as a server
    error.  ``counters`` holds ``exact``, ``approx``, ``degraded`` (the
    ``auto`` requests downgraded to approx) and ``expired``.
    """

    #: The serving queue's high-water mark (the 429 threshold).
    queue_size: int
    counters: CounterSet = field(
        init=False,
        repr=False,
        default_factory=lambda: CounterSet(_ROUTER_COUNTERS),
    )

    @property
    def approx_depth(self) -> int:
        """Queue depth at which ``auto`` requests start degrading."""
        return max(1, int(APPROX_PRESSURE * self.queue_size))

    def route(self, request: SolveRequest, queue_depth: int) -> str:
        """Pick the answering tier for one request (and count the decision)."""
        if request.tier in ("exact", "approx"):
            tier, downgraded = request.tier, False
        else:
            downgraded = (
                queue_depth >= self.approx_depth
                or request.graph.n > LARGE_N
                or (
                    request.deadline_ms is not None
                    and request.deadline_ms < MIN_EXACT_DEADLINE_MS
                )
            )
            tier = "approx" if downgraded else "exact"
        self.counters.add(**{tier: 1}, degraded=int(downgraded))
        return tier

    def note_expired(self) -> None:
        """Count one deadline-expired drop."""
        self.counters.add(expired=1)

    def to_json(self) -> dict:
        """Routing counters + thresholds, the shape ``/stats`` exposes."""
        return {
            **self.counters.snapshot(),
            "approx_depth": self.approx_depth,
            "large_n": LARGE_N,
            "min_exact_deadline_ms": MIN_EXACT_DEADLINE_MS,
        }


class ServerStats(CounterSet):
    """Lifetime counters for one :class:`ConcurrentLabelingService`.

    ``hits`` counts submissions answered from the warm cache (either at the
    submit-side fast path or by a worker), ``coalesced`` counts submissions
    that attached to an identical in-flight solve, ``solved`` counts actual
    engine runs, ``errors`` failed solves, ``cancelled`` public futures
    that ended cancelled (by :meth:`ConcurrentLabelingService.shutdown`
    or by their caller).  Once the service has drained, every accepted
    request resolved exactly once — ``completed == submitted - rejected -
    cancelled`` — and, absent errors and cancellations, ``hits +
    coalesced + solved == completed``.

    ``stats.hits`` reads one count.  :meth:`observe_depth` and
    :meth:`snapshot` take the set's one lock, so derived values
    (``hit_rate``, :meth:`to_json`) come from one consistent view — never
    from a torn read interleaved with a concurrent update.
    """

    def __init__(self) -> None:
        """Zeroed counters and high-water mark."""
        super().__init__(_SERVER_COUNTERS)
        #: Highest queue depth observed at submission time.
        self.high_water = 0

    def __getattr__(self, name: str) -> int:
        """``stats.solved`` is ``stats["solved"]``."""
        if name in _SERVER_COUNTERS:
            return self[name]
        raise AttributeError(name)

    def observe_depth(self, depth: int) -> None:
        """Fold one observed queue depth into the high-water mark."""
        with self._lock:
            if depth > self.high_water:
                self.high_water = depth
                _HIGH_WATER_GAUGE.set(depth)

    def snapshot(self) -> dict:
        """Every count plus ``high_water``, read under the one lock.

        The returned dict includes the derived ``hit_rate``, computed from
        the same consistent view of the counts.
        """
        with self._lock:
            snap = dict(self._counts)
            snap["high_water"] = self.high_water
        accepted = snap["submitted"] - snap["rejected"]
        snap["hit_rate"] = (
            (snap["hits"] + snap["coalesced"]) / accepted if accepted else 0.0
        )
        return snap

    @property
    def hit_rate(self) -> float:
        """Fraction of accepted submissions answered **without** a solve.

        Counts both cache hits and in-flight coalescing — from the
        client's viewpoint the two are the same thing (no engine ran for
        this request) — so the rate is a deterministic function of the
        request stream, not of scheduling luck.  Computed from one atomic
        :meth:`snapshot`.
        """
        return self.snapshot()["hit_rate"]

    def to_json(self) -> dict:
        """JSON counters, the shape the perf trajectory records.

        Serialized from one atomic :meth:`snapshot`, so the emitted
        numbers are mutually consistent even under concurrent updates.
        """
        snap = self.snapshot()
        snap["hit_rate"] = round(snap["hit_rate"], 4)
        return snap


@dataclass
class _Job:
    """One queued unit of work: solve ``request`` and publish under ``key``."""

    key: str
    request: SolveRequest
    form: CanonicalForm
    #: Internal future resolving to ``(CachedSolve, cached, seconds)``;
    #: every public future for this key chains off it.
    internal: Future = field(default_factory=Future)
    #: Trace context captured on the submitting thread; the worker (and
    #: any offload process) parents its spans under it.
    ctx: SpanContext | None = None
    #: ``perf_counter`` timestamp taken just before ``queue.put`` — the
    #: queue-wait histogram measures from here to worker pickup.
    enqueued: float = 0.0
    #: Tier the router picked for this job (``"exact"`` or ``"approx"``).
    tier: str = "exact"
    #: Absolute ``perf_counter`` deadline; the worker drops the job unsolved
    #: once it passes (``None`` = no deadline).
    deadline: float | None = None


class ConcurrentLabelingService:
    """Thread-pool serving front-end over one sharded result cache.

    Parameters
    ----------
    workers:
        Worker-thread count.  Also the persistent worker-pool width when
        cold solves are offloaded (see ``offload``).
    queue_size:
        Submission-queue high-water mark (backpressure threshold).
    block:
        Default backpressure behaviour for :meth:`submit`: ``True`` blocks
        until queue space frees, ``False`` raises
        :class:`ServiceOverloadedError`.  Overridable per call.
    offload:
        ``True`` ships cold solves to a persistent
        :class:`~repro.parallel.pool.WorkerPool` (real parallelism for
        CPU-bound engines), ``False`` solves inline on the worker
        thread.  ``None`` (default)
        auto-detects: offload only when ``workers > 1`` *and* the process
        may run on more than one CPU (:func:`effective_cpu_count`, which
        respects container/affinity masks) — on a single core the pool
        would add process-hop overhead and parallelize nothing.
    cache_capacity / cache_path:
        Result-cache size, and an optional JSON file that warm-starts the
        cache when it exists (persist with ``server.cache.save()``).
    """

    def __init__(
        self,
        workers: int = 4,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        block: bool = True,
        offload: bool | None = None,
        cache_capacity: int = 4096,
        cache_path: str | Path | None = None,
    ) -> None:
        """Build the queue and the cache, and start the workers."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ReproError(f"queue_size must be >= 1, got {queue_size}")
        self.cache = ShardedResultCache(capacity=cache_capacity, path=cache_path)
        #: Tier selection policy; its thresholds are the module constants.
        self.router = QosRouter(queue_size)
        self.workers = workers
        self.block = block
        self.stats = ServerStats()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._inflight: dict[str, Future] = {}
        self._lock = threading.Lock()
        #: Signalled whenever an owner submission finishes its queue.put;
        #: shutdown waits on it so a put racing the close cannot land a job
        #: after the final cancellation sweep (see :meth:`shutdown`).
        self._settled = threading.Condition(self._lock)
        self._submitting = 0
        self._closed = False
        if offload is None:
            offload = workers > 1 and effective_cpu_count() > 1
        # The pool forks/spawns *before* the worker threads start, so the
        # child processes never inherit a half-started thread's state.
        self._pool = WorkerPool(workers) if offload else None
        # Registry surface: latency histograms are shared process-wide;
        # the queue-depth gauge samples this instance weakly (most recent
        # server owns it); per-worker busy/idle gauges measure the GIL
        # ceiling directly (utilization = busy / (busy + idle)).
        self._m_request = REGISTRY.histogram("repro_request_seconds")
        self._m_queue_wait = REGISTRY.histogram("repro_request_queue_seconds")
        self._m_solve = REGISTRY.histogram("repro_solve_seconds")
        for family in (self._m_request, self._m_queue_wait, self._m_solve):
            family.labels()  # materialize: expose zeroed buckets immediately
        REGISTRY.gauge("repro_queue_depth").set_function(
            lambda server: server.queue_depth(), owner=self
        )
        self._worker_times = [[0.0, 0.0] for _ in range(workers)]  # busy, idle
        self._m_worker_busy = [
            REGISTRY.gauge("repro_worker_busy_seconds").labels(worker=str(i))
            for i in range(workers)
        ]
        self._m_worker_idle = [
            REGISTRY.gauge("repro_worker_idle_seconds").labels(worker=str(i))
            for i in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(i,),
                name=f"labeling-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently queued (approximate, unlocked read)."""
        return self._queue.qsize()

    def worker_utilization(self) -> list[dict]:
        """Per-worker busy/idle accounting, in worker order.

        ``utilization = busy / (busy + idle)`` is the direct measurement
        of thread-scaling headroom: workers near 1.0 that still deliver no
        throughput gain are serialized on the GIL, not starved of work.
        Reading is unlocked (each slot is written only by its own worker).
        """
        out = []
        for busy, idle in self._worker_times:
            total = busy + idle
            out.append(
                {
                    "busy_seconds": round(busy, 6),
                    "idle_seconds": round(idle, 6),
                    "utilization": round(busy / total, 4) if total else 0.0,
                }
            )
        return out

    # ------------------------------------------------------------------
    def submit(
        self,
        request: SolveRequest,
        block: bool | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue one request; returns a future of its ``SolveResponse``.

        The canonical key is derived on the calling thread (the request's
        ``analysis`` forwards a pre-computed oracle, e.g. a session's
        delta-repaired one, so the key costs no APSP run); everything
        after that happens on the worker pool.  Identical in-flight
        requests coalesce onto one solve, but each caller's future
        resolves in its *own* vertex order.

        Backpressure: with ``block`` (default: the constructor setting) a
        full queue blocks up to ``timeout`` seconds, then rejects;
        ``block=False`` rejects immediately with
        :class:`ServiceOverloadedError`.
        """
        t_submit = time.perf_counter()
        # fail fast: a closed service neither routes nor canonicalizes;
        # the locked re-checks below settle a close racing this submit
        self._refuse_if_closed()
        tier = self.router.route(request, self._queue.qsize())
        deadline = (
            t_submit + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        form = canonical_form(
            request.graph, request.spec, analysis=request.analysis
        )
        key = _composed_key(form, request, tier=tier)
        block = self.block if block is None else block

        # Fast path: a warm cache answers without touching the queue.  The
        # probe happens outside the service lock on purpose — it costs one
        # shard lock, which is the scalable part of the design.
        entry = self.cache.get(key)
        if entry is not None:
            with self._lock:
                self._refuse_if_closed()
                self.stats.add(submitted=1, hits=1, completed=1)
            done: Future = Future()
            done.set_result(_answer(request, form, key, entry, cached=True))
            self._m_request.observe(time.perf_counter() - t_submit)
            return done

        with self._lock:
            self._refuse_if_closed()
            self.stats.add(submitted=1)
            self.stats.observe_depth(self._queue.qsize())
            internal = self._inflight.get(key)
            owner = internal is None
            if owner:
                job = _Job(
                    key=key,
                    request=request,
                    form=form,
                    ctx=TRACER.current_context(),
                    tier=tier,
                    deadline=deadline,
                )
                internal = job.internal
                self._inflight[key] = internal
                self._submitting += 1
            else:
                self.stats.add(coalesced=1)

        if owner:
            try:
                job.enqueued = time.perf_counter()
                self._queue.put(job, block=block, timeout=timeout)
            except queue.Full:
                overloaded = ServiceOverloadedError(
                    f"submission queue at high-water mark "
                    f"({self._queue.maxsize}); request rejected"
                )
                with self._lock:
                    self._inflight.pop(key, None)
                    self.stats.add(rejected=1)
                # followers that coalesced in the meantime must observe the
                # rejection, not an indistinguishable cancellation; the
                # owner itself gets the synchronous raise (and no future)
                internal.set_exception(overloaded)
                raise overloaded from None
            finally:
                with self._settled:
                    self._submitting -= 1
                    self._settled.notify_all()
        public: Future = Future()
        internal.add_done_callback(
            lambda f: self._deliver(
                f, public, request, form, key,
                follower=not owner, t_submit=t_submit,
            )
        )
        return public

    def _refuse_if_closed(self) -> None:
        """Raise :class:`ServiceClosedError` once :meth:`shutdown` began."""
        if self._closed:
            raise ServiceClosedError("service is shut down; no new submissions")

    # ------------------------------------------------------------------
    def _deliver(
        self,
        internal: Future,
        public: Future,
        request: SolveRequest,
        form: CanonicalForm,
        key: str,
        follower: bool = False,
        t_submit: float | None = None,
    ) -> None:
        """Translate the internal outcome into one caller's public future.

        A ``follower`` (a request that coalesced onto another's in-flight
        solve) reports ``cached=True`` with zero seconds, like a cache
        hit: no engine ran *for this request*.  Every
        resolution (including errors) lands one end-to-end sample in the
        ``repro_request_seconds`` histogram and counts the public future
        once: ``cancelled`` if it ended cancelled (by shutdown or by its
        caller), else ``completed``.
        """
        if t_submit is not None:
            self._m_request.observe(time.perf_counter() - t_submit)
        try:
            entry, cached, seconds = internal.result()
            if follower:
                cached, seconds = True, 0.0
        except CancelledError:
            public.cancel()
        except BaseException as exc:
            if public.set_running_or_notify_cancel():
                public.set_exception(exc)
        else:
            if public.set_running_or_notify_cancel():
                public.set_result(_answer(
                    request, form, key, entry, cached=cached, seconds=seconds
                ))
        if public.cancelled():
            self.stats.add(cancelled=1)
        else:
            self.stats.add(completed=1)

    def _worker(self, index: int) -> None:
        """Worker loop: drain jobs until the stop sentinel arrives.

        Accounts its own busy/idle split into ``self._worker_times[index]``
        (idle = blocked on the queue, busy = processing a job) and mirrors
        the totals into the per-worker registry gauges — the direct
        measurement behind the ``workers_speedup_4`` scaling question.
        """
        times = self._worker_times[index]
        busy_gauge = self._m_worker_busy[index]
        idle_gauge = self._m_worker_idle[index]
        while True:
            t0 = time.perf_counter()
            item = self._queue.get()
            t1 = time.perf_counter()
            times[1] += t1 - t0
            idle_gauge.set(times[1])
            try:
                if item is _STOP:
                    return
                with TRACER.activate(item.ctx):
                    if item.ctx is not None:
                        with TRACER.span("server.process", key=item.key):
                            self._process(item)
                    else:
                        self._process(item)
            finally:
                times[0] += time.perf_counter() - t1
                busy_gauge.set(times[0])
                self._queue.task_done()

    def _process(self, job: _Job) -> None:
        """Answer one queued job: re-probe the cache, else solve and publish.

        Deadline-expired jobs are dropped *before* any solve: the answer
        could no longer be used, so spending a worker on it would only
        deepen the overload.  The drop is counted by the router (and in
        ``repro_router_expired_total``), not in the error stats — shedding
        is the design working, not a fault.
        """
        if job.enqueued:
            self._m_queue_wait.observe(time.perf_counter() - job.enqueued)
        if job.deadline is not None and time.perf_counter() > job.deadline:
            with self._lock:
                self._inflight.pop(job.key, None)
            self.router.note_expired()
            job.internal.set_exception(
                DeadlineExpiredError(
                    f"deadline of {job.request.deadline_ms} ms expired "
                    f"before solving started; request dropped"
                )
            )
            return
        # Re-probe: the entry may have been cached between this job's
        # submission and now (an identical earlier job finished).  Without
        # this check the submit-probe/finish race could double-solve.
        entry = self.cache.peek(job.key)
        if entry is not None:
            self._finish(job, entry, cached=True, seconds=0.0)
            return
        try:
            if job.tier == "approx" or self._pool is None:
                # the one-pass degraded solver never offloads — a process
                # hop would cost more than the solve itself
                entry, seconds = self._solve_inline(
                    job.form, job.request, job.tier
                )
            else:
                entry, seconds = self._solve_offloaded(job)
        except BaseException as exc:  # engine failures must reach the waiters
            with self._lock:
                self._inflight.pop(job.key, None)
            self.stats.add(errors=1)
            job.internal.set_exception(exc)
            return
        self._m_solve.observe(seconds)
        _TIER_SECONDS[job.tier].observe(seconds)
        self.cache.put(job.key, entry)
        self._finish(job, entry, cached=False, seconds=seconds)

    def _solve_inline(
        self, form: CanonicalForm, request: SolveRequest, tier: str
    ) -> tuple[CachedSolve, float]:
        """Solve on the calling worker thread (see :func:`solve_canonical`)."""
        return solve_canonical(form, request, tier)

    def _solve_offloaded(self, job: _Job) -> tuple[CachedSolve, float]:
        """Solve on the worker pool; the graph never pickles.

        :func:`canonical_instance` permutes the APSP already computed at
        submit time into canonical order, and its exported arrays travel
        to the worker with the job.
        """
        canonical = canonical_instance(job.form, job.request.graph)
        _key, labels, span, engine, exact, seconds = self._pool.solve(
            export_buffers(get_analysis(canonical)),
            (job.key, job.request.spec.p, job.request.engine),
        )
        entry = CachedSolve(labels=labels, span=span, engine=engine, exact=exact)
        return entry, seconds

    def _finish(
        self, job: _Job, entry: CachedSolve, cached: bool, seconds: float
    ) -> None:
        """Publish a solved/cached entry and retire the in-flight record."""
        with self._lock:
            self._inflight.pop(job.key, None)
        if cached:
            self.stats.add(hits=1)
        else:
            self.stats.add(solved=1)
        job.internal.set_result((entry, cached, seconds))

    # ------------------------------------------------------------------
    def prewarm(self, timeout: float | None = 30.0) -> None:
        """Block until every pool worker has finished starting up.

        A no-op for inline services.  Benchmarks call this before the
        timed region so the first measured request pays solve cost, not
        process start-up; production callers may skip it — a call waits
        for its worker's start-up handshake.
        """
        if self._pool is not None:
            self._pool.wait_ready(timeout=timeout)

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until every queued submission has been answered.

        Intake stays open — this is a checkpoint, not a shutdown.
        """
        self._queue.join()

    def _cancel_queued(self) -> None:
        """Drain the queue, cancelling every job still in it."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            try:
                if item is _STOP:
                    continue
                with self._lock:
                    self._inflight.pop(item.key, None)
                item.internal.cancel()  # _deliver counts each public future
            finally:
                self._queue.task_done()

    def shutdown(self, wait: bool = True) -> None:
        """Stop intake and retire the workers.

        ``wait=True`` drains the queue first (every accepted future
        resolves); ``wait=False`` cancels everything still queued — their
        futures (and any coalesced onto them) end :class:`CancelledError`
        — while the solve currently running on each worker completes.
        Idempotent.
        """
        with self._lock:
            if self._closed and not self._threads:
                return
            self._closed = True
        if not wait:
            self._cancel_queued()
        for _ in self._threads:
            self._queue.put(_STOP)
        for t in self._threads:
            t.join()
        self._threads = []
        # A submission that passed the closed check just before it flipped
        # may still be inside queue.put; alternate cancelling what landed
        # (which also frees queue space a blocked put may be waiting for)
        # with waiting for the stragglers to settle — without this, a
        # racing submit's future could hang forever.
        while True:
            self._cancel_queued()
            with self._settled:
                if not self._submitting:
                    break
                self._settled.wait(timeout=0.05)
        self._cancel_queued()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ConcurrentLabelingService":
        """Context manager: the running service itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Graceful shutdown (drain, then stop the workers)."""
        self.shutdown(wait=True)

"""Persistent worker pool and the pooled server: lifecycle and robustness.

The invariants under test:

- **equivalence**: a pool call of :func:`solve_buffers` returns exactly
  the inline labeling — the edge list and distance matrix travel through
  the worker's pipe, the graph never does;
- **no shared memory**: a pooled server leaves ``/dev/shm`` untouched
  while it runs;
- **no hangs**: a worker SIGKILLed mid-solve makes its call raise
  :class:`WorkerCrashedError` promptly and the pool keeps serving; a
  solve that raises in the worker re-raises in the caller and leaves the
  worker up.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ReproError, WorkerCrashedError
from repro.graphs import generators as gen
from repro.graphs.analysis import get_analysis
from repro.labeling.spec import LpSpec
from repro.parallel.pool import WorkerPool
from repro.reduction.solver import solve_labeling
from repro.service.api import solve_buffers
from repro.service.protocol import SolveRequest

SPEC = (2, 1)
ENGINE = "lk"
#: Engine for the slow instances the crash tests kill workers under.
SLOW_ENGINE = "lk_long"
#: Every pool call must return or raise within this many seconds.
CALL_BOUND_S = 30

#: Start methods exercised by the pool tests.  fork is the Linux default
#: and the serving path's production mode; spawn is what macOS/Windows
#: would use and proves no state sneaks across by inheritance.
START_METHODS = [
    m
    for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


def small_graph(seed: int = 7):
    """A diameter-2 instance small enough for sub-100ms solves."""
    return gen.random_graph_with_diameter_at_most(10, 2, seed=seed)


def buffers_of(graph):
    """The ``(edges, distances)`` pair a pool call ships for ``graph``."""
    return tuple(graph.edges()), get_analysis(graph).distances


def pooled_service(monkeypatch):
    """A 2-worker service that runs its exact solves on the pool.

    The service picks pool or inline from the effective CPU count alone,
    so the test makes it see two CPUs.
    """
    from repro.service.server import ConcurrentLabelingService

    monkeypatch.setattr("repro.service.server.effective_cpu_count", lambda: 2)
    return ConcurrentLabelingService(workers=2)


def slow_graph(n: int = 60):
    """A diameter-2 instance whose ``SLOW_ENGINE`` solve takes seconds."""
    return gen.random_graph_with_diameter_at_most(n, 2, seed=3)


class Call:
    """One blocking pool call run on its own caller thread."""

    def __init__(self, fn) -> None:
        self._fn = fn
        self._result = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._fn()
            self._result = "ok"
        except WorkerCrashedError:
            self._result = "crashed"
        except BaseException as exc:  # surfaced by outcome()
            self._result = exc

    def outcome(self, timeout: float = CALL_BOUND_S):
        """``"ok"`` or ``"crashed"``; fails the test past ``timeout``."""
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "pool call hung"
        if isinstance(self._result, BaseException):
            raise self._result
        return self._result


def shm_entries() -> set[str]:
    """Names now in ``/dev/shm`` (empty where the host has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux host
        return set()


def wait_dispatched(pool: WorkerPool, count: int) -> None:
    """Block until the pool has dispatched ``count`` calls in total."""
    deadline = time.monotonic() + CALL_BOUND_S
    while sum(pool.dispatch_counts()) < count:
        assert time.monotonic() < deadline, "calls never dispatched"
        time.sleep(0.01)


def wait_dead(pid: int) -> None:
    """Block until ``pid`` has exited (zombie or reaped)."""
    deadline = time.monotonic() + CALL_BOUND_S
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        assert time.monotonic() < deadline, f"process {pid} never died"
        time.sleep(0.01)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestWorkerPool:
    def test_pool_solve_matches_inline(self, start_method):
        graph = small_graph()
        inline = solve_labeling(graph, LpSpec(SPEC), engine=ENGINE)
        with WorkerPool(2, start_method=start_method) as pool:
            pool.wait_ready()
            entry, seconds = pool.call(
                solve_buffers, *buffers_of(small_graph()), SPEC, ENGINE
            )
        assert entry.span == inline.span
        assert entry.labels == inline.labeling.labels
        assert entry.engine == inline.engine and entry.exact == inline.exact
        assert entry.gap is None
        assert seconds >= 0

    def test_fresh_keys_spread_across_workers(self, start_method):
        with WorkerPool(2, start_method=start_method) as pool:
            pool.wait_ready()
            for i in range(4):
                buffers = buffers_of(small_graph(seed=i))
                pool.call(solve_buffers, *buffers, SPEC, ENGINE)
            # sequential calls rotate the workers
            assert pool.dispatch_counts() == [2, 2]
            assert pool.route_imbalance() == pytest.approx(1.0)

    def test_submit_after_shutdown_raises(self, start_method):
        pool = WorkerPool(1, start_method=start_method)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(ReproError, match="shut down"):
            pool.call(solve_buffers, *buffers_of(small_graph()), SPEC, ENGINE)

    def test_pool_starts_no_thread(self, start_method):
        before = set(threading.enumerate())
        with WorkerPool(2, start_method=start_method) as pool:
            pool.wait_ready()
            pool.call(solve_buffers, *buffers_of(small_graph()), SPEC, ENGINE)
            assert set(threading.enumerate()) - before == set()

    def test_worker_error_reraises_and_worker_survives(self, start_method):
        buffers = buffers_of(small_graph())
        with WorkerPool(1, start_method=start_method) as pool:
            pool.wait_ready()
            pid = pool.worker_pids()[0]
            with pytest.raises(ReproError, match="unknown engine"):
                pool.call(solve_buffers, *buffers, SPEC, "no_such_engine")
            # the failure was the solve's, not the worker's
            assert pool.worker_pids() == [pid]
            assert pool.restart_count == 0
            entry, _ = pool.call(solve_buffers, *buffers, SPEC, ENGINE)
            assert entry.span >= 0


class TestWorkerDeath:
    """Crash robustness (fork only: kill timing needs fast start-up)."""

    def test_killed_worker_fails_futures_and_respawns(self):
        from repro.obs.metrics import REGISTRY

        restarts_before = REGISTRY.value("repro_pool_worker_restarts_total")
        slow = buffers_of(slow_graph())
        small = buffers_of(small_graph())
        with WorkerPool(2, start_method="fork") as pool:
            pool.wait_ready()
            calls = [
                Call(lambda: pool.call(solve_buffers, *slow, SPEC, SLOW_ENGINE))
                for _ in range(2)
            ]
            wait_dispatched(pool, 2)
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            # both calls were mid-solve on a killed worker
            assert [c.outcome() for c in calls] == ["crashed", "crashed"]
            assert pool.restart_count == 2
            # the respawned workers serve again, no retry needed
            for _ in range(2):
                entry, _ = pool.call(solve_buffers, *small, SPEC, ENGINE)
                assert entry.span >= 0
        delta = (
            REGISTRY.value("repro_pool_worker_restarts_total")
            - restarts_before
        )
        assert delta == pool.restart_count == 2

    def test_crash_hammer_never_hangs_or_leaks(self):
        """Kill workers under concurrent calls; every call must resolve."""
        buffers = buffers_of(slow_graph(n=30))
        with WorkerPool(2, start_method="fork") as pool:
            pool.wait_ready()
            for round_no in range(3):
                dispatched = sum(pool.dispatch_counts())
                calls = [
                    Call(lambda: pool.call(
                        solve_buffers, *buffers, SPEC, SLOW_ENGINE
                    ))
                    for _ in range(4)
                ]
                wait_dispatched(pool, dispatched + 2)
                os.kill(
                    pool.worker_pids()[round_no % 2], signal.SIGKILL
                )
                outcomes = [c.outcome() for c in calls]
                assert "crashed" in outcomes
                assert set(outcomes) <= {"ok", "crashed"}
            assert pool.restart_count == 3

    def test_idle_killed_worker_is_replaced_transparently(self):
        buffers = buffers_of(small_graph())
        with WorkerPool(1, start_method="fork") as pool:
            pool.wait_ready()
            pool.call(solve_buffers, *buffers, SPEC, ENGINE)
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            wait_dead(pid)
            entry, _ = pool.call(solve_buffers, *buffers, SPEC, ENGINE)
            assert entry.span >= 0
            assert pool.restart_count == 1
            assert pool.worker_pids()[0] != pid

    def test_shutdown_with_call_in_flight_returns_within_bound(self):
        slow = buffers_of(slow_graph())
        pool = WorkerPool(1, start_method="fork")
        pool.wait_ready()
        call = Call(lambda: pool.call(solve_buffers, *slow, SPEC, SLOW_ENGINE))
        wait_dispatched(pool, 1)
        t0 = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - t0 < 15
        assert call.outcome() in ("ok", "crashed")
        # shutdown reaped the worker: its pid is gone
        assert not os.path.exists(f"/proc/{pool.worker_pids()[0]}")


def test_unpicklable_worker_error_arrives_as_repro_error(monkeypatch):
    """A solve error that cannot cross the pipe becomes a ReproError."""
    import repro.service.api

    class Unpicklable(Exception):  # local class: pickling it fails
        pass

    def explode(*args, **kwargs):
        raise Unpicklable("solver blew up")

    # fork: the workers inherit the patched solver
    monkeypatch.setattr(repro.service.api, "solve_labeling", explode)
    with WorkerPool(1, start_method="fork") as pool:
        pool.wait_ready()
        with pytest.raises(ReproError, match="worker solve failed.*blew up") as err:
            pool.call(solve_buffers, *buffers_of(small_graph()), SPEC, ENGINE)
        assert type(err.value) is ReproError
        assert pool.restart_count == 0


class TestServerIntegration:
    """The serving front end on the pool: correctness + lifecycle."""

    def test_offloaded_server_leaves_no_segments(self, monkeypatch):
        graph = small_graph()
        inline = solve_labeling(graph, LpSpec(SPEC), engine=ENGINE)
        before = shm_entries()
        with pooled_service(monkeypatch) as server:
            server.prewarm()
            result = server.submit(
                SolveRequest(graph, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            assert result.span == inline.span
            assert server.stats.snapshot()["solved"] == 1
            # checked while the service runs: the solve's arrays went
            # through the worker's pipe, no segment holds them
            assert shm_entries() - before == set()

    def test_offloaded_server_publishes_once_per_canonical_key(
        self, monkeypatch
    ):
        from repro.graphs.operations import relabel

        graph = small_graph()
        with pooled_service(monkeypatch) as server:
            server.prewarm()
            base = server.submit(
                SolveRequest(graph, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            # isomorphic repeat: canonical key identical -> cache hit,
            # nothing reaches the pool
            permuted = relabel(graph, list(reversed(range(graph.n))))
            again = server.submit(
                SolveRequest(permuted, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            assert again.span == base.span
        stats = server.stats.snapshot()
        assert stats["solved"] == 1 and stats["hits"] == 1

    def test_worker_crash_fails_request_and_resubmit_solves(self, monkeypatch):
        from repro.errors import error_payload
        from repro.obs.metrics import REGISTRY

        def dispatched() -> float:
            return sum(
                REGISTRY.value("repro_pool_dispatch_total", worker=str(i))
                for i in range(2)
            )

        graph = slow_graph()
        request = SolveRequest(graph, LpSpec(SPEC), engine=SLOW_ENGINE)
        before_shm = shm_entries()
        with pooled_service(monkeypatch) as server:
            server.prewarm()
            before = dispatched()
            future = server.submit(request)
            deadline = time.monotonic() + CALL_BOUND_S
            while dispatched() == before:
                assert time.monotonic() < deadline, "solve never dispatched"
                time.sleep(0.01)
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashedError) as crashed:
                future.result(timeout=CALL_BOUND_S)
            payload = error_payload(crashed.value)
            assert (payload["status"], payload["code"]) == (
                503, "worker_crashed"
            )
            stats = server.stats.snapshot()
            assert (stats["errors"], stats["solved"]) == (1, 0)
            # the failed key left no in-flight entry: a resubmit solves anew
            again = server.submit(request).result(timeout=60)
            again.labeling.require_feasible(graph, LpSpec(SPEC))
            assert not again.cached
            stats = server.stats.snapshot()
            assert (stats["solved"], stats["coalesced"]) == (1, 0)
        assert shm_entries() - before_shm == set()

"""Shared-memory arena + persistent worker pool: lifecycle and robustness.

The invariants under test are the tentpole's acceptance criteria:

- **zero-copy**: workers solve on numpy views into the parent's segment,
  never on a rebuilt matrix (probed in-process, asserted via numpy flags);
- **zero leaks**: every ``repro_shm_*`` name is gone from ``/dev/shm``
  after shutdown, eviction, crash, or interpreter exit — the session
  fixture in ``conftest.py`` backstops every test here;
- **no hangs**: a worker SIGKILLed mid-solve fails its futures with
  :class:`WorkerCrashedError` promptly and the pool keeps serving.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ReproError, WorkerCrashedError
from repro.graphs import generators as gen
from repro.graphs.analysis import export_buffers, get_analysis
from repro.labeling.spec import LpSpec
from repro.parallel.shm_pool import (
    ShmArena,
    ShmWorkerPool,
    _attach_segment,
    _views,
)
from repro.reduction.solver import solve_labeling
from repro.service.protocol import SolveRequest

from repro.parallel.shm_pool import live_segment_names as repro_shm_segments

SPEC = (2, 1)
ENGINE = "lk"

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


def publish(arena: ShmArena, key: str, seed: int = 7):
    """Publish one small graph's buffers; returns (descriptor, graph)."""
    graph = small_graph(seed)
    descriptor = arena.publish(key, export_buffers(get_analysis(graph)))
    return descriptor, graph


def retry_crashed(submit_once, attempts: int = 10):
    """Resubmit through WorkerCrashedError — the pool's documented contract
    after a worker death (a submit racing death detection can still fail)."""
    for _ in range(attempts):
        try:
            return submit_once().result(timeout=60)
        except WorkerCrashedError:
            time.sleep(0.05)
    pytest.fail("pool never recovered after worker death")


class TestShmArena:
    def test_publish_attach_roundtrip(self):
        with ShmArena() as arena:
            descriptor, graph = publish(arena, "k0")
            shm = _attach_segment(descriptor.segment)
            try:
                views = _views(shm, descriptor)
                np.testing.assert_array_equal(
                    views["distances"], get_analysis(graph).distances
                )
                np.testing.assert_array_equal(
                    views["indptr"], get_analysis(graph).indptr
                )
                np.testing.assert_array_equal(
                    views["indices"], get_analysis(graph).indices
                )
            finally:
                del views
                shm.close()

    def test_publish_is_idempotent_and_counts_leases(self):
        with ShmArena() as arena:
            d1, _ = publish(arena, "k0")
            d2 = arena.publish("k0", {})  # racing publisher: lease only
            assert d2 is d1 or d2 == d1
            assert len(arena) == 1
            arena.release("k0")
            arena.release("k0")
            arena.release("k0")  # over-release clamps at zero, no raise
            assert len(arena) == 1  # released, not unlinked

    def test_close_unlinks_and_double_close_is_noop(self):
        arena = ShmArena()
        descriptor, _ = publish(arena, "k0")
        assert descriptor.segment in repro_shm_segments()
        arena.close()
        assert descriptor.segment not in repro_shm_segments()
        with pytest.raises(FileNotFoundError):
            _attach_segment(descriptor.segment)
        arena.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            arena.publish("k1", {"x": np.zeros(1)})

    def test_eviction_unlinks_only_idle_entries(self):
        arena = ShmArena(capacity=1)
        try:
            d0, _ = publish(arena, "k0", seed=1)
            arena.release("k0")  # idle -> evictable
            d1, _ = publish(arena, "k1", seed=2)
            # k0 was LRU + idle: evicted and unlinked
            assert d0.segment not in repro_shm_segments()
            assert d1.segment in repro_shm_segments()
            # k1 is leased: publishing k2 may not evict it
            d2, _ = publish(arena, "k2", seed=3)
            assert d1.segment in repro_shm_segments()
            assert len(arena) == 2  # over capacity beats corrupting a lease
        finally:
            arena.close()
        assert not set(repro_shm_segments()) & {
            d0.segment, d1.segment, d2.segment
        }

    def test_lease_returns_none_for_unknown_key(self):
        with ShmArena() as arena:
            assert arena.lease("never-published") is None

    def test_bytes_published_counter(self):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.value("repro_shm_bytes_published_total")
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            arena.publish("k0", {})  # re-lease: no new bytes
        delta = REGISTRY.value("repro_shm_bytes_published_total") - before
        assert delta == descriptor.nbytes > 0


@pytest.mark.parametrize("start_method", START_METHODS)
class TestShmWorkerPool:
    def test_pool_solve_matches_inline(self, start_method):
        graph = small_graph()
        inline = solve_labeling(graph, LpSpec(SPEC), engine=ENGINE)
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(2, start_method=start_method) as pool:
                pool.wait_ready()
                key, labels, span, engine, exact, seconds = pool.submit(
                    descriptor, ("k0", SPEC, ENGINE)
                ).result(timeout=60)
        assert key == "k0"
        assert span == inline.span
        assert labels == inline.labeling.labels
        assert engine == inline.engine and exact == inline.exact
        assert seconds >= 0

    def test_worker_views_are_zero_copy(self, start_method):
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(1, start_method=start_method) as pool:
                report = pool.probe(descriptor).result(timeout=60)
        assert report["pid"] != os.getpid()
        assert report["owns_data"] is False
        assert report["base_is_shm_buffer"] is True
        assert report["nbytes"] > 0

    def test_repeat_keys_stick_to_one_worker(self, start_method):
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(2, start_method=start_method) as pool:
                pool.wait_ready()
                for _ in range(6):
                    pool.submit(
                        descriptor, ("k0", SPEC, ENGINE)
                    ).result(timeout=60)
                counts = pool.dispatch_counts()
        # key affinity: every job for one canonical key on one worker
        assert sorted(counts) == [0, 6]

    def test_fresh_keys_spread_across_workers(self, start_method):
        with ShmArena() as arena:
            with ShmWorkerPool(2, start_method=start_method) as pool:
                pool.wait_ready()
                futures = []
                for i in range(4):
                    descriptor, _ = publish(arena, f"k{i}", seed=i)
                    futures.append(pool.probe(descriptor))
                pids = {f.result(timeout=60)["pid"] for f in futures}
                assert len(pids) == 2  # least-loaded routing used both
                assert pool.route_imbalance() == pytest.approx(1.0)

    def test_submit_after_shutdown_raises(self, start_method):
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
        pool = ShmWorkerPool(1, start_method=start_method)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(ReproError, match="shut down"):
            pool.submit(descriptor, ("k0", SPEC, ENGINE))


class TestWorkerDeath:
    """Crash robustness (fork only: kill timing needs fast start-up)."""

    def test_killed_worker_fails_futures_and_respawns(self):
        from repro.obs.metrics import REGISTRY

        restarts_before = REGISTRY.value("repro_pool_worker_restarts_total")
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(2, start_method="fork") as pool:
                pool.wait_ready()
                futures = [
                    pool.submit(descriptor, ("k0", SPEC, ENGINE))
                    for _ in range(6)
                ]
                for pid in pool.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                outcomes = []
                for f in futures:
                    try:
                        outcomes.append(f.result(timeout=30))
                    except WorkerCrashedError:
                        outcomes.append("crashed")
                # every future resolved (none hung); at least the in-flight
                # solve on each killed worker crashed
                assert outcomes.count("crashed") >= 1
                assert pool.restart_count >= 1
                # the respawned workers serve again
                _, _, span, *_ = retry_crashed(
                    lambda: pool.submit(descriptor, ("k0", SPEC, ENGINE))
                )
                assert span >= 0
        delta = (
            REGISTRY.value("repro_pool_worker_restarts_total")
            - restarts_before
        )
        assert delta == pool.restart_count >= 1

    def test_crash_hammer_never_hangs_or_leaks(self):
        """Kill workers while submitting; every future must resolve."""
        deadline = time.monotonic() + 60
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(2, start_method="fork") as pool:
                pool.wait_ready()
                for round_no in range(3):
                    futures = [
                        pool.submit(descriptor, ("k0", SPEC, ENGINE))
                        for _ in range(4)
                    ]
                    os.kill(
                        pool.worker_pids()[round_no % 2], signal.SIGKILL
                    )
                    for f in futures:
                        assert time.monotonic() < deadline, "pool hung"
                        try:
                            f.result(timeout=30)
                        except WorkerCrashedError:
                            pass
                # segments stay attached-to and valid throughout
                report = retry_crashed(lambda: pool.probe(descriptor))
                assert report["base_is_shm_buffer"] is True
        assert descriptor.segment not in repro_shm_segments()

    def test_worker_death_does_not_unlink_parent_segments(self):
        with ShmArena() as arena:
            descriptor, _ = publish(arena, "k0")
            with ShmWorkerPool(1, start_method="fork") as pool:
                pool.wait_ready()
                # the worker attaches (and caches) the segment...
                pool.probe(descriptor).result(timeout=60)
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                pool.restart_count  # touch: death handled asynchronously
                time.sleep(0.2)
                # ...and its death must not tear the parent's segment down
                # (bpo-39959: a tracked attach would unlink it here)
                assert descriptor.segment in repro_shm_segments()
                report = retry_crashed(lambda: pool.probe(descriptor))
                assert report["base_is_shm_buffer"] is True
        assert descriptor.segment not in repro_shm_segments()


class TestServerIntegration:
    """The serving front end on the pool: correctness + lifecycle."""

    def test_offloaded_server_leaves_no_segments(self):
        from repro.service.server import ConcurrentLabelingService

        graph = small_graph()
        inline = solve_labeling(graph, LpSpec(SPEC), engine=ENGINE)
        with ConcurrentLabelingService(workers=2, offload=True) as server:
            server.prewarm()
            result = server.submit(
                SolveRequest(graph, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            assert result.span == inline.span
        assert not [
            s for s in repro_shm_segments()
            if s.startswith(f"repro_shm_{os.getpid()}_")
        ]

    def test_offloaded_server_publishes_once_per_canonical_key(self):
        from repro.graphs.operations import relabel
        from repro.obs.metrics import REGISTRY
        from repro.service.server import ConcurrentLabelingService

        graph = small_graph()
        before = REGISTRY.value("repro_shm_bytes_published_total")
        with ConcurrentLabelingService(workers=2, offload=True) as server:
            server.prewarm()
            base = server.submit(
                SolveRequest(graph, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            # isomorphic repeats: canonical key identical -> cache hits,
            # no new segment; a *forced* cold re-solve of a permuted copy
            # would also reuse the published segment via the arena lease
            permuted = relabel(graph, list(reversed(range(graph.n))))
            again = server.submit(
                SolveRequest(permuted, LpSpec(SPEC), engine=ENGINE)
            ).result(timeout=60)
            assert again.span == base.span
        published = REGISTRY.value("repro_shm_bytes_published_total") - before
        stats = server.stats.snapshot()
        assert stats["solved"] == 1 and stats["hits"] == 1
        # exactly one publish: the single cold solve's canonical buffers
        assert published > 0

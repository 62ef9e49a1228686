"""Tests for the observability layer: registry, tracing, and wiring.

Covers the metric primitives and exposition formats (including a golden
Prometheus file), exact-total concurrency hammering, span propagation
across thread and process-offload boundaries, the legacy-counter
delegation (``apsp_run_count`` / ``full_apsp_refresh_count``), the atomic
:class:`ServerStats` snapshot, and the CLI/lint surface.

Global-registry assertions always use *deltas*: :data:`repro.obs.REGISTRY`
is process-wide and other tests run before these.
"""

import io
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs import REGISTRY, SpanContext, Tracer, span
from repro.obs.catalog import CATALOG, COUNTER, GAUGE, HISTOGRAM, catalog_entry
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.prom"


def golden_registry() -> MetricsRegistry:
    """The deterministic registry behind the golden exposition file.

    Uses registry-private names (not the catalogue) so the rendering is a
    pure function of this code — global instrumentation can never leak in.
    """
    reg = MetricsRegistry()
    ops = reg.counter("repro_test_ops_total", help="Operations, by kind.")
    ops.labels(kind="read").inc(3)
    ops.labels(kind="write").inc()
    reg.counter("repro_test_plain_total", help="An unlabelled counter.").inc(7)
    gauge = reg.gauge("repro_test_depth_current", help='Depth "now"\\here.')
    gauge.set(2.5)
    hist = reg.histogram(
        "repro_test_latency_seconds",
        help="Latency of the test op.",
        buckets=(0.1, 1.0, 5.0),
    )
    for v in (0.05, 0.05, 0.5, 2.0, 9.0):
        hist.observe(v)
    esc = reg.gauge("repro_test_escapes", help="Label escaping fixture.")
    esc.labels(path='a"b\\c\nd').set(1)
    return reg


class TestMetricPrimitives:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_t_a_total")
        c.inc()
        c.inc(4)
        assert reg.value("repro_t_a_total") == 5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_set_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_t_depth")
        g.set(3)
        g.inc(-1)
        assert reg.value("repro_t_depth") == 2

    def test_gauge_callback_weakref(self):
        """A collected owner leaves the last sample, never a crash."""
        reg = MetricsRegistry()

        class Box:
            """Trivial gauge owner."""
            depth = 7

        box = Box()
        g = reg.gauge("repro_t_cb")
        g.set_function(lambda b: b.depth, owner=box)
        assert reg.value("repro_t_cb") == 7
        box.depth = 9
        assert reg.value("repro_t_cb") == 9
        del box
        assert reg.value("repro_t_cb") == 9  # falls back to last sample

    def test_histogram_percentiles(self):
        """Quantiles are monotone and bracket the observed data."""
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_lat_seconds")
        for i in range(1, 101):
            h.observe(i / 1000.0)  # 1ms .. 100ms uniform
        s = reg.histogram_summary("repro_t_lat_seconds")
        assert s["count"] == 100
        assert abs(s["sum"] - sum(i / 1000.0 for i in range(1, 101))) < 1e-9
        assert 0.0 < s["p50"] <= s["p95"] <= s["p99"] <= 0.25
        assert 0.025 <= s["p50"] <= 0.1  # true median 50.5ms, bucketed

    def test_histogram_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("repro_t_bad_seconds", buckets=(1.0, 1.0))

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_x_total")
        with pytest.raises(ReproError):
            reg.gauge("repro_t_x_total")

    def test_catalogued_type_enforced(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.gauge("repro_apsp_runs_total")  # catalogued as a counter

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.counter("0bad name")


class TestRegistryExposition:
    def test_golden_prometheus_file(self):
        """The exposition is byte-identical to the committed golden file."""
        rendered = golden_registry().render_prom()
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_preregistered_catalogue_always_exposed(self):
        """Every catalogued family appears in the global exposition."""
        text = REGISTRY.render_prom()
        for name, (kind, _help) in CATALOG.items():
            assert f"# TYPE {name} {kind}\n" in text

    def test_catalog_entry_lookup(self):
        kind, help_text = catalog_entry("repro_apsp_runs_total")
        assert kind == COUNTER and help_text
        with pytest.raises(ReproError):
            catalog_entry("repro_nope_total")

    def test_catalog_kinds_valid(self):
        assert all(k in (COUNTER, GAUGE, HISTOGRAM)
                   for k, _ in CATALOG.values())

    def test_json_roundtrip(self, tmp_path):
        """save -> load -> render reproduces the exposition exactly."""
        reg = golden_registry()
        path = reg.save(tmp_path / "dump.json")
        loaded = MetricsRegistry.load(path)
        assert loaded.render_prom() == reg.render_prom()

    def test_load_rejects_bad_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "metrics": {}}))
        with pytest.raises(ReproError):
            MetricsRegistry.load(bad)

    def test_histogram_exposition_shape(self):
        """Cumulative buckets, +Inf == _count, and a _sum line."""
        text = golden_registry().render_prom()
        assert 'repro_test_latency_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_test_latency_seconds_bucket{le="1"} 3' in text
        assert 'repro_test_latency_seconds_bucket{le="5"} 4' in text
        assert 'repro_test_latency_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_test_latency_seconds_count 5" in text


class TestConcurrencyHammer:
    def test_counter_exact_totals(self):
        """N threads x M increments land exactly, no lost updates."""
        reg = MetricsRegistry()
        c = reg.counter("repro_t_hammer_total")
        threads, per = 8, 5000

        def work():
            """Hammer the shared counter."""
            child = c.labels()
            for _ in range(per):
                child.inc()

        ts = [threading.Thread(target=work) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.value("repro_t_hammer_total") == threads * per

    def test_histogram_exact_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_hammer_seconds")
        threads, per = 6, 2000

        def work(k):
            """Hammer the shared histogram."""
            for i in range(per):
                h.observe((k * per + i) % 13 / 10.0)

        ts = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.histogram_summary("repro_t_hammer_seconds")["count"] == (
            threads * per
        )


class TestTracer:
    def test_nesting_parents(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert outer.duration >= inner.duration >= 0.0

    def test_tags_recorded(self):
        tr = Tracer()
        with tr.span("op", engine="lk", n=12) as s:
            pass
        assert s.tags == {"engine": "lk", "n": 12}

    def test_thread_propagation(self):
        """activate() parents a worker thread's spans under the client."""
        tr = Tracer()
        seen = {}

        def worker(ctx):
            """Run one span under the propagated context."""
            with tr.activate(ctx):
                with tr.span("work") as s:
                    seen["span"] = s

        with tr.span("client") as root:
            t = threading.Thread(target=worker, args=(tr.current_context(),))
            t.start()
            t.join()
        assert seen["span"].trace_id == root.trace_id
        assert seen["span"].parent_id == root.span_id

    def test_activate_none_noop(self):
        tr = Tracer()
        with tr.activate(None):
            with tr.span("root") as s:
                pass
        assert s.parent_id is None

    def test_drain_ingest_roundtrip(self):
        """Spans survive the JSON row trip across a process boundary."""
        tr = Tracer()
        with tr.span("a", k=1):
            pass
        rows = [s.to_json() for s in tr.drain()]
        assert len(tr) == 0
        tr.ingest(rows)
        (back,) = tr.drain()
        assert back.name == "a" and back.tags == {"k": 1}

    def test_bounded_capacity(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        names = [s.name for s in tr.drain()]
        assert names == ["s6", "s7", "s8", "s9"]  # oldest evicted

    def test_dump_ndjson(self, tmp_path):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("child"):
                pass
        path = tr.dump_ndjson(tmp_path / "trace.ndjson")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["name"] for r in rows} == {"root", "child"}
        assert len(tr) == 0  # dump drains


class TestServerIntegration:
    def _serve_one(self, offload):
        """One traced solve through a fresh server; returns drained spans."""
        from repro.graphs import generators as gen
        from repro.labeling.spec import L21
        from repro.obs import TRACER
        from repro.service.protocol import SolveRequest
        from repro.service.server import ConcurrentLabelingService

        TRACER.drain()  # isolate from earlier tests
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=5)
        server = ConcurrentLabelingService(workers=2, offload=offload)
        try:
            with span("client") as root:
                req = SolveRequest(g, L21, engine="lk")
                server.submit(req).result(timeout=60)
        finally:
            server.shutdown(wait=True)
        return root, TRACER.drain()

    def test_span_propagation_across_worker_thread(self):
        root, spans = self._serve_one(offload=False)
        proc = next(s for s in spans if s.name == "server.process")
        assert proc.trace_id == root.trace_id
        assert proc.parent_id == root.span_id

    def test_span_propagation_across_process_offload(self):
        root, spans = self._serve_one(offload=True)
        proc = next(s for s in spans if s.name == "server.process")
        off = next(s for s in spans if s.name == "solve.offload")
        assert off.trace_id == root.trace_id
        assert off.parent_id == proc.span_id
        assert off.tags["pid"] != __import__("os").getpid()

    def test_request_histograms_populated(self):
        before = REGISTRY.histogram_summary("repro_request_seconds")["count"]
        self._serve_one(offload=False)
        after = REGISTRY.histogram_summary("repro_request_seconds")["count"]
        assert after == before + 1

    def test_worker_utilization_accounting(self):
        from repro.graphs import generators as gen
        from repro.labeling.spec import L21
        from repro.service.protocol import SolveRequest
        from repro.service.server import ConcurrentLabelingService

        g = gen.random_graph_with_diameter_at_most(10, 2, seed=6)
        server = ConcurrentLabelingService(workers=2, offload=False)
        try:
            server.submit(SolveRequest(g, L21, engine="lk")).result(timeout=60)
            server.drain()
        finally:
            server.shutdown(wait=True)
        util = server.worker_utilization()
        assert len(util) == 2
        assert sum(u["busy_seconds"] for u in util) > 0.0
        for u in util:
            assert 0.0 <= u["utilization"] <= 1.0


class TestLegacyCounterEquivalence:
    def test_apsp_run_count_delegates(self):
        """The legacy counter and the registry move in lockstep."""
        from repro.graphs import generators as gen
        from repro.graphs.traversal import all_pairs_distances, apsp_run_count

        g = gen.random_graph_with_diameter_at_most(8, 2, seed=1)
        legacy0 = apsp_run_count()  # after generation: it runs APSP too
        reg0 = REGISTRY.value("repro_apsp_runs_total")
        assert legacy0 == reg0
        all_pairs_distances(g.copy())  # copy: cold analysis, no memo hit
        assert apsp_run_count() == legacy0 + 1
        assert REGISTRY.value("repro_apsp_runs_total") == reg0 + 1

    def test_full_refresh_delegates(self):
        from repro.dynamic import full_apsp_refresh_count

        assert full_apsp_refresh_count() == REGISTRY.value(
            "repro_full_apsp_refresh_total"
        )

    def test_cache_counters_mirror_stats(self):
        from repro.service.cache import CachedSolve
        from repro.service.shard import ShardedResultCache

        h0 = REGISTRY.value("repro_cache_hits_total")
        m0 = REGISTRY.value("repro_cache_misses_total")
        c = ShardedResultCache(capacity=2, shards=1)
        c.get("x")
        c.put("x", CachedSolve((0,), 0, "lk", False))
        c.get("x")
        assert REGISTRY.value("repro_cache_hits_total") == h0 + 1
        assert REGISTRY.value("repro_cache_misses_total") == m0 + 1
        assert (c.stats.hits, c.stats.misses) == (1, 1)

    def test_shard_contention_gauge_tracks_owner(self):
        from repro.service.cache import CachedSolve
        from repro.service.shard import ShardedResultCache

        cache = ShardedResultCache(capacity=64, shards=4)
        cache.put("k", CachedSolve((0,), 0, "lk", False))
        cache.get("k")
        assert REGISTRY.value("repro_shard_contention_rate") == (
            cache.contention_rate
        )


class TestServerStatsAtomic:
    def test_add_validates_fields(self):
        from repro.service.server import ServerStats

        stats = ServerStats()
        with pytest.raises(ReproError):
            stats.add(bogus=1)

    def test_snapshot_exact_under_hammer(self):
        """Concurrent add() calls never tear or lose an update."""
        from repro.service.server import ServerStats

        stats = ServerStats()
        threads, per = 8, 3000

        def work():
            """Hammer correlated fields the way the server does."""
            for _ in range(per):
                stats.add(submitted=1, hits=1, completed=1)

        ts = [threading.Thread(target=work) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        snap = stats.snapshot()
        total = threads * per
        assert snap["submitted"] == snap["hits"] == snap["completed"] == total
        assert snap["hit_rate"] == 1.0

    def test_snapshot_consistent_view(self):
        """hit_rate and to_json derive from one atomic read."""
        from repro.service.server import ServerStats

        stats = ServerStats()
        stats.add(submitted=4, hits=1, coalesced=1, solved=2, completed=4)
        snap = stats.to_json()
        assert snap["hit_rate"] == 0.5
        assert stats.hit_rate == 0.5


class TestProfilingSpanAttach:
    def test_hotspots_attached_to_active_span(self):
        from repro.profiling import profile_call

        with span("profiled") as s:
            _, rows = profile_call(lambda: sum(range(10000)), top=3)
        attached = s.tags["hotspots"]
        assert len(attached) == len(rows) <= 3
        assert attached[0]["function"] == rows[0].function
        assert {"function", "calls", "total_seconds",
                "cumulative_seconds"} <= set(attached[0])

    def test_no_span_no_crash(self):
        from repro.profiling import profile_call

        out, rows = profile_call(lambda: 42, top=2)
        assert out == 42 and rows


class TestCliSurface:
    def run_cli(self, argv, stdin_text=None):
        """Invoke repro.cli.main with captured stdout."""
        from repro.cli import main

        old_out, old_in = sys.stdout, sys.stdin
        sys.stdout = io.StringIO()
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
            return code, sys.stdout.getvalue()
        finally:
            sys.stdout, sys.stdin = old_out, old_in

    def test_metrics_no_workload_prom(self):
        """A bare registry exposition lists every catalogued family."""
        code, out = self.run_cli(["metrics", "--no-workload", "--format", "prom"])
        assert code == 0
        for name, (kind, _help) in CATALOG.items():
            assert f"# TYPE {name} {kind}\n" in out

    def test_metrics_no_workload_passes_lint(self):
        sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
        try:
            from metrics_lint import check_exposition
        finally:
            sys.path.pop(0)
        code, out = self.run_cli(["metrics", "--no-workload"])
        assert code == 0 and check_exposition(out) == []

    def test_metrics_json_format(self):
        code, out = self.run_cli(["metrics", "--no-workload", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and set(CATALOG) <= set(data["metrics"])

    def test_metrics_from_dump(self, tmp_path):
        path = golden_registry().save(tmp_path / "dump.json")
        code, out = self.run_cli(["metrics", "--from", str(path)])
        assert code == 0
        assert "repro_test_ops_total" in out

    def test_metrics_from_missing_file(self, tmp_path):
        code, _out = self.run_cli(
            ["metrics", "--from", str(tmp_path / "nope.json")]
        )
        assert code == 2  # ReproError -> one-line error, not a traceback

    def test_solve_trace_writes_ndjson(self, tmp_path):
        code, out = self.run_cli(["generate", "diam2", "8", "--seed", "2"])
        assert code == 0
        g = tmp_path / "g.edges"
        g.write_text(out)
        trace = tmp_path / "trace.ndjson"
        code, _out = self.run_cli(["solve", str(g), "--trace", str(trace)])
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in rows}
        assert {"cli.solve", "solve"} <= names
        root = next(r for r in rows if r["name"] == "cli.solve")
        child = next(r for r in rows if r["name"] == "solve")
        assert child["parent_id"] == root["span_id"]
        assert child["tags"]["n"] == 8

    def test_batch_metrics_dump_roundtrip(self, tmp_path):
        code, out = self.run_cli(["generate", "diam2", "8", "--seed", "3"])
        assert code == 0
        src = tmp_path / "graphs"
        src.mkdir()
        (src / "g.edges").write_text(out)
        dump = tmp_path / "metrics.json"
        code, _out = self.run_cli(
            ["batch", str(src), "--metrics-dump", str(dump)]
        )
        assert code == 0 and dump.exists()
        code, out = self.run_cli(["metrics", "--from", str(dump)])
        assert code == 0 and "repro_apsp_runs_total" in out


class TestMetricsLintScan:
    def _scan(self, tmp_path, source):
        """Run the lint scanner over one synthetic source file."""
        sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
        try:
            from metrics_lint import scan_sources
        finally:
            sys.path.pop(0)
        f = tmp_path / "mod.py"
        f.write_text(source)
        return scan_sources([str(f)])

    def test_flags_uncatalogued_names(self, tmp_path):
        hits = self._scan(tmp_path, 'X = "repro_rogue_counter_total"\n')
        assert len(hits) == 1 and "repro_rogue_counter_total" in hits[0]

    def test_accepts_catalogued_and_series_suffixes(self, tmp_path):
        hits = self._scan(
            tmp_path,
            'A = "repro_apsp_runs_total"\nB = "repro_request_seconds_bucket"\n',
        )
        assert hits == []

    def test_default_buckets_sane(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        assert all(b > 0 for b in DEFAULT_BUCKETS)

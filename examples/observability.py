#!/usr/bin/env python
"""Observability walk-through: metrics, traces, and the GIL ceiling.

Drives a small mixed hot/cold stream through the concurrent serving front
end and then reads everything the observability layer recorded about it:

* the Prometheus exposition of the process registry (counters the legacy
  APIs like ``apsp_run_count()`` now delegate to),
* request-latency histogram quantiles (p50/p95/p99),
* per-worker busy/idle accounting — the direct measurement of why thread
  workers cannot beat ~1x on a single core (the GIL ceiling the perf
  suite records as ``workers_speedup_4``),
* one trace tree crossing the client thread, a worker thread, and (on
  multi-core hosts) the worker-pool process boundary,
* a profiled solve whose hot-spot rows land on the active span.

Run:  python examples/observability.py
"""

from repro.graphs.generators import random_graph_with_diameter_at_most
from repro.labeling.spec import L21
from repro.obs import REGISTRY, TRACER, span
from repro.profiling import format_hotspots, profile_call
from repro.reduction.solver import solve_labeling
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService


def serve_stream() -> ConcurrentLabelingService:
    """Serve a few duplicate-heavy requests under one client span."""
    server = ConcurrentLabelingService(workers=2)
    base = random_graph_with_diameter_at_most(14, 2, seed=7)
    try:
        with span("client", requests=6):
            futures = [
                server.submit(SolveRequest(
                    base.copy() if i % 3 else
                    random_graph_with_diameter_at_most(14, 2, seed=i),
                    L21,
                    engine="lk",
                ))
                for i in range(6)
            ]
            for fut in futures:
                fut.result(timeout=120)
        server.drain()
    finally:
        server.shutdown(wait=True)
    return server


def main() -> None:
    """Run the workload, then print every observability readout."""
    TRACER.drain()  # a clean trace buffer for the demo
    server = serve_stream()

    print("=== server counters (one atomic snapshot) ===")
    snap = server.stats.snapshot()
    for key in ("submitted", "hits", "coalesced", "solved", "completed"):
        print(f"    {key:10s} {snap[key]}")
    print(f"    hit_rate   {snap['hit_rate']:.3f}")

    print("\n=== request-latency histogram (registry quantiles) ===")
    summary = REGISTRY.histogram_summary("repro_request_seconds")
    print(f"    count={summary['count']}  sum={summary['sum']:.4f}s  "
          f"p50={summary['p50'] * 1e3:.2f}ms  p95={summary['p95'] * 1e3:.2f}ms  "
          f"p99={summary['p99'] * 1e3:.2f}ms")

    print("\n=== per-worker utilization (the GIL ceiling, measured) ===")
    for i, u in enumerate(server.worker_utilization()):
        print(f"    worker {i}: busy {u['busy_seconds'] * 1e3:7.1f}ms  "
              f"idle {u['idle_seconds'] * 1e3:7.1f}ms  "
              f"utilization {u['utilization']:.1%}")

    print("\n=== one trace tree across thread/process boundaries ===")
    spans = TRACER.drain()
    by_id = {s.span_id: s for s in spans}

    def depth(s) -> int:
        """Tree depth of a span via parent links."""
        d = 0
        while s.parent_id is not None and s.parent_id in by_id:
            s, d = by_id[s.parent_id], d + 1
        return d

    for s in sorted(spans, key=lambda s: s.start)[:10]:
        pid = f"  pid={s.tags['pid']}" if "pid" in s.tags else ""
        print(f"    {'  ' * depth(s)}{s.name:16s} "
              f"{s.duration * 1e3:7.2f}ms{pid}")

    print("\n=== profile_call attaches hot spots to the active span ===")
    g = random_graph_with_diameter_at_most(16, 2, seed=42)
    with span("profiled.solve") as prof_span:
        _, rows = profile_call(lambda: solve_labeling(g, L21, engine="lk"),
                               top=4)
    print(format_hotspots(rows))
    print(f"    ...and the span carries {len(prof_span.tags['hotspots'])} "
          f"hotspot rows for any trace consumer")

    print("\n=== a slice of the Prometheus exposition ===")
    for line in REGISTRY.render_prom().splitlines():
        if line.startswith("repro_server_") or line.startswith("repro_apsp"):
            print(f"    {line}")


if __name__ == "__main__":
    main()

"""Command-line front end: ``repro-label`` / ``python -m repro``.

Subcommands
-----------
``solve``      solve L(p)-labeling for a graph file (edge-list or DIMACS)
``batch``      solve many graphs through the concurrent caching service;
               records print in input order, or with ``--stream`` as each
               stdin request completes
``stats``      structural summary of a graph off one shared GraphAnalysis
``reduce``     print the reduced metric path-TSP weight matrix
``experiment`` run experiments from the E1–E11 reproduction suite
``generate``   emit a workload graph as an edge list (for piping)
``engines``    list available TSP engines
``dynamic``    run a named edge-churn stream through the incremental
               delta engine; verify against the reference APSP and report
               the speedup over recompute-per-mutation
``perf``       perf trajectory: ``run`` emits BENCH_<k>.json, ``compare``
               gates it against benchmarks/baseline.json, ``baseline``
               promotes a trajectory to the committed baseline
``metrics``    run a small built-in workload and print the observability
               registry (Prometheus text or JSON), or render a saved
               ``--metrics-dump`` file

``solve``, ``batch`` and ``dynamic`` accept ``--trace FILE``: the run is
wrapped in a root span and every span recorded in-process (including
spans shipped back across the process-offload boundary) is written to
``FILE`` as NDJSON on exit.

Expected failures (missing files, unknown legs, invalid trajectories)
surface as one-line ``error: ...`` messages with exit code 2, not
tracebacks.

:func:`render_reference` renders this whole argparse tree as Markdown;
``docs/cli.md`` is its committed output (regenerate with ``make docs``,
drift fails ``tests/test_docs.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError, error_code
from repro.graphs import io as gio
from repro.graphs.analysis import get_analysis
from repro.harness.experiments import ALL_EXPERIMENTS, main as run_experiments
from repro.harness.workloads import WORKLOADS, make_workload
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.service.api import solve_record
from repro.service.protocol import SolveRequest
from repro.tsp.portfolio import ENGINES


def _parse_spec(text: str) -> LpSpec:
    """Parse ``2,1`` or ``(2,1)`` or ``2 1`` into an LpSpec."""
    cleaned = text.strip().strip("()").replace(",", " ")
    return LpSpec(tuple(int(t) for t in cleaned.split()))


def _load_graph(path: str):
    """Load a graph from a path, '-' (stdin), or a DIMACS .col file."""
    if path == "-":
        return gio.read_edge_list(sys.stdin)
    if path.endswith(".col") or path.endswith(".dimacs"):
        return gio.read_dimacs(path)
    return gio.read_edge_list(path)


def _cmd_solve(args: argparse.Namespace) -> int:
    """``solve``: one labeling solve, human-readable or ``--json``."""
    from repro.obs import span

    graph = _load_graph(args.graph)
    spec = _parse_spec(args.p)
    with span("solve", n=graph.n, m=graph.m, engine=args.engine):
        result = solve_labeling(graph, spec, engine=args.engine)
    if args.json:
        record = solve_record(
            result, graph=graph, spec=spec, include_labels=args.labels
        )
        print(json.dumps(record))
        return 0
    print(f"graph: n={graph.n} m={graph.m}")
    print(f"spec: {spec}   engine: {result.engine}   exact: {result.exact}")
    print(f"span: {result.span}")
    if args.labels:
        for v, lab in enumerate(result.labeling.labels):
            print(f"  {v}: {lab}")
    return 0


def _batch_inputs(source: str) -> list[tuple[str, "object"]]:
    """Collect ``(tag, graph)`` pairs from a directory or the stdin stream."""
    if source == "-":
        return [
            (f"stdin[{i}]", g)
            for i, g in enumerate(gio.read_edge_list_stream(sys.stdin))
        ]
    root = Path(source)
    if not root.is_dir():
        raise SystemExit(f"batch source must be a directory or '-', got {source!r}")
    pairs = []
    for path in sorted(root.iterdir()):
        if path.is_file():
            pairs.append((path.name, _load_graph(str(path))))
    return pairs


def _cmd_batch(args: argparse.Namespace) -> int:
    """``batch``: solve many graphs through the concurrent service (JSON lines).

    A directory source (or ``-`` without ``--stream``) is read whole and
    its records print in input order, every one on the exact tier.
    ``--stream`` serves the stdin
    stream as it is read — the bounded queue applies backpressure to the
    read loop — and prints each record *in completion order*, so a slow
    cold solve never holds up the cache hits behind it.  Both modes end
    with the same stderr summary.
    """
    import queue as queue_mod

    from repro.service.server import ConcurrentLabelingService

    if args.stream and args.source != "-":
        raise ReproError(
            "--stream serves the stdin edge-list stream; use `batch - --stream`"
        )
    spec = _parse_spec(args.p)
    inputs = None if args.stream else _batch_inputs(args.source)
    if inputs == []:
        print("no graphs found", file=sys.stderr)
        return 2
    server = ConcurrentLabelingService(
        workers=args.workers,
        queue_size=args.queue_size,
        offload=args.offload,
        cache_path=args.cache,
    )

    # A directory batch is a reproducible job: every record is exact, as
    # in a service-backed session.  Only --stream leaves ``auto`` to the
    # router.
    tier = "auto" if args.stream else "exact"

    def _submit(tag, graph):
        """Enqueue one graph; returns its future."""
        return server.submit(SolveRequest(
            graph=graph, spec=spec, engine=args.engine, tag=tag, tier=tier
        ))

    def _record(tag, graph, result) -> str:
        """One NDJSON output line."""
        return json.dumps(solve_record(
            result, graph=graph, spec=spec, include_labels=args.labels, tag=tag
        ))

    exit_code = 0
    try:
        if inputs is not None:
            futures = [_submit(tag, g) for tag, g in inputs]
            for (tag, graph), fut in zip(inputs, futures):
                print(_record(tag, graph, fut.result()))
        else:
            done: "queue_mod.Queue" = queue_mod.Queue()
            submitted = printed = 0

            def _print_ready(block: bool) -> None:
                """Emit records for completed futures (optionally blocking)."""
                nonlocal printed, exit_code
                while printed < submitted:
                    try:
                        tag, graph, fut = done.get(block=block)
                    except queue_mod.Empty:
                        return
                    try:
                        line = _record(tag, graph, fut.result())
                    except Exception as exc:  # per-request failure: keep serving
                        line = json.dumps({"tag": tag, "error": str(exc)})
                        exit_code = 1
                    print(line, flush=True)
                    printed += 1

            for i, g in enumerate(gio.read_edge_list_stream(sys.stdin)):
                tag = f"stdin[{i}]"
                _submit(tag, g).add_done_callback(
                    lambda f, tag=tag, graph=g: done.put((tag, graph, f))
                )
                submitted += 1
                _print_ready(block=False)
            _print_ready(block=True)
    finally:
        server.shutdown(wait=True)
    if args.cache:
        server.cache.save()
    summary = {
        "server": server.stats.to_json(),
        "cache": server.cache.stats.to_json(),
        "shard_lock_wait": round(server.cache.contention_rate, 4),
    }
    print(json.dumps(summary), file=sys.stderr)
    if args.metrics_dump:
        from repro.obs import REGISTRY

        path = REGISTRY.save(args.metrics_dump)
        print(f"metrics dump: {path}", file=sys.stderr)
    return exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: structural graph summary off one shared analysis."""
    graph = _load_graph(args.graph)
    a = get_analysis(graph)
    connected = a.is_connected
    record = {
        "n": a.n,
        "m": a.m,
        "components": a.component_count,
        "max_degree": a.max_degree,
        "degree_histogram": a.degree_histogram().tolist(),
        "diameter": a.diameter if connected else None,
        "radius": a.radius if connected else None,
    }
    if args.json:
        print(json.dumps(record))
        return 0
    print(f"n: {record['n']}")
    print(f"m: {record['m']}")
    print(f"components: {record['components']}")
    if connected:
        print(f"diameter: {record['diameter']}")
        print(f"radius: {record['radius']}")
    else:
        print("diameter: n/a (disconnected)")
        print("radius: n/a (disconnected)")
    print(f"max degree: {record['max_degree']}")
    print("degree histogram (degree: count):")
    for degree, count in enumerate(record["degree_histogram"]):
        if count:
            print(f"  {degree}: {count}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    """``reduce``: print the reduced Path-TSP weight matrix."""
    graph = _load_graph(args.graph)
    spec = _parse_spec(args.p)
    red = reduce_to_path_tsp(graph, spec)
    w = red.instance.weights.astype(int)
    for row in w:
        print(" ".join(str(int(x)) for x in row))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``experiment``: run named E-suite experiments (default: all)."""
    names = args.ids or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {list(ALL_EXPERIMENTS)}")
        return 2
    results = run_experiments(names)
    return 0 if all(r.passed for r in results) else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: emit a named workload graph as an edge list."""
    wl = make_workload(args.family, args.n, args.seed)
    gio.write_edge_list(wl.graph, sys.stdout)
    return 0


def _cmd_engines(_args: argparse.Namespace) -> int:
    """``engines``: list the available TSP engine names."""
    for name in ENGINES:
        print(name)
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    """``dynamic``: run a churn leg through the delta engine and report."""
    import dataclasses
    import time

    import numpy as np

    from repro.dynamic import full_apsp_refresh_count
    from repro.graphs.traversal import all_pairs_distances_reference
    from repro.harness.workloads import (
        DYNAMIC,
        churn_maintain,
        churn_recompute,
        churn_stream,
    )

    try:
        leg = DYNAMIC[args.leg]
    except KeyError:
        raise ReproError(
            f"unknown dynamic leg {args.leg!r}; known: {', '.join(DYNAMIC)}"
        ) from None
    if args.steps is not None:
        leg = dataclasses.replace(leg, steps=args.steps)
    base, ops = churn_stream(leg)

    from repro.obs import span

    fallbacks_before = full_apsp_refresh_count()
    t0 = time.perf_counter()
    with span("dynamic.maintain", leg=leg.name, steps=len(ops)):
        churn_maintain(base, ops)
    incremental = time.perf_counter() - t0
    fallbacks = full_apsp_refresh_count() - fallbacks_before

    t0 = time.perf_counter()
    with span("dynamic.recompute", leg=leg.name, steps=len(ops)):
        churn_recompute(base, ops)
    recompute = time.perf_counter() - t0

    verified = True
    if args.verify:
        # separate un-timed pass: per-delta comparison against the
        # reference APSP must not pollute the reported walls
        mismatches = []
        churn_maintain(
            base, ops,
            each=lambda g, dist: mismatches.append(g.version)
            if not np.array_equal(dist, all_pairs_distances_reference(g))
            else None,
        )
        verified = not mismatches

    record = {
        "leg": leg.name,
        "n": base.n,
        "m": base.m,
        "steps": len(ops),
        "incremental_seconds": round(incremental, 6),
        "recompute_seconds": round(recompute, 6),
        "speedup": round(recompute / incremental, 2) if incremental > 0 else 0.0,
        "full_apsp_refreshes": fallbacks,
        "verified": verified if args.verify else None,
    }
    if args.json:
        print(json.dumps(record))
    else:
        print(f"leg: {record['leg']}  (n={record['n']}, m={record['m']}, "
              f"{record['steps']} mutations)")
        print(f"incremental maintenance: {incremental * 1e3:.1f} ms "
              f"({fallbacks} full-APSP fallbacks)")
        print(f"recompute-per-mutation:  {recompute * 1e3:.1f} ms")
        print(f"speedup: {record['speedup']}x")
        if args.verify:
            print(f"verified against reference APSP after every delta: "
                  f"{verified}")
    if args.verify and not verified:
        return 1  # pragma: no cover - would be an engine bug
    return 0


def _cmd_perf_run(args: argparse.Namespace) -> int:
    """``perf run``: run the scenario suite and write BENCH_<k>.json."""
    from repro.perf import run_perf_suite, write_trajectory

    trajectory = run_perf_suite(
        quick=args.quick, repeats=args.repeats, legs=args.leg or None
    )
    path = write_trajectory(trajectory, path=args.out, directory=args.dir)
    if args.json:
        print(json.dumps(trajectory.to_json()))
    else:
        for rec in trajectory.records:
            print(
                f"{rec.experiment}: median {rec.median_seconds * 1e3:.1f} ms "
                f"over {len(rec.wall_seconds)} repeats  {rec.metrics}"
            )
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _resolve_bench(args: argparse.Namespace):
    """``--bench`` if given, else the latest BENCH_*.json under ``--dir``."""
    from repro.perf import latest_bench_path

    bench = args.bench or latest_bench_path(args.dir)
    if bench is None:
        print(f"no BENCH_*.json found under {args.dir!r}; run `perf run` first",
              file=sys.stderr)
    return bench


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    """``perf compare``: gate a trajectory against the committed baseline."""
    from repro.perf import compare, load_baseline, load_trajectory

    bench = _resolve_bench(args)
    if bench is None:
        return 2
    current = load_trajectory(bench)
    baseline, tolerances = load_baseline(args.baseline)
    report = compare(current, baseline, tolerances=tolerances)
    if args.json:
        print(json.dumps({"bench": str(bench), **report.to_json()}))
    else:
        print(f"comparing {bench} against {args.baseline}")
        print(report.render())
    return 0 if report.passed else 1


def _cmd_perf_baseline(args: argparse.Namespace) -> int:
    """``perf baseline``: promote a trajectory to the committed baseline."""
    from repro.perf import load_trajectory, write_baseline

    bench = _resolve_bench(args)
    if bench is None:
        return 2
    path = write_baseline(load_trajectory(bench), args.out)
    print(f"promoted {bench} -> {path}")
    return 0


def _metrics_workload() -> None:
    """Drive traffic through every instrumented layer of the stack.

    The quick workload behind a bare ``repro-label metrics``: the SERVICE
    ``mixed-small`` stream through a 2-worker concurrent server (server
    counters, queue gauges, latency histograms, cache counters, shard
    contention) and one dynamic churn pass (APSP and full-refresh
    counters).  Everything runs inline — no process offload — so the
    whole thing finishes in well under a second.
    """
    from concurrent.futures import wait

    from repro.harness.workloads import (
        DYNAMIC,
        SERVICE,
        churn_maintain,
        churn_stream,
        service_stream,
    )
    from repro.service.server import ConcurrentLabelingService

    server = ConcurrentLabelingService(workers=2, offload=False)
    try:
        futures = [
            server.submit(r) for r in service_stream(SERVICE["mixed-small"])
        ]
        wait(futures)
    finally:
        server.shutdown(wait=True)

    base, ops = churn_stream(DYNAMIC["churn-diam2-small"])
    churn_maintain(base, ops)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: print a metrics exposition (Prometheus text or JSON).

    By default runs :func:`_metrics_workload` first, so a bare invocation
    prints a fully populated exposition — the shape a scrape of a live
    process would return.  ``--from FILE`` renders a registry dump written
    by ``batch --metrics-dump`` instead (no workload); ``--no-workload``
    renders the process registry as-is (catalogued families at zero).
    """
    from repro.obs import REGISTRY
    from repro.obs.metrics import MetricsRegistry

    if args.source is not None:
        registry = MetricsRegistry.load(args.source)
    else:
        registry = REGISTRY
        if not args.no_workload:
            _metrics_workload()
    if args.format == "json":
        print(json.dumps(registry.to_json()))
    else:
        sys.stdout.write(registry.render_prom())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the asyncio HTTP front end until SIGINT/SIGTERM.

    Binds the listener, prints the resolved URL on stderr, and parks until
    a termination signal arrives; then drains gracefully — in-flight
    requests finish, late submissions get 503 — before exiting 0.
    """
    import asyncio
    import signal

    from repro.net.server import NetworkServer

    async def _run() -> None:
        server = NetworkServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            offload=args.offload,
        )
        await server.start()
        print(f"serving on {server.url}", file=sys.stderr, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-unix event loops
                pass
        await stop.wait()
        print("draining...", file=sys.stderr, flush=True)
        await server.shutdown(drain=True)

    asyncio.run(_run())
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    """``load``: open-loop ramp against a server; prints the saturation curve.

    With ``--url`` the ramp targets a running server; without it the
    command self-serves — it starts a private in-process server, loads it
    over real sockets, and tears it down — which is what the CI
    ``load-smoke`` and ``overload-smoke`` jobs run.  Every 200 response is
    verified feasible against the payload it answered.
    ``--fail-on-errors`` exits 1 when any request failed or returned an
    infeasible labeling; intentional drops (429 queue-full, 504 deadline
    expired) never trip it.  ``--expect-approx`` exits 1 unless the
    degraded tier answered at least once.  ``--dump-metrics FILE``
    scrapes the target's ``/metrics`` after the ramp (the smoke jobs
    feed that file to ``tools/metrics_lint.py --check-exposition``).
    """
    from repro.harness.loadgen import default_payload_instances, run_load

    rates = [float(r) for r in args.rate] if args.rate else [10.0, 25.0, 50.0]
    payloads = default_payload_instances(
        count=args.payload_count,
        seed=args.seed,
        tier=args.tier,
        deadline_ms=args.deadline_ms,
    )
    background = None
    owned_service = None
    if args.url is None:
        from repro.net.server import BackgroundServer

        kwargs = {}
        if args.cache_capacity is not None:
            # NetworkServer only plumbs workers/queue_size/offload, so a
            # custom cache capacity means building the service ourselves
            # (and owning its shutdown below).
            from repro.service.server import ConcurrentLabelingService

            owned_service = ConcurrentLabelingService(
                workers=args.workers,
                offload=args.offload,
                cache_capacity=args.cache_capacity,
                **({} if args.queue_size is None
                   else {"queue_size": args.queue_size}),
            )
            kwargs["service"] = owned_service
        else:
            kwargs["workers"] = args.workers
            kwargs["offload"] = args.offload
            if args.queue_size is not None:
                kwargs["queue_size"] = args.queue_size
        background = BackgroundServer(**kwargs)
        url = background.url
        print(f"self-serving on {url}", file=sys.stderr, flush=True)
    else:
        url = args.url
    try:
        report = run_load(
            url, rates, duration=args.duration, seed=args.seed,
            payloads=payloads,
        )
        if args.dump_metrics:
            from urllib.request import urlopen

            with urlopen(f"{url}/metrics") as response:
                Path(args.dump_metrics).write_bytes(response.read())
    finally:
        if background is not None:
            background.shutdown(drain=True)
        if owned_service is not None:
            owned_service.shutdown(wait=True)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"{'rps':>8} {'sent':>6} {'err':>5} {'drop':>5} {'apx':>5} "
              f"{'p50ms':>9} {'p95ms':>9} {'p99ms':>9} {'achieved':>9}")
        for step in report.steps:
            print(
                f"{step.offered_rps:8.1f} {step.sent:6d} "
                f"{step.errors + step.infeasible:5d} {step.dropped:5d} "
                f"{step.approx:5d} "
                f"{step.p50_ms:9.2f} {step.p95_ms:9.2f} {step.p99_ms:9.2f} "
                f"{step.achieved_rps:9.1f}"
            )
    failed = report.total_errors + report.total_infeasible
    if args.fail_on_errors and failed:
        print(
            f"error: [overloaded] {failed} of "
            f"{report.total_sent} requests failed "
            f"({report.total_infeasible} infeasible)",
            file=sys.stderr,
        )
        return 1
    if args.expect_approx and not report.total_approx:
        print(
            "error: [no-degradation] expected at least one approx-tier "
            "response, got none",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the repro-label CLI."""
    ap = argparse.ArgumentParser(
        prog="repro-label",
        description="L(p)-labeling of small-diameter graphs via Metric Path TSP",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve L(p)-labeling for a graph file")
    s.add_argument("graph", help="edge-list file, .col/.dimacs file, or - for stdin")
    s.add_argument("-p", default="2,1", help="constraint vector, e.g. '2,1' (default)")
    s.add_argument("--engine", default="auto", choices=["auto", *ENGINES])
    s.add_argument("--labels", action="store_true", help="print per-vertex labels")
    s.add_argument("--json", action="store_true", help="emit one JSON record")
    s.add_argument("--trace", default=None, metavar="FILE",
                   help="write recorded trace spans to FILE as NDJSON")
    s.set_defaults(fn=_cmd_solve)

    b = sub.add_parser(
        "batch",
        help="solve many graphs via the caching service; JSON-lines output",
    )
    b.add_argument(
        "source",
        help="directory of graph files, or - for a stdin edge-list stream",
    )
    b.add_argument("-p", default="2,1", help="constraint vector, e.g. '2,1'")
    b.add_argument("--engine", default="auto", choices=["auto", *ENGINES])
    b.add_argument("--workers", type=int, default=4,
                   help="worker threads (default 4)")
    b.add_argument(
        "--cache", default=None, metavar="FILE",
        help="JSON cache file to warm-start from and persist to",
    )
    b.add_argument("--labels", action="store_true", help="include labels in records")
    b.add_argument(
        "--stream", action="store_true",
        help="serve the stdin stream concurrently; emit records as they "
             "complete (source must be -)",
    )
    b.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="submission-queue high-water mark (default 64)",
    )
    offload = b.add_mutually_exclusive_group()
    offload.add_argument(
        "--offload", dest="offload", action="store_true", default=None,
        help="force cold solves onto the persistent worker pool "
             "(default: auto — offload when >1 worker and >1 effective CPU)",
    )
    offload.add_argument(
        "--no-offload", dest="offload", action="store_false",
        help="force cold solves inline on the worker threads",
    )
    b.add_argument(
        "--metrics-dump", default=None, metavar="FILE",
        help="write the metrics registry as JSON after the batch "
             "(render later with `metrics --from FILE`)",
    )
    b.add_argument("--trace", default=None, metavar="FILE",
                   help="write recorded trace spans to FILE as NDJSON")
    b.set_defaults(fn=_cmd_batch)

    st = sub.add_parser(
        "stats",
        help="structural graph summary (n, m, diameter, radius, degrees, components)",
    )
    st.add_argument("graph", help="edge-list file, .col/.dimacs file, or - for stdin")
    st.add_argument("--json", action="store_true", help="emit one JSON record")
    st.set_defaults(fn=_cmd_stats)

    r = sub.add_parser("reduce", help="print the reduced TSP weight matrix")
    r.add_argument("graph")
    r.add_argument("-p", default="2,1")
    r.set_defaults(fn=_cmd_reduce)

    e = sub.add_parser("experiment", help="run reproduction experiments")
    e.add_argument("ids", nargs="*", help="e.g. E1 E5 (default: all)")
    e.set_defaults(fn=_cmd_experiment)

    g = sub.add_parser("generate", help="emit a workload graph as an edge list")
    g.add_argument("family", choices=list(WORKLOADS))
    g.add_argument("n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_generate)

    le = sub.add_parser("engines", help="list available TSP engines")
    le.set_defaults(fn=_cmd_engines)

    dy = sub.add_parser(
        "dynamic",
        help="run an edge-churn stream through the incremental delta engine",
    )
    dy.add_argument(
        "--leg", default="churn-diam2-small", metavar="LEG",
        help="named DYNAMIC leg (default: churn-diam2-small)",
    )
    dy.add_argument("--steps", type=int, default=None,
                    help="override the leg's stream length")
    dy.add_argument(
        "--verify", action="store_true",
        help="assert the repaired matrix against the reference APSP "
             "after every delta",
    )
    dy.add_argument("--json", action="store_true", help="emit one JSON record")
    dy.add_argument("--trace", default=None, metavar="FILE",
                    help="write recorded trace spans to FILE as NDJSON")
    dy.set_defaults(fn=_cmd_dynamic)

    me = sub.add_parser(
        "metrics",
        help="run a quick workload and print the metrics exposition",
    )
    me.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="Prometheus 0.0.4 text (default) or the lossless JSON dump",
    )
    me.add_argument(
        "--from", dest="source", default=None, metavar="FILE",
        help="render a registry dump written by `batch --metrics-dump` "
             "instead of running the built-in workload",
    )
    me.add_argument(
        "--no-workload", action="store_true",
        help="skip the built-in workload; render the live registry as-is "
             "(every catalogued family, zero-valued)",
    )
    me.set_defaults(fn=_cmd_metrics)

    sv = sub.add_parser(
        "serve",
        help="run the asyncio HTTP front end (POST /solve, /batch; "
             "GET /stats, /metrics, /healthz)",
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument("--port", type=int, default=8425,
                    help="bind port (0 = ephemeral)")
    sv.add_argument("--workers", type=int, default=4,
                    help="labeling-service worker threads")
    sv.add_argument("--queue-size", type=int, default=None,
                    help="submission-queue high-water mark (backpressure)")
    sv.add_argument(
        "--offload", default=None, action="store_true",
        help="force solve offload to the persistent worker pool "
             "(default: auto-detect from effective CPU count)",
    )
    sv.add_argument(
        "--no-offload", dest="offload", action="store_false",
        help="force inline solves on the worker threads",
    )
    sv.set_defaults(fn=_cmd_serve)

    lo = sub.add_parser(
        "load",
        help="open-loop load ramp against a server; prints the "
             "saturation curve (p50/p95/p99, error rate, achieved rps)",
    )
    lo.add_argument(
        "--url", default=None,
        help="target base URL (e.g. http://127.0.0.1:8425); omitted = "
             "self-serve an in-process server and load it",
    )
    lo.add_argument(
        "--rate", action="append", default=None, metavar="RPS",
        help="offered requests/second; repeat for a ramp "
             "(default: 10 25 50)",
    )
    lo.add_argument("--duration", type=float, default=2.0,
                    help="seconds to hold each rate step")
    lo.add_argument("--seed", type=int, default=0,
                    help="arrival-process and payload-pool seed")
    lo.add_argument("--workers", type=int, default=2,
                    help="self-serve mode: server worker threads")
    lo.add_argument(
        "--no-offload", dest="offload", action="store_false", default=None,
        help="self-serve mode: force inline solves",
    )
    lo.add_argument("--queue-size", type=int, default=None,
                    help="self-serve mode: submission-queue high-water mark")
    lo.add_argument(
        "--cache-capacity", type=int, default=None,
        help="self-serve mode: result-cache capacity (small values keep "
             "the traffic cold, the overload-smoke regime)",
    )
    lo.add_argument(
        "--tier", choices=["exact", "approx", "auto"], default="auto",
        help="QoS tier requested on every payload (default: auto — the "
             "server's router decides per request)",
    )
    lo.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="latency budget stamped on every payload; the server drops "
             "(504) work whose budget expired before solving",
    )
    lo.add_argument(
        "--payload-count", type=int, default=4, metavar="N",
        help="distinct instances in the payload pool (default: 4)",
    )
    lo.add_argument("--json", action="store_true",
                    help="emit the full report as one JSON document")
    lo.add_argument(
        "--fail-on-errors", action="store_true",
        help="exit 1 on any failed or infeasible request (the CI smoke "
             "contract); intentional drops (429/504) never fail it",
    )
    lo.add_argument(
        "--expect-approx", action="store_true",
        help="exit 1 unless at least one response came from the approx "
             "tier (the overload-smoke degradation check)",
    )
    lo.add_argument(
        "--dump-metrics", default=None, metavar="FILE",
        help="after the ramp, scrape the target's /metrics into FILE",
    )
    lo.set_defaults(fn=_cmd_load)

    pf = sub.add_parser(
        "perf",
        help="perf trajectory: record BENCH_*.json and gate against the baseline",
    )
    pfsub = pf.add_subparsers(dest="perf_command", required=True)

    pr = pfsub.add_parser("run", help="run the perf suite; write BENCH_<k>.json")
    pr.add_argument("--quick", action="store_true",
                    help="small sizes, one matrix leg (the CI perf-gate shape)")
    pr.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per scenario (default: 3 quick / 5 full)")
    pr.add_argument("--leg", action="append", metavar="LEG",
                    help="matrix leg(s) to sweep (repeatable; default per mode)")
    pr.add_argument("--dir", default=".", help="directory for BENCH_<k>.json")
    pr.add_argument("--out", default=None, metavar="FILE",
                    help="explicit output path (overrides --dir numbering)")
    pr.add_argument("--json", action="store_true",
                    help="print the full trajectory JSON to stdout")
    pr.set_defaults(fn=_cmd_perf_run)

    pc = pfsub.add_parser(
        "compare", help="compare a trajectory against the committed baseline"
    )
    pc.add_argument("--bench", default=None, metavar="FILE",
                    help="trajectory to judge (default: latest BENCH_*.json in --dir)")
    pc.add_argument("--dir", default=".", help="where to look for BENCH_*.json")
    pc.add_argument("--baseline", default="benchmarks/baseline.json",
                    help="baseline file (default: benchmarks/baseline.json)")
    pc.add_argument("--json", action="store_true", help="emit the verdicts as JSON")
    pc.set_defaults(fn=_cmd_perf_compare)

    pb = pfsub.add_parser(
        "baseline", help="promote a trajectory to the committed baseline"
    )
    pb.add_argument("--bench", default=None, metavar="FILE",
                    help="trajectory to promote (default: latest BENCH_*.json in --dir)")
    pb.add_argument("--dir", default=".", help="where to look for BENCH_*.json")
    pb.add_argument("--out", default="benchmarks/baseline.json",
                    help="baseline file to write (default: benchmarks/baseline.json)")
    pb.set_defaults(fn=_cmd_perf_baseline)
    return ap


def render_reference(parser: argparse.ArgumentParser | None = None) -> str:
    """Render the CLI reference as Markdown from the live argparse tree.

    ``docs/cli.md`` is this function's committed output (``make docs``
    regenerates it); ``tests/test_docs.py`` re-renders and fails on drift,
    so the written reference can never fall behind the actual parser.
    Help text is formatted at a pinned width (via ``COLUMNS``) so the
    output does not depend on the generating terminal.
    """
    import os

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        parser = parser or build_parser()
        lines = [
            f"# `{parser.prog}` CLI reference",
            "",
            "<!-- Generated by `make docs` (repro.cli.render_reference). "
            "Do not edit by hand. -->",
            "",
            str(parser.description),
            "",
            "Also invocable as `python -m repro`.  Expected operational "
            "failures (missing files, unknown legs, invalid trajectories) "
            "exit with code 2 and a one-line `error: ...` message on "
            "stderr.",
            "",
        ]

        def walk(p: argparse.ArgumentParser, parts: list[str]) -> None:
            """Recurse over subparsers, appending one section per subcommand."""
            for action in p._actions:
                if not isinstance(action, argparse._SubParsersAction):
                    continue
                for name, sub in action.choices.items():
                    lines.extend(
                        (
                            f"## `{' '.join(parts + [name])}`",
                            "",
                            "```text",
                            sub.format_help().rstrip(),
                            "```",
                            "",
                        )
                    )
                    walk(sub, parts + [name])

        walk(parser, [parser.prog])
        return "\n".join(lines).rstrip() + "\n"
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected operational failures (:class:`ReproError`: missing trajectory
    or baseline files, unknown legs, schema violations) are reported as a
    one-line message on stderr with exit code 2 — a `perf compare` pointed
    at a directory with no ``BENCH_*.json`` must fail clearly, not with a
    traceback.
    """
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path is None:
            return args.fn(args)
        # --trace: run under a root span, then drain everything recorded
        # (including offload spans shipped back by the worker pool) to the
        # requested NDJSON file.
        from repro.obs import TRACER, span

        with span(f"cli.{args.command}"):
            code = args.fn(args)
        path = TRACER.dump_ndjson(trace_path)
        print(f"trace: {path}", file=sys.stderr)
        return code
    except ReproError as exc:
        # same vocabulary as the server's JSON error payloads: the stable
        # machine-readable code from the errors.ERROR_TABLE contract
        print(f"error: [{error_code(exc)}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""The perf suite: scenario runners behind ``repro-label perf run``.

Each scenario re-measures one perf claim the repo has already paid for —
the vectorized-APSP win and the one-APSP-per-solve invariant (E12), the
service cache's duplicate-stream speedup (E11), the dynamic engine's
churn-stream win (E13), the concurrent front end's serving throughput
over the SERVICE hot/cold streams (E14), the Theorem-2 reduction
and end-to-end engine cost over the named workload matrix — and returns a
:class:`~repro.perf.schema.PerfRecord` with per-repeat wall times plus the
scenario's counters (``apsp_run_count``, cache-hit stats, spans/ratios).
``run_perf_suite`` strings the records into a schema-versioned
:class:`~repro.perf.schema.Trajectory` ready to be written as
``BENCH_<k>.json`` and gated by :mod:`repro.perf.baseline`.

Every scenario copies its graphs before timing: ``GraphAnalysis`` memoizes
on the instance, so a shared fixture would make the second repeat free and
the median meaningless.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.graphs.traversal import (
    all_pairs_distances,
    all_pairs_distances_reference,
    apsp_run_count,
)
from repro.dynamic import full_apsp_refresh_count
from repro.harness.runner import run_engines
from repro.harness.workloads import (
    DYNAMIC,
    MATRIX,
    SERVICE,
    churn_maintain,
    churn_recompute,
    churn_stream,
    matrix_sweep,
    service_stream,
)
from repro.labeling.spec import L21
from repro.perf.environment import environment_provenance
from repro.perf.schema import PerfRecord, Trajectory
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.service.protocol import SolveRequest
from repro.service.server import ConcurrentLabelingService

#: Matrix legs a ``--quick`` run sweeps, per the CI perf-gate: one
#: reduction leg plus the n=512 blocked-oracle smoke.
QUICK_LEGS = ("diam2-small", "large-512")


def _timed_repeats(fn, repeats: int, min_seconds: float = 0.0) -> tuple[float, ...]:
    """Per-call wall times over ``repeats``, batching tiny kernels.

    Sub-millisecond kernels timed one call at a time are dominated by
    scheduler noise; when ``min_seconds`` is set, a warm-up call sizes an
    iteration batch so each repeat measures at least that much work, and
    the recorded value is the per-call average over the batch.  The
    warm-up also keeps first-call effects (allocator, caches) out of the
    measured repeats.
    """
    t0 = time.perf_counter()
    fn()
    t_once = time.perf_counter() - t0
    iters = 1
    if min_seconds > 0:
        iters = max(1, math.ceil(min_seconds / max(t_once, 1e-9)))
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        walls.append((time.perf_counter() - t0) / iters)
    return tuple(walls)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def apsp_oracle_scenario(quick: bool, repeats: int) -> PerfRecord:
    """E12's two claims as trajectory metrics.

    Times the vectorized APSP kernel; records its speedup over the
    per-source BFS reference and — the invariant counter — how many kernel
    runs one cold end-to-end service solve costs (``apsp_run_count``,
    expected 1).
    """
    n = 60 if quick else 100
    g = gen.random_graph_with_diameter_at_most(n, 2, seed=0)
    walls = _timed_repeats(lambda: all_pairs_distances(g), repeats, min_seconds=0.05)
    t_ref = min(
        _timed_repeats(lambda: all_pairs_distances_reference(g), max(2, repeats))
    )

    solve_n = 32 if quick else 60
    solve_g = gen.random_graph_with_diameter_at_most(
        solve_n, 2, seed=1
    ).copy()  # cold oracle
    with ConcurrentLabelingService(workers=1) as svc:
        before = apsp_run_count()
        req = SolveRequest(solve_g, L21, engine="lk", tier="exact")
        svc.submit(req).result()
        runs_per_solve = apsp_run_count() - before

    return PerfRecord(
        # size-suffixed: quick and full runs measure different n and must
        # never be compared against each other's baseline entry
        experiment=f"apsp_oracle:n={n}",
        wall_seconds=walls,
        metrics={
            "n": n,
            "solve_n": solve_n,  # the invariant counter's graph, not the timed one
            "apsp_speedup": round(t_ref / min(walls), 2) if min(walls) > 0 else 0.0,
            "apsp_run_count": runs_per_solve,
        },
    )


def service_cache_scenario(quick: bool, repeats: int) -> PerfRecord:
    """E11's duplicate-stream claim: a 90%-dup stream through the service.

    Each repeat rebuilds the service cold (fresh cache, fresh graph copies)
    and times one batch, submitted one request at a time and waited on, so
    every duplicate finds its original cached; metrics carry the cache
    counters of the last repeat plus the speedup over per-request
    from-scratch solving.
    """
    n = 20 if quick else 28
    total = 10 if quick else 16
    unique = max(1, round(total * 0.1))
    engine = "lk"

    def make_stream() -> list[SolveRequest]:
        """Fresh 90%-dup request stream (relabeled copies of few bases)."""
        bases = [
            gen.random_graph_with_diameter_at_most(n, 2, seed=17 * s)
            for s in range(unique)
        ]
        return [
            SolveRequest(
                relabel(bases[i % unique], np.random.default_rng(1000 + i)
                        .permutation(n).tolist()),
                L21,
                engine=engine,
                tier="exact",
            )
            for i in range(total)
        ]

    svc: ConcurrentLabelingService | None = None

    def run_batch() -> None:
        """One timed repeat: cold one-worker service, submit-and-wait."""
        nonlocal svc
        with ConcurrentLabelingService(workers=1) as svc:
            for req in make_stream():
                svc.submit(req).result()

    walls = _timed_repeats(run_batch, repeats)

    # no-cache baseline: what every request would cost solved from scratch.
    # Regenerates its stream inside the timed region exactly like run_batch,
    # and gets the same warm-up + median-of-repeats treatment so the
    # speedup metric isn't one cold sample against a warmed median.
    from repro.reduction.solver import solve_labeling

    def run_nocache() -> None:
        """Baseline: every stream request solved from scratch."""
        for req in make_stream():
            solve_labeling(req.graph, req.spec, engine=engine)

    t_nocache = statistics.median(_timed_repeats(run_nocache, repeats))

    stats = svc.cache.stats
    median = statistics.median(walls)
    return PerfRecord(
        experiment=f"service_cache:n={n}",
        wall_seconds=walls,
        metrics={
            "n": n,
            "requests": total,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "cache_hit_rate": round(stats.hit_rate, 4),
            "nocache_speedup": round(t_nocache / median, 2) if median > 0 else 0.0,
        },
    )


def reduction_leg_scenario(leg_name: str, repeats: int) -> PerfRecord:
    """Theorem-2 reduction wall time over one matrix leg (E3's kernel)."""
    from repro.labeling.spec import LpSpec

    workloads = matrix_sweep(leg_name)
    spec = LpSpec(MATRIX[leg_name].spec)

    def run_leg() -> None:
        """Reduce every workload of the leg once (fresh graph copies)."""
        for wl in workloads:
            reduce_to_path_tsp(wl.graph.copy(), spec)

    walls = _timed_repeats(run_leg, repeats, min_seconds=0.05)
    return PerfRecord(
        experiment=f"reduce:{leg_name}",
        wall_seconds=walls,
        metrics={
            "graphs": len(workloads),
            "total_n": sum(wl.n for wl in workloads),
            "total_m": sum(wl.graph.m for wl in workloads),
        },
    )


def oracle_scaling_scenario(leg_name: str, repeats: int) -> PerfRecord:
    """The blocked-oracle leg: end-to-end labeling at sizes with no matrix.

    One timed pass over a ``reduction=False`` matrix leg: cold graph copy,
    streamed eccentricities (one full row-block sweep through the
    :class:`~repro.graphs.analysis.LazyDistanceOracle`), then a greedy
    L(2,1) labeling via per-vertex requirement rows and a blocked
    feasibility check.  The dense int64 matrix is never materialized.

    Metrics carry the two gated signals — ``oracle_peak_bytes`` (the
    resident row-block high-water mark, which the baseline comparator
    never allows to rise at fixed n) and ``row_block_hit_rate`` (which
    must not fall) — plus ``dense_fraction``, the peak as a fraction of
    the ``n^2 * 8`` dense-int64 footprint the oracle replaced (the
    acceptance bound is <= 0.25: full int16 residency).
    """
    from repro.graphs.analysis import get_analysis
    from repro.labeling.greedy import greedy_labeling
    from repro.labeling.spec import LpSpec

    leg = MATRIX[leg_name]
    wl = matrix_sweep(leg_name)[0]
    spec = LpSpec(leg.spec)

    stats: dict = {}

    def run_pass() -> None:
        """One cold pass: eccentricities + greedy labeling + verification."""
        nonlocal stats
        g = wl.graph.copy()  # cold oracle every repeat
        analysis = get_analysis(g)
        analysis.eccentricities  # noqa: B018 — streamed block sweep
        labeling = greedy_labeling(g, spec)
        assert labeling.is_feasible(g, spec)
        stats = analysis.oracle_stats()

    walls = _timed_repeats(run_pass, repeats)
    n = wl.n
    return PerfRecord(
        experiment=f"oracle_scaling:n={n}",
        wall_seconds=walls,
        metrics={
            "n": n,
            "m": wl.graph.m,
            "oracle_peak_bytes": int(stats["peak_bytes"]),
            "row_block_hit_rate": round(stats["hit_rate"], 4),
            "oracle_evictions": int(stats["evictions"]),
            "resident_blocks": int(stats["resident_blocks"]),
            "dense_fraction": round(stats["peak_bytes"] / (n * n * 8), 4),
        },
    )


def engine_sweep_scenario(repeats: int) -> PerfRecord:
    """E7's ladder: full pipeline per engine over small diam-2 workloads."""
    engines = ["lk", "two_opt", "nearest_neighbor"]

    def run_sweep() -> list:
        # fresh graph copies: run_engines prewarms each workload's analysis
        """One full engine-ladder pass over fresh workload copies."""
        fresh = [
            dataclasses.replace(w, graph=w.graph.copy())
            for w in matrix_sweep("diam2-small")
        ]
        return run_engines(fresh, L21, engines)

    runs: list = []

    def timed() -> None:
        """Timed wrapper keeping the last sweep's runs for the metrics."""
        nonlocal runs
        runs = run_sweep()

    walls = _timed_repeats(timed, repeats)
    lk_ratios = [r.ratio for r in runs if r.engine == "lk"]
    return PerfRecord(
        experiment="engine_sweep",
        wall_seconds=walls,
        metrics={
            "engines": len(engines),
            "runs": len(runs),
            "lk_mean_ratio": round(float(np.mean(lk_ratios)), 4),
        },
    )


def dynamic_churn_scenario(quick: bool, repeats: int) -> PerfRecord:
    """The DYNAMIC leg: maintain distances through an edge-churn stream.

    Times the delta engine (insert relaxation / affected-row recompute,
    see :mod:`repro.dynamic`) over the leg's deterministic mutation
    stream, against the pre-dynamic cost model — one full APSP per
    mutation.  Metrics carry the measured speedup and the gated
    ``full_apsp_refresh_count``: how many times one stream pass abandoned
    incremental repair, which the baseline comparator never allows to
    rise.
    """
    leg = DYNAMIC["churn-diam2-small" if quick else "churn-diam2-dense"]
    base, ops = churn_stream(leg)

    walls = _timed_repeats(
        lambda: churn_maintain(base, ops), repeats, min_seconds=0.02
    )
    t_full = statistics.median(
        _timed_repeats(lambda: churn_recompute(base, ops), repeats,
                       min_seconds=0.02)
    )
    before = full_apsp_refresh_count()
    churn_maintain(base, ops)
    fallbacks = full_apsp_refresh_count() - before

    median = statistics.median(walls)
    return PerfRecord(
        experiment=f"dynamic_churn:{leg.name}",
        wall_seconds=walls,
        metrics={
            "n": leg.n,
            "steps": len(ops),
            "recompute_speedup": round(t_full / median, 2) if median > 0 else 0.0,
            "full_apsp_refresh_count": fallbacks,
        },
    )


def dynamic_churn_large_scenario(repeats: int) -> PerfRecord:
    """Large-graph churn: the delta engine repairing an int16 matrix.

    Same protocol as :func:`dynamic_churn_scenario` but over the
    ``churn-sparse-large`` leg (n = 512), where the pre-dynamic cost model
    — one full APSP per mutation — would dominate the whole suite if
    actually swept.  The speedup denominator is therefore *estimated* from
    one measured cold blocked rebuild times the stream length (reported as
    ``recompute_speedup_est``, not gated); the gated metric stays the
    measured ``full_apsp_refresh_count``.
    """
    from repro.graphs.analysis import get_analysis

    leg = DYNAMIC["churn-sparse-large"]
    base, ops = churn_stream(leg)

    walls = _timed_repeats(lambda: churn_maintain(base, ops), repeats)
    t_rebuild = statistics.median(
        _timed_repeats(lambda: get_analysis(base.copy()).distances, repeats)
    )

    before = full_apsp_refresh_count()
    churn_maintain(base, ops)
    fallbacks = full_apsp_refresh_count() - before

    median = statistics.median(walls)
    est_full = t_rebuild * (len(ops) + 1)
    return PerfRecord(
        experiment=f"dynamic_churn:{leg.name}",
        wall_seconds=walls,
        metrics={
            "n": leg.n,
            "steps": len(ops),
            "recompute_speedup_est": round(est_full / median, 2)
            if median > 0 else 0.0,
            "full_apsp_refresh_count": fallbacks,
        },
    )


def concurrent_service_scenario(quick: bool, repeats: int) -> PerfRecord:
    """The SERVICE leg: requests/sec through the concurrent front end.

    Serves one mixed hot/cold stream (``harness.workloads.SERVICE``)
    through a fresh :class:`ConcurrentLabelingService` at 1, 4 and (full
    runs) 8 workers, submitting from concurrent client threads so the
    result cache's lock is acquired concurrently.  ``wall_seconds`` times the
    4-worker configuration (the serving default); metrics carry the
    per-width requests/sec, the 4-vs-1 scaling ratio, the deterministic
    ``cache_hit_rate`` (hits + coalesced over submissions — a function of
    the stream, not of scheduling), and the gated ``shard_lock_wait``
    contention rate, which the baseline comparator never allows to rise.

    Both of those gated values are read from the served instance after
    the last 4-worker serve: the hit rate from its ``server.stats`` and
    the contention rate from its ``server.cache``.

    The gated ``workers_speedup_4`` ratio is measured separately, on the
    ``cold-scaling`` leg (every request a distinct engine run — nothing
    for the cache or in-flight dedup to absorb), 4 workers vs 1.  With
    more than one effective CPU the 4-worker server runs cold solves on
    its persistent worker pool, so the ratio measures
    exactly what the tentpole claims: real multi-core scaling past the
    GIL.  The ``("floor", 2.0)`` gate applies only where it is physically
    measurable — trajectories also carry ``effective_cpus`` and the
    comparator skips the floor below 4 — so a pinned single-core run
    reports its honest ~1.0 without failing.
    """
    from concurrent.futures import ThreadPoolExecutor, wait

    from repro.parallel.pool import effective_cpu_count
    from repro.service.server import ConcurrentLabelingService

    leg = SERVICE["mixed-small" if quick else "mixed-dense"]
    cold = SERVICE["cold-scaling"]
    widths = (1, 4) if quick else (1, 4, 8)
    clients = 4

    def serve(
        workers: int, leg=leg
    ) -> tuple[float, ConcurrentLabelingService]:
        """Serve one fresh stream at ``workers``; returns (wall, server)."""
        stream = service_stream(leg)  # fresh graphs: cold oracles, cold cache
        server = ConcurrentLabelingService(workers=workers)
        server.prewarm()  # pool start-up is not serving throughput
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = list(pool.map(server.submit, stream))
            wait(futures)
        wall = time.perf_counter() - t0
        server.shutdown(wait=True)
        return wall, server

    rps: dict[int, list[float]] = {w: [] for w in widths}
    walls = []
    hit_rate = 0.0
    shard_lock_wait = 0.0
    serve(widths[-1])  # warm-up (allocator, thread machinery)
    for _ in range(repeats):
        for w in widths:
            wall, server = serve(w)
            rps[w].append(leg.requests / wall if wall > 0 else 0.0)
            if w == 4:
                walls.append(wall)
                hit_rate = server.stats.hit_rate
                shard_lock_wait = server.cache.contention_rate

    # Scaling measurement: the cold-only leg, 4 workers (pooled on
    # multi-core hosts) against 1 (inline).  Kept outside the mixed
    # loop so cache behaviour and scaling never contaminate each other.
    cold_rps: dict[int, list[float]] = {1: [], 4: []}
    for _ in range(repeats):
        for w in (1, 4):
            wall, _ = serve(w, cold)
            cold_rps[w].append(cold.requests / wall if wall > 0 else 0.0)
    cold_median = {w: statistics.median(r) for w, r in cold_rps.items()}

    median_rps = {w: statistics.median(r) for w, r in rps.items()}
    metrics = {
        "requests": leg.requests,
        "unique": leg.unique,
        "effective_cpus": effective_cpu_count(),
        "cache_hit_rate": round(hit_rate, 4),
        "shard_lock_wait": round(shard_lock_wait, 4),
        "workers_speedup_4": round(cold_median[4] / cold_median[1], 2)
        if cold_median[1] > 0 else 0.0,
        "cold_rps_w1": round(cold_median[1], 2),
        "cold_rps_w4": round(cold_median[4], 2),
    }
    for w in widths:
        metrics[f"rps_w{w}"] = round(median_rps[w], 2)
    return PerfRecord(
        experiment=f"concurrent_service:{leg.name}",
        wall_seconds=tuple(walls),
        metrics=metrics,
    )


def qos_overload_scenario(quick: bool, repeats: int) -> PerfRecord:
    """The degraded-tier leg: certified approx quality plus a live overload.

    Two measurements share one payload pool (the loadgen's deterministic
    diam-2 family, ``seed=7``):

    - **Certified quality (gated).**  Every pool instance is solved by the
      one-pass simplify/select tier directly; ``approx_ratio`` records the
      *worst* certified ``span / lower_bound`` over the pool.  The solver
      is deterministic for a fixed pool, so the number is exact, and the
      baseline comparator holds it under the 1.5 absolute ceiling and
      never lets it worsen (``("ceiling", 1.5)`` in ``METRIC_GATES``).
      ``wall_seconds`` times this sweep — the degraded tier's cost is a
      perf signal too.
    - **Live overload (recorded, not gated).**  One open-loop step at
      well past single-worker exact capacity, against a 1-worker inline
      server with a capacity-1 cache (all-cold traffic) and ``auto``-tier
      payloads carrying a real deadline.  The recorded metrics are the
      acceptance criterion's raw material: the served-in-deadline rate
      (ok over non-dropped sends), the approx share of answers, and the
      drop counts.  Scheduling noise makes these unfit for a hard gate —
      the feasibility invariant is asserted instead: every 200 the ramp
      verified must be feasible, overload or not.
    """
    from repro.approx import approx_labeling
    from repro.harness.loadgen import default_payload_instances, run_load
    from repro.net.server import BackgroundServer
    from repro.service.server import ConcurrentLabelingService

    pool = default_payload_instances(
        count=10, seed=7, tier="auto", deadline_ms=600
    )

    ratios: list[float] = []
    gaps: list[int] = []

    def certify() -> None:
        """One certified sweep: approx-solve every pool instance cold."""
        nonlocal ratios, gaps
        ratios, gaps = [], []
        for inst in pool:
            g = inst.graph.copy()  # cold analysis every repeat
            res = approx_labeling(g, inst.spec)
            assert res.labeling.is_feasible(g, inst.spec)
            ratios.append(res.ratio)
            gaps.append(res.gap)

    walls = _timed_repeats(certify, repeats, min_seconds=0.02)

    rate = 150.0 if quick else 200.0
    duration = 0.75 if quick else 1.5
    server = BackgroundServer(
        ConcurrentLabelingService(workers=1, queue_size=8, cache_capacity=1)
    )
    try:
        report = run_load(
            server.url, rates=[rate], duration=duration, seed=7,
            payloads=pool,
        )
    finally:
        server.shutdown(drain=True)
    step = report.steps[0]
    if step.infeasible:
        raise ReproError(
            f"qos_overload: {step.infeasible} infeasible responses under "
            "overload — the degraded tier broke the feasibility invariant"
        )
    in_deadline = step.sent - step.dropped
    ok = step.completed  # 200s that verified feasible
    return PerfRecord(
        experiment=f"qos_overload:{'quick' if quick else 'full'}",
        wall_seconds=walls,
        metrics={
            "pool": len(pool),
            "approx_ratio": round(max(ratios), 4),
            "approx_gap_max": max(gaps),
            "overload_rps": rate,
            "overload_sent": step.sent,
            "overload_ok": ok,
            "overload_dropped": step.dropped,
            "overload_errors": step.errors,
            "overload_approx": step.approx,
            "approx_share": round(step.approx / ok, 4) if ok else 0.0,
            "served_in_deadline_rate": round(ok / in_deadline, 4)
            if in_deadline else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------
def run_perf_suite(
    quick: bool = False,
    repeats: int | None = None,
    legs: list[str] | None = None,
) -> Trajectory:
    """Run every scenario and return the stamped trajectory.

    ``quick`` shrinks sizes, drops the engine sweep and the large churn
    leg, and defaults to :data:`QUICK_LEGS` — the shape the CI perf-gate
    runs.  ``legs`` overrides which matrix legs are swept; each leg is
    routed by its ``reduction`` flag to either the Theorem-2 reduction
    scenario or the blocked-oracle scaling scenario.
    """
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    if legs is None:
        legs = list(QUICK_LEGS) if quick else list(MATRIX)
    unknown = [leg for leg in legs if leg not in MATRIX]
    if unknown:
        raise ReproError(
            f"unknown matrix legs {unknown}; known: {', '.join(MATRIX)}"
        )

    records = [
        apsp_oracle_scenario(quick, repeats),
        service_cache_scenario(quick, repeats),
        dynamic_churn_scenario(quick, repeats),
        concurrent_service_scenario(quick, repeats),
        qos_overload_scenario(quick, repeats),
    ]
    records.extend(
        reduction_leg_scenario(leg, repeats)
        for leg in legs if MATRIX[leg].reduction
    )
    records.extend(
        oracle_scaling_scenario(leg, repeats)
        for leg in legs if not MATRIX[leg].reduction
    )
    if not quick:
        records.append(dynamic_churn_large_scenario(repeats))
        records.append(engine_sweep_scenario(repeats))

    return Trajectory(
        environment=environment_provenance(),
        records=records,
        kind="quick" if quick else "full",
    )

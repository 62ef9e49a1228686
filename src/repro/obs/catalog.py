"""The metric-name catalogue: every registry metric, typed and documented.

One dict is the single source of truth for the observability surface:
:data:`CATALOG` maps each metric name to its type and help string.  The
default process-wide registry (:data:`repro.obs.metrics.REGISTRY`)
pre-registers every catalogued metric at import time, so an exposition
always lists the full surface (zero-valued until exercised) and a scrape
target's schema never depends on which code paths have run.

Two gates keep the catalogue honest:

- ``tools/metrics_lint.py --scan`` fails when a ``repro_*`` metric-name
  literal appears in ``src/repro`` but not here (an undocumented metric);
- ``make metrics-smoke`` runs a workload and fails when the rendered
  exposition is missing any catalogued name (a documented-but-dead metric).

``docs/observability.md`` renders this catalogue as the metric reference.
"""

from __future__ import annotations

#: Metric types the registry understands.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: name -> (type, help).  Label dimensions are noted in the help text;
#: Prometheus exposition derives its ``# HELP`` / ``# TYPE`` lines here.
CATALOG: dict[str, tuple[str, str]] = {
    # ---- kernels ------------------------------------------------------
    "repro_apsp_runs_total": (
        COUNTER,
        "Full APSP kernel runs in this process (the one-APSP-per-graph-"
        "version invariant's counter).",
    ),
    "repro_full_apsp_refresh_total": (
        COUNTER,
        "Incremental delta repairs abandoned for a full APSP recompute "
        "(threshold fallback, trimmed mutation window, or replay desync).",
    ),
    "repro_lk_kicks_total": (
        COUNTER,
        "Double-bridge kicks the LK engine actually ran in this process "
        "(the kick loop stops once the incumbent meets the MST bound) — "
        "the perf-gated lk_kicks signal.",
    ),
    # ---- blocked distance oracle ---------------------------------------
    "repro_oracle_block_hits_total": (
        COUNTER,
        "Row-block requests answered from the lazy distance oracle's "
        "resident LRU (no frontier expansion spent).",
    ),
    "repro_oracle_block_misses_total": (
        COUNTER,
        "Row-block requests that had to materialize the block by "
        "multi-source frontier expansion over the CSR adjacency.",
    ),
    "repro_oracle_block_evictions_total": (
        COUNTER,
        "Row blocks evicted from a lazy distance oracle to hold the "
        "configured byte budget.",
    ),
    "repro_oracle_peak_bytes": (
        GAUGE,
        "High-water mark of resident row-block bytes in the most recently "
        "active lazy distance oracle — the perf-gated oracle_peak_bytes "
        "signal.",
    ),
    "repro_oracle_promotions_total": (
        COUNTER,
        "Row-block materializations whose BFS level overflowed the block "
        "dtype and promoted to the next wider integer type.",
    ),
    # ---- result cache ---------------------------------------------------
    "repro_cache_hits_total": (
        COUNTER,
        "Result-cache lookups answered from a warm entry.",
    ),
    "repro_cache_misses_total": (
        COUNTER,
        "Result-cache lookups that found nothing.",
    ),
    "repro_cache_puts_total": (
        COUNTER,
        "Entries inserted (or refreshed) into the result cache.",
    ),
    "repro_cache_evictions_total": (
        COUNTER,
        "LRU evictions from the result cache.",
    ),
    "repro_shard_lock_contentions_total": (
        GAUGE,
        "Acquisitions of the result cache's lock that found it held, "
        "for the most recently built cache.",
    ),
    "repro_shard_contention_rate": (
        GAUGE,
        "Contended acquisitions of the result cache's lock per "
        "acquisition (in [0, 1]) for the most recently built cache — the "
        "perf-gated shard_lock_wait signal.",
    ),
    # ---- concurrent server --------------------------------------------
    "repro_server_submitted_total": (
        COUNTER,
        "Requests submitted to a ConcurrentLabelingService.",
    ),
    "repro_server_completed_total": (
        COUNTER,
        "Accepted requests whose public future resolved (result or error).",
    ),
    "repro_server_hits_total": (
        COUNTER,
        "Server submissions answered from the warm cache (submit fast "
        "path or worker re-probe).",
    ),
    "repro_server_coalesced_total": (
        COUNTER,
        "Server submissions that attached to an identical in-flight solve.",
    ),
    "repro_server_solved_total": (
        COUNTER,
        "Server submissions that ran an engine solve.",
    ),
    "repro_server_rejected_total": (
        COUNTER,
        "Server submissions rejected by backpressure (queue at high water).",
    ),
    "repro_server_cancelled_total": (
        COUNTER,
        "Queued server submissions cancelled by a non-draining shutdown.",
    ),
    "repro_server_errors_total": (
        COUNTER,
        "Server solves that raised; the error propagates to every waiter.",
    ),
    "repro_queue_depth": (
        GAUGE,
        "Requests currently in the submission queue of the most recently "
        "built ConcurrentLabelingService.",
    ),
    "repro_queue_high_water": (
        GAUGE,
        "Highest submission-queue depth observed at submit time.",
    ),
    "repro_worker_busy_seconds": (
        GAUGE,
        "Cumulative seconds each server worker spent processing jobs "
        "(label: worker).  busy/(busy+idle) is the worker's utilization — "
        "the direct measurement of the GIL ceiling on thread scaling.",
    ),
    "repro_worker_idle_seconds": (
        GAUGE,
        "Cumulative seconds each server worker spent waiting on the "
        "queue (label: worker).",
    ),
    # ---- persistent worker pool ----------------------------------------
    "repro_pool_worker_restarts_total": (
        COUNTER,
        "Pool worker processes that died and were respawned; a call "
        "in flight on the dead worker failed with WorkerCrashedError.",
    ),
    "repro_pool_dispatch_total": (
        COUNTER,
        "Calls dispatched to persistent pool workers, by worker index "
        "(label: worker).  Each call takes the longest-idle worker.",
    ),
    "repro_pool_route_imbalance": (
        GAUGE,
        "Max-over-mean dispatch count across the most recently built "
        "pool's workers (1.0 = perfectly balanced dispatch).",
    ),
    # ---- QoS router + approx tier --------------------------------------
    "repro_router_requests_total": (
        COUNTER,
        "Requests routed by the QoS router, by the tier it picked "
        "(label: tier = exact | approx).",
    ),
    "repro_router_degraded_total": (
        COUNTER,
        "Auto-tier requests the QoS router downgraded to the approx tier "
        "(queue pressure, instance size, or a tight deadline).",
    ),
    "repro_router_expired_total": (
        COUNTER,
        "Requests dropped because their deadline expired before a solve "
        "started (intentional shedding — counted, never errored).",
    ),
    "repro_approx_solves_total": (
        COUNTER,
        "One-pass simplify/select approximate solves run by the degraded "
        "tier.",
    ),
    "repro_approx_gap": (
        GAUGE,
        "Certified optimality gap (span - lower_bound) of the most recent "
        "approximate solve.",
    ),
    "repro_approx_ratio": (
        GAUGE,
        "Certified approximation ratio (span / lower_bound) of the most "
        "recent approximate solve — the perf-gated approx_ratio signal's "
        "live mirror.",
    ),
    # ---- request latency ----------------------------------------------
    "repro_request_seconds": (
        HISTOGRAM,
        "End-to-end request latency: submit() entry to public-future "
        "resolution, including cache fast-path answers.",
    ),
    "repro_request_queue_seconds": (
        HISTOGRAM,
        "Queue wait: job enqueue to worker pickup.",
    ),
    "repro_solve_seconds": (
        HISTOGRAM,
        "Engine solve wall time for cold requests (inline or offloaded).",
    ),
    "repro_tier_request_seconds": (
        HISTOGRAM,
        "Worker processing time for cold requests, by the quality tier "
        "that answered (label: tier = exact | approx).",
    ),
    # ---- network front end --------------------------------------------
    "repro_http_requests_total": (
        COUNTER,
        "HTTP requests served by the network front end, by endpoint and "
        "status (labels: endpoint, status).",
    ),
    "repro_http_request_seconds": (
        HISTOGRAM,
        "Wire-level request latency: first byte of the request line to "
        "response flushed, including queueing inside the labeling service.",
    ),
    "repro_http_open_connections": (
        GAUGE,
        "Currently open client connections on the network front end.",
    ),
}


def catalog_entry(name: str) -> tuple[str, str]:
    """The ``(type, help)`` catalogue row for ``name``.

    Raises :class:`~repro.errors.ReproError` for uncatalogued names — a
    caller holding one has either a typo or an undocumented metric.
    """
    try:
        return CATALOG[name]
    except KeyError:
        from repro.errors import ReproError

        raise ReproError(f"uncatalogued metric {name!r}") from None

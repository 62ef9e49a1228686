"""Serving benchmark: ``repro-label serve`` driven over real sockets.

Run from the root of a checkout::

    python3 servebench/run.py --workload warm-hits --seed 1 --seconds 50 --trace 0

The benchmark generates every payload from ``--seed``, starts the server
from the checkout's ``src`` tree in its own process with ``--workers
$(nproc)``, drives it from one asyncio thread, checks every answer after the
timed window, and prints one JSON line last on stdout::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same window runs, then each layer's public functions are replayed
serially on the workload's own inputs and the per-layer metrics are printed
instead.  A human-readable report goes to stderr.  See README.md here for
the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import client  # noqa: E402  (sibling modules of this script)
from graphs import FAMILY_NAMES, Instance, check_answer, make_instance  # noqa: E402
from scrape import Snapshot, Window  # noqa: E402
from serve import Server, cpu_count, shm_segments  # noqa: E402

#: Base graphs primed into the cache: family i % 5 at size i % 3.  They are
#: drawn from a fixed seed, not from ``--seed``: warm latency quantiles hinge
#: on the few slowest bases to canonicalize, so redrawing them per run would
#: swamp every warm figure with input variance.  ``--seed`` still draws the
#: relabelings, the arrival times and every cold graph.
N_BASES = 24
BASE_SEED = 20230515
WARM_SIZES = (32, 64, 96)
#: Cold graphs cycle through every family x size cell in turn; sizes are
#: small enough that one window holds the 100+ samples a p90 needs.
COLD_SIZES = (32, 48, 64)
#: Warm requests name a cheap engine so priming stays a small part of
#: set-up; a cache hit never runs the engine.
WARM_ENGINE = "greedy_edge"
COLD_ENGINE = "lk"
#: Distinct relabelings per run; streams cycle through them.
WARM_POOL = 600
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Each stream's run is cut into this many slices by send time; timings
#: come from the ``KEEP`` fastest (see ``faster_slices``).
SLICES = 6
KEEP = 4
#: Open-loop warm-read rate (requests/second) of each workload.
WARM_RATE = {"warm-hits": 20.0, "cold-solve": 12.0}
#: Answers averaged into ``work_span_ratio``: a fixed prefix of the request
#: list, so the figure is deterministic for a seed.
SPAN_PREFIX = {"warm-hits": 240, "cold-solve": 60}


@dataclass
class Stream:
    """One traffic stream of the window: what was sent and what came back."""

    name: str
    insts: list[Instance]
    bodies: list[bytes]
    expect_cached: bool
    samples: list = field(default_factory=list)   # client.Sample
    span: float = 0.0                             # seconds the stream ran
    counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("sent", "ok", "dropped", "error", "infeasible"), 0))
    ok_latency: list = field(default_factory=list)   # (start, latency) of ok answers
    records: dict = field(default_factory=dict)      # index -> ok answer
    latency: dict = field(default_factory=dict)      # index -> ok latency (s)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _lower_bound_fn():
    """``repro.labeling.bounds.lower_bound`` over a dense adjacency matrix."""
    from repro.graphs.graph import Graph
    from repro.labeling.bounds import lower_bound
    from repro.labeling.spec import LpSpec

    def bound(adj, p):
        u, v = np.nonzero(np.triu(adj, 1))
        return lower_bound(Graph(len(adj), zip(u.tolist(), v.tolist())), LpSpec(p))
    return bound


def make_bases(bound, seen: set) -> list[Instance]:
    """The primed base graphs, every family at every warm size."""
    rng = np.random.default_rng(BASE_SEED)
    return [make_instance(FAMILY_NAMES[i % 5], WARM_SIZES[i % 3], rng, bound, seen)
            for i in range(N_BASES)]


def make_cold(count: int, rng, bound, seen: set) -> list[Instance]:
    """``count`` never-seen graphs, cycling through the 15 family x size cells."""
    return [make_instance(FAMILY_NAMES[j % 5], COLD_SIZES[(j // 5) % 3], rng,
                          bound, seen)
            for j in range(count)]


def warm_pool(bases: list[Instance], rng) -> tuple[list[Instance], list[bytes]]:
    """Fresh relabelings of the bases, each base equally often."""
    insts, bodies = [], []
    for _ in range(WARM_POOL // len(bases)):
        for b in rng.permutation(len(bases)):
            inst = bases[b].relabeled(rng)
            insts.append(inst)
            bodies.append(inst.body(WARM_ENGINE, "exact", f"w{len(bodies)}"))
    return insts, bodies


def cycle(items: list, count: int, start: int = 0) -> list:
    """``count`` items taken round-robin from ``items``."""
    return [items[(start + i) % len(items)] for i in range(count)]


# ---------------------------------------------------------------------------
# server life cycle
# ---------------------------------------------------------------------------
def start_primed(bases: list[Instance], workers: int, problems: list[str]):
    """Spawn the server and prime the bases; returns ``(server, seconds, reply)``.

    Priming is one ``POST /batch`` of the bases; ``seconds`` runs from the
    spawn to its last reply line, and ``reply`` holds the timed reply lines.
    """
    t0 = time.perf_counter()
    server = Server(SRC, workers)
    try:
        lines = [b.body(WARM_ENGINE, "exact", f"p{i}") for i, b in enumerate(bases)]
        reply = asyncio.run(client.post_batch(server.host, server.port, lines))
        seconds = time.perf_counter() - t0
        answers = {}
        for _, raw in reply:
            rec = json.loads(raw)
            answers[rec.get("tag")] = rec
        for i, b in enumerate(bases):
            rec = answers.get(f"p{i}")
            why = "no answer" if rec is None or "code" in rec else check_answer(b, rec)
            if why:
                problems.append(f"priming base {i}: {why}")
    except BaseException:
        server.stop()
        raise
    return server, seconds, reply


def stop_checked(server: Server, shm_before: set[str], problems: list[str]) -> None:
    """Stop the server; it must exit 0 and leave no shared-memory segment."""
    code = server.stop()
    if code != 0:
        problems.append(f"server exited with {code}: {''.join(server.log)[-500:]}")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"server left shared-memory segments: {sorted(leaked)}")


async def scrape(server: Server) -> Snapshot:
    """One ``/stats`` + ``/metrics`` snapshot."""
    stats = await client.get(server.host, server.port, "/stats")
    metrics = await client.get(server.host, server.port, "/metrics")
    return Snapshot.parse(stats, metrics)


# ---------------------------------------------------------------------------
# the timed window
# ---------------------------------------------------------------------------
async def window(name: str, server: Server, seconds: float, warm: Stream,
                 work: Stream, workers: int, rng) -> None:
    """Run the workload's two streams, filling their samples and spans.

    warm-hits: the open-loop warm stream for the first half of the window,
    then ``workers`` closed-loop callers for the second half, sharing at
    most ``workers`` connections.  cold-solve: ``workers`` closed-loop cold
    callers and, on one more connection, the open-loop warm probe.
    """
    host, port = server.host, server.port
    pool = client.Pool(host, port, workers)
    await pool.start()
    try:
        if name == "warm-hits":
            warm.span = work_s = seconds / 2
            schedule = client.poisson_schedule(WARM_RATE[name], warm.span, rng)
            warm.samples = await client.open_loop(pool, warm.bodies, schedule)
            work.samples, work.span = await client.closed_loop(
                pool, work.bodies, workers, work_s)
            return
        warm.span = seconds
        schedule = client.poisson_schedule(WARM_RATE[name], seconds, rng)
        side = client.Pool(host, port, 1)
        await side.start()
        try:
            warm.samples, (work.samples, work.span) = await asyncio.gather(
                client.open_loop(side, warm.bodies, schedule),
                client.closed_loop(pool, work.bodies, workers, seconds))
        finally:
            await side.close()
    finally:
        await pool.close()


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------
def judge(stream: Stream, sample, problems: list[str]) -> None:
    """Classify one reply: ok / dropped (429, 504) / error / infeasible."""
    c = stream.counts
    c["sent"] += 1
    if sample.status in (429, 504):
        c["dropped"] += 1
        return
    if sample.status != 200:
        c["error"] += 1
        return
    try:
        rec = json.loads(sample.body)
    except ValueError:
        c["error"] += 1
        return
    why = check_answer(stream.insts[sample.index], rec)
    if why:
        c["infeasible"] += 1
        problems.append(f"{stream.name}[{sample.index}]: {why}")
        return
    if rec.get("cached") is not stream.expect_cached:
        problems.append(f"{stream.name}[{sample.index}]: cached={rec.get('cached')}, "
                        f"expected {stream.expect_cached}")
    c["ok"] += 1
    stream.ok_latency.append((sample.start, sample.latency))
    stream.records[sample.index] = rec
    stream.latency[sample.index] = sample.latency


def validity(name: str, win: Window, warm: Stream, work: Stream,
             problems: list[str]) -> None:
    """Assert from the server's own counters that the workload ran as claimed."""
    if win.gauge("repro_pool_worker_restarts_total") != 0:
        problems.append("a pool worker restarted")
    if win.stat("errors"):
        problems.append(f"server counted {win.stat('errors')} failed solves")
    if name == "warm-hits":
        if win.stat("solved") != 0:
            problems.append(f"warm-hits solved {win.stat('solved')} graphs")
        if win.stat("hits") != win.stat("submitted"):
            problems.append(f"warm-hits: {win.stat('hits')} hits of "
                            f"{win.stat('submitted')} submitted")
        return
    if win.stat("coalesced"):
        problems.append(f"cold-solve coalesced {win.stat('coalesced')}")
    if win.stat("solved") != work.counts["ok"]:
        problems.append(f"cold-solve solved {win.stat('solved')}, "
                        f"answered {work.counts['ok']}")
    if win.stat("hits") != warm.counts["ok"]:
        problems.append(f"cold-solve: {win.stat('hits')} hits for "
                        f"{warm.counts['ok']} warm probes")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
#: Unit of every end-to-end metric.
UNITS = {
    "setup_s": "s",
    "warm_p50_ms": "ms",
    "work_p50_ms": "ms",
    "work_p90_ms": "ms",
    "work_per_s": "1/s",
    "work_ok_share": "share",
    "work_span_ratio": "ratio",
}


def pct(values, q: float) -> float:
    """``q``-th percentile (linear), in the values' unit."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def faster_slices(stream: Stream) -> tuple[list[float], float]:
    """Latencies (ms) of ok answers sent in the faster slices of the stream.

    The stream's run is cut into ``SLICES`` equal slices by send time and the
    ``KEEP`` slices with the lowest median latency are kept.  The host's CPU
    speed moves in phases of tens of seconds, by up to 1.7x; dropping the
    slowest slices keeps one slow phase from deciding a run's figures, while
    a change that slows the program slows every slice.  Returns the kept
    latencies and the seconds the kept slices cover.
    """
    width = stream.span / SLICES
    slices = [[] for _ in range(SLICES)]
    for start, latency in stream.ok_latency:
        slices[min(SLICES - 1, int(start / width))].append(latency * 1e3)
    kept = sorted((sl for sl in slices if sl), key=statistics.median)[:KEEP]
    return [ms for sl in kept for ms in sl], len(kept) * width


def end_to_end(name: str, setups: list[float], warm: Stream, work: Stream) -> dict:
    """The end-to-end metrics of one run."""
    ratios = [rec["span"] / work.insts[i].lower_bound
              for i, rec in sorted(work.records.items()) if i < SPAN_PREFIX[name]]
    warm_ms, _ = faster_slices(warm)
    work_ms, work_s = faster_slices(work)
    return {
        "setup_s": statistics.median(setups),
        "warm_p50_ms": pct(warm_ms, 50),
        "work_p50_ms": pct(work_ms, 50),
        "work_p90_ms": pct(work_ms, 90),
        "work_per_s": len(work_ms) / work_s,
        "work_ok_share": work.counts["ok"] / max(1, work.counts["sent"]),
        "work_span_ratio": float(np.mean(ratios)),
    }


def report(name, seed, t_win, setups, warm, work, e2e, problems) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"# {name} seed={seed} window={t_win:.2f}s "
          f"setups={[round(s, 3) for s in setups]}", file=err)
    for s in (warm, work):
        kept, seconds = faster_slices(s)
        print(f"  {s.name:5s} " + " ".join(f"{k}={v}" for k, v in s.counts.items())
              + f"  (timed: {len(kept)} answers over {seconds:.1f} of "
              f"{s.span:.1f} s)", file=err)
    for k, v in e2e.items():
        print(f"  {k:18s} {v:10.4f} {UNITS[k]}", file=err)
    for p in problems[:20]:
        print(f"  PROBLEM: {p}", file=err)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    workers = cpu_count()
    rng = np.random.default_rng(seed)
    bound = _lower_bound_fn()
    problems: list[str] = []

    seen: set = set()
    bases = make_bases(bound, seen)
    pool_insts, pool_bodies = warm_pool(bases, rng)
    n_warm = int(1.5 * WARM_RATE[name] * seconds) + 100
    warm = Stream("warm", cycle(pool_insts, n_warm), cycle(pool_bodies, n_warm),
                  expect_cached=True)
    if name == "warm-hits":
        n_closed = 400 * int(seconds + 1)
        start = WARM_POOL // 2
        work = Stream("work", cycle(pool_insts, n_closed, start),
                      cycle(pool_bodies, n_closed, start), expect_cached=True)
    else:
        cold = make_cold(int(10 * seconds) + 30, rng, bound, seen)
        work = Stream("work", cold, [c.body(COLD_ENGINE, "exact", f"c{j}")
                                     for j, c in enumerate(cold)],
                      expect_cached=False)

    shm_before = shm_segments()
    setups = []
    for k in range(SETUPS):
        server, setup_seconds, prime = start_primed(bases, workers, problems)
        setups.append(setup_seconds)
        if k < SETUPS - 1:
            stop_checked(server, shm_before, problems)
    try:
        before = asyncio.run(scrape(server))
        t_win = time.perf_counter()
        asyncio.run(window(name, server, seconds, warm, work, workers, rng))
        t_win = time.perf_counter() - t_win
        after = asyncio.run(scrape(server))
    finally:
        stop_checked(server, shm_before, problems)
    win = Window(before, after)

    for stream in (warm, work):
        for sample in stream.samples:
            judge(stream, sample, problems)
    validity(name, win, warm, work, problems)

    e2e = end_to_end(name, setups, warm, work)
    report(name, seed, t_win, setups, warm, work, e2e, problems)
    failed = sum(s.counts["error"] + s.counts["infeasible"] for s in (warm, work))
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    if trace:
        from replay import per_layer, unit_of
        layers = per_layer(name, warm, work, bases, prime, win, e2e, seed, HERE)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    return {
        "correct": not problems and failed == 0,
        "attempted": warm.counts["sent"] + work.counts["sent"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    """Parse arguments, run once, print the result line."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WARM_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

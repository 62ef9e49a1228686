"""The traced run: replay a workload's requests through each layer, serially.

After the untraced window, this module feeds the same generated requests
through the public function of every layer the server's path crosses, one
call at a time in this process, and records a span around each call:

==============  ==========================================================
layer           public function(s) replayed
==============  ==========================================================
protocol        ``SolveRequest.from_json_line``; ``SolveResponse.to_json``
                plus ``json.dumps``
analysis        ``get_analysis(graph).distances`` (the APSP kernel)
canonical       ``canonical_form``
cache           ``ShardedResultCache.get``; ``CanonicalForm.from_canonical_labels``
reduction       ``reduce_to_path_tsp``; ``labeling_from_order``;
                ``Labeling.require_feasible``
tsp             ``greedy_edge_path`` + ``nearest_neighbor_path`` (start);
                ``lk_style_path(kicks=20, seed=0)`` from that start (the
                ``lk`` engine)
approx          ``approx_labeling``
==============  ==========================================================

Front layers (protocol .. cache) run on a prefix of the window's requests.
Solve layers run on the first 15 graphs the workload solves (on warm-hits,
the primed bases), one per family x size cell.  Scrape metrics come from
the ``/stats`` and ``/metrics`` deltas of the window.  Spans are written as
NDJSON under ``out/`` next to this file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from graphs import FAMILY_NAMES

#: Requests of each stream whose front layers are replayed.
FRONT_PREFIX = 100
#: Graphs whose solve layers are replayed (one per family x size cell).
SOLVE_SAMPLE = 15
_EPS = 1e-9


class Tracer:
    """In-memory spans with parent links; self time = duration - children."""

    def __init__(self) -> None:
        """Start with no spans."""
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the block."""
        sid = len(self.spans)
        self.spans.append({})
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = {"id": sid, "parent": parent, "name": name,
                               "start": t0, "end": t1, **attrs}

    def ms(self, sid: int) -> float:
        """Duration of one finished span, in ms."""
        return (self.spans[sid]["end"] - self.spans[sid]["start"]) * 1e3

    def rows(self) -> list[tuple[dict, float, object]]:
        """``(span, self ms, its root span's rid)`` for every span."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        root, out = {}, []
        for s in self.spans:           # parents precede their children
            root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
            out.append((s, (s["end"] - s["start"] - child[s["id"]]) * 1e3,
                        self.spans[root[s["id"]]].get("rid")))
        return out

    def self_ms(self) -> dict[str, list[float]]:
        """Self time (ms) of every span, grouped by name."""
        out = defaultdict(list)
        for s, ms, _ in self.rows():
            out[s["name"]].append(ms)
        return out

    def by_attr(self, name: str, attr: str) -> dict[str, list[float]]:
        """Durations (ms) of spans called ``name``, grouped by one attribute."""
        out = defaultdict(list)
        for s in self.spans:
            if s["name"] == name:
                out[s[attr]].append((s["end"] - s["start"]) * 1e3)
        return out


def _cache_entries(bases, prime, engine):
    """The priming answers as the server caches them, in canonical order."""
    from repro.service.cache import CachedSolve
    from repro.service.canonical import canonical_form
    from repro.service.protocol import SolveRequest
    from repro.service.shard import ShardedResultCache

    cache = ShardedResultCache()
    for _, raw in prime:
        rec = json.loads(raw)
        base = bases[int(rec["tag"][1:])]
        req = SolveRequest.from_json_line(base.body(engine, "exact", rec["tag"]))
        form = canonical_form(req.graph, req.spec)
        cache.put(f"{form.key}:{engine}", CachedSolve(
            labels=form.to_canonical_labels(tuple(rec["labels"])),
            span=rec["span"], engine=rec["engine"], exact=rec["exact"]))
    return cache


def replay_front(tr: Tracer, rid, body: bytes, family: str, rec: dict | None,
                 cache) -> None:
    """One request through decode, APSP, canonical form, probe, translate, encode."""
    from repro.graphs.analysis import get_analysis
    from repro.labeling.labeling import Labeling
    from repro.service.canonical import canonical_form
    from repro.service.protocol import SolveRequest, SolveResponse

    with tr.span("request", rid=rid, family=family):
        with tr.span("protocol.decode"):
            req = SolveRequest.from_json_line(body)
        with tr.span("analysis.apsp"):
            get_analysis(req.graph).distances
        with tr.span("canonical.form", family=family):
            form = canonical_form(req.graph, req.spec)
        with tr.span("cache.probe"):
            cache.get(f"{form.key}:{req.engine}")
        if rec is None:
            return
        canon = form.to_canonical_labels(tuple(rec["labels"]))
        with tr.span("cache.translate"):
            labels = form.from_canonical_labels(canon)
        with tr.span("protocol.encode"):
            json.dumps(SolveResponse(
                labeling=Labeling(labels), span=rec["span"], engine=rec["engine"],
                exact=rec["exact"], cached=rec["cached"], key=rec["key"],
                seconds=rec["seconds"], tag=rec["tag"], tier=rec["tier"],
                gap=rec["gap"]).to_json()).encode()


def replay_solve(tr: Tracer, rid, body: bytes, family: str) -> dict:
    """One graph through the exact (LK) pipeline and the approx tier."""
    from repro.approx.solver import approx_labeling
    from repro.reduction.from_tour import labeling_from_order
    from repro.reduction.to_tsp import reduce_to_path_tsp
    from repro.service.canonical import canonical_form, canonical_instance
    from repro.service.protocol import SolveRequest
    from repro.tsp.construction import greedy_edge_path, nearest_neighbor_path
    from repro.tsp.lin_kernighan import lk_style_path

    req = SolveRequest.from_json_line(body)
    form = canonical_form(req.graph, req.spec)
    graph = canonical_instance(form, req.graph)
    with tr.span("solve", rid=rid, family=family):
        with tr.span("reduction.reduce"):
            red = reduce_to_path_tsp(graph, req.spec)
        inst = red.instance
        with tr.span("tsp.start"):
            start = min(greedy_edge_path(inst), nearest_neighbor_path(inst, 0),
                        key=lambda p: p.length)
        with tr.span("tsp.lk", family=family) as lk:
            path = lk_style_path(inst, kicks=20, seed=0, start=start)
        with tr.span("reduction.reconstruct"):
            labeling = labeling_from_order(red, path.order)
        with tr.span("labeling.verify"):
            labeling.require_feasible(graph, req.spec, dist=red.distances)
    with tr.span("approx.solve", rid=rid):
        approx = approx_labeling(graph, req.spec)
    w = inst.weights
    min_w = float(w[~np.eye(len(w), dtype=bool)].min())
    return {
        "at_bound": start.length <= (len(w) - 1) * min_w + _EPS,
        "no_gain": path.length >= start.length - _EPS,
        "lk_ms": tr.ms(lk),
        "approx_ratio": approx.ratio,
    }


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for marker, unit in (("_ms", "ms"), ("_us", "us"), ("share", "share"),
                         ("bytes", "bytes"), ("ratio", "ratio"),
                         ("imbalance", "ratio")):
        if marker in name:
            return unit
    return "count"


def _p(values, q=50) -> float:
    """Percentile of a list (0.0 when empty)."""
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values) -> float:
    """Mean of a list (0.0 when empty)."""
    return float(np.mean(values)) if values else 0.0


def per_layer(name, warm, work, bases, prime, win, e2e, seed, here) -> dict:
    """Replay, then every per-layer metric of one workload."""
    from run import COLD_ENGINE, WARM_ENGINE, faster_slices

    tr = Tracer()
    cache = _cache_entries(bases, prime, WARM_ENGINE)
    front = [(stream.name, i) for stream in (warm, work)
             for i in range(min(FRONT_PREFIX, stream.counts["sent"]))]
    streams = {"warm": warm, "work": work}
    for sname, i in front:
        stream = streams[sname]
        replay_front(tr, (sname, i), stream.bodies[i], stream.insts[i].family,
                     stream.records.get(i), cache)

    # cold-solve replays the solve path of the very requests it sent;
    # warm-hits solves nothing in the window, so its bases stand in
    solve_src = ("base", bases) if name == "warm-hits" else ("work", work.insts)
    outcomes = [replay_solve(tr, (solve_src[0], i),
                             inst.body(COLD_ENGINE, "exact", "r"), inst.family)
                for i, inst in enumerate(solve_src[1][:SOLVE_SAMPLE])]

    selfs = tr.self_ms()
    canon_fam = tr.by_attr("canonical.form", "family")
    lk_fam = tr.by_attr("tsp.lk", "family")
    lk_total = sum(o["lk_ms"] for o in outcomes)
    path_ms = _front_paths(tr)

    client_ms = [1e3 * lat for _, lat in warm.ok_latency + work.ok_latency]
    server_http = win.quantile("repro_http_request_seconds", 0.5) * 1e3
    submitted = max(1, win.stat("submitted"))

    m = {
        "net.server_http_p50_ms": server_http,
        "net.client_residual_ms": _p(client_ms) - server_http,
        "net.server_residual_ms": server_http - _p(path_ms),
        "net.batch_first_line_ms": prime[0][0] * 1e3,
        "protocol.decode_ms": _p(selfs["protocol.decode"]),
        "protocol.encode_ms": _p(selfs["protocol.encode"]),
        "analysis.apsp_ms": _p(selfs["analysis.apsp"]),
        "analysis.apsp_runs_per_request":
            win.counter("repro_apsp_runs_total") / submitted,
        "canonical.form_ms": _p(selfs["canonical.form"]),
        "canonical.form_p90_ms": _p(selfs["canonical.form"], 90),
    }
    for fam in FAMILY_NAMES:
        m[f"canonical.form_ms.{fam}"] = _p(canon_fam[fam])
    m.update({
        "cache.hit_share": win.stat("hits") / submitted,
        "cache.probe_us": _p(selfs["cache.probe"]) * 1e3,
        "cache.translate_ms": _p(selfs["cache.translate"]),
        "server.queue_wait_p50_ms": _hist_ms(win, "repro_request_queue_seconds", 0.5),
        "server.queue_wait_p90_ms": _hist_ms(win, "repro_request_queue_seconds", 0.9),
        "server.request_p50_ms": _hist_ms(win, "repro_request_seconds", 0.5),
        "server.solve_p50_ms": _hist_ms(win, "repro_solve_seconds", 0.5),
        "server.solved": win.stat("solved"),
        "pool.route_imbalance": win.gauge("repro_pool_route_imbalance"),
        "shm.bytes_published": win.counter("repro_shm_bytes_published_total"),
        "reduction.reduce_ms": _mean(selfs["reduction.reduce"]),
        "reduction.reconstruct_ms": _mean(selfs["reduction.reconstruct"]),
        "labeling.verify_ms": _mean(selfs["labeling.verify"]),
        "tsp.start_ms": _mean(selfs["tsp.start"]),
        "tsp.lk_ms": _mean(selfs["tsp.lk"]),
    })
    for fam in FAMILY_NAMES:
        m[f"tsp.lk_ms.{fam}"] = _mean(lk_fam[fam])
    m.update({
        "tsp.start_at_bound_share": _mean([o["at_bound"] for o in outcomes]),
        "tsp.no_gain_time_share":
            sum(o["lk_ms"] for o in outcomes if o["no_gain"]) / lk_total
            if lk_total else 0.0,
        "approx.solve_ms": _mean(selfs["approx.solve"]),
        "approx.ratio_mean": _mean([o["approx_ratio"] for o in outcomes]),
        "gen.lag_p99_ms": _p([s.lag * 1e3 for s in warm.samples], 99),
        "gen.warm_p90_ms": _p(faster_slices(warm)[0], 90),
    })
    _table(name, tr, streams, e2e)
    _dump(tr, here / "out" / f"{name}-seed{seed}.spans.ndjson")
    return m


def _front_paths(tr: Tracer) -> list[float]:
    """Per replayed request, the summed self time (ms) of its front layers."""
    paths = defaultdict(float)
    for s, ms, rid in tr.rows():
        if s["parent"] is not None and tr.spans[s["parent"]]["name"] == "request":
            paths[rid] += ms
    return list(paths.values())


def _hist_ms(win, hist: str, q: float) -> float:
    """Window quantile in ms; over the server's life when the window had none."""
    if win.count(hist) > 0:
        return win.quantile(hist, q) * 1e3
    from scrape import Snapshot, Window
    empty = Snapshot(win.before.stats, {k: 0.0 for k in win.before.prom})
    return Window(empty, win.after).quantile(hist, q) * 1e3


def _table(name, tr: Tracer, streams: dict, e2e) -> None:
    """Per-layer self time over the fully replayed requests, and the residual.

    A request counts when every layer its server path crossed was replayed:
    every answered warm read, and on cold-solve the answered cold requests
    whose solve was replayed too (``approx.solve`` is left out: both
    workloads ask for the exact tier).  The residual is what the client saw
    beyond those layers: HTTP framing, the executor hop, queueing.
    """
    rows = tr.rows()
    solved = {rid for s, _, rid in rows if s["name"] == "solve"}

    def counts(key) -> bool:
        stream, i = key
        if stream not in streams or i not in streams[stream].latency:
            return False
        return streams[stream].records[i]["cached"] or key in solved

    selfs = defaultdict(list)
    for s, ms, rid in rows:
        if s["name"] not in ("request", "solve", "approx.solve") and counts(rid):
            selfs[s["name"]].append(ms)
    counted = {rid for _, _, rid in rows if counts(rid)}
    table = sorted(((k, len(v), sum(v)) for k, v in selfs.items()), key=lambda r: -r[2])
    replayed = sum(r[2] for r in table)
    client_total = 1e3 * sum(streams[st].latency[i] for st, i in counted)
    base = max(client_total, replayed)
    err = sys.stderr
    print(f"# per-layer self time, {name}: {len(counted)} answered requests "
          f"replayed through every layer they crossed", file=err)
    for layer, calls, total in table:
        print(f"  {layer:22s} calls={calls:4d} total={total:10.1f}ms "
              f"share={total / base:6.1%}", file=err)
    resid = client_total - replayed
    print(f"  {'residual (wire+hop+queue)':22s} total={resid:10.1f}ms "
          f"share={resid / base:6.1%}", file=err)
    print("# untraced end-to-end, same run: " + ", ".join(
        f"{k}={v:.4g}" for k, v in e2e.items()), file=err)


def _dump(tr: Tracer, path) -> None:
    """Write the spans as NDJSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in tr.spans:
            fh.write(json.dumps(s) + "\n")

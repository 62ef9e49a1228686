"""Named, seeded workload generators for the benchmark experiments.

Every workload is a deterministic function of ``(name, size, seed)``, so any
number reported in EXPERIMENTS.md can be regenerated bit-for-bit.  The
families mirror the paper's setting: small-diameter graphs of varied density
and structure, plus the radio-network geometric family from the motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs import generators as gen
from repro.graphs.cotree import random_connected_cograph


@dataclass(frozen=True)
class Workload:
    """One benchmark instance with provenance."""

    family: str
    n: int
    seed: int
    graph: Graph

    @property
    def label(self) -> str:
        """Human-readable provenance tag for tables and reports."""
        return f"{self.family}(n={self.n}, seed={self.seed})"


def _diam2(n: int, seed: int) -> Graph:
    """Random diameter-<=2 graph (the paper's core regime)."""
    return gen.random_graph_with_diameter_at_most(n, 2, seed=seed)


def _diam3(n: int, seed: int) -> Graph:
    """Random diameter-<=3 graph (sparser topologies)."""
    return gen.random_graph_with_diameter_at_most(n, 3, seed=seed)


def _dense(n: int, seed: int) -> Graph:
    """Dense diameter-2 variant (Generator-seeded edge draw)."""
    return gen.random_graph_with_diameter_at_most(n, 2, seed=np.random.default_rng(seed))


def _geometric(n: int, seed: int) -> Graph:
    # radius tuned to keep the diameter small at moderate n
    """Random geometric radio-network graph at a diameter-friendly radius."""
    g, _pos = gen.random_geometric_graph(n, radius=0.55, seed=seed)
    return g

def _split(n: int, seed: int) -> Graph:
    """Random split graph: clique half plus independent half."""
    clique = max(2, n // 2)
    return gen.random_split_graph(clique, n - clique, p=0.7, seed=seed)


def _cograph(n: int, seed: int) -> Graph:
    """Random connected cograph (structured special-case solvers)."""
    return random_connected_cograph(n, seed=seed)


def _sparse(n: int, seed: int) -> Graph:
    """Connected sparse graph (~2.5n edges): path backbone plus chords.

    The scaling family for the blocked distance oracle: at n in the
    hundreds-to-thousands its diameter grows like log n — far beyond the
    Theorem-2 regime — so these graphs exercise row-block materialization,
    LRU residency and streamed consumers rather than the reduction.
    Built edge-by-edge in O(n) (no dense draws), so generation stays
    negligible next to the measured work even at n = 2048.
    """
    if n < 2:
        return Graph(n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    g = Graph(n, ((int(perm[i]), int(perm[i + 1])) for i in range(n - 1)))
    target = g.m + (3 * n) // 2
    draws = rng.integers(0, n, size=(4 * n, 2))
    for u, v in draws:
        if g.m >= target:
            break
        u, v = int(u), int(v)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def _wheel(n: int, seed: int) -> Graph:
    """Wheel graph on ``n`` vertices (hub + rim)."""
    return gen.wheel_graph(max(n - 1, 3))


def _complete_bipartite(n: int, seed: int) -> Graph:
    """Complete bipartite graph with near-even sides."""
    a = max(1, n // 2)
    return gen.complete_bipartite_graph(a, n - a)


#: family name -> generator(n, seed)
WORKLOADS: dict[str, Callable[[int, int], Graph]] = {
    "diam2": _diam2,
    "diam3": _diam3,
    "geometric": _geometric,
    "split": _split,
    "cograph": _cograph,
    "wheel": _wheel,
    "complete_bipartite": _complete_bipartite,
    "sparse": _sparse,
}


def make_workload(family: str, n: int, seed: int = 0) -> Workload:
    """Instantiate one named workload."""
    try:
        factory = WORKLOADS[family]
    except KeyError:
        raise ReproError(
            f"unknown workload family {family!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    return Workload(family=family, n=n, seed=seed, graph=factory(n, seed))


def sweep(
    family: str, sizes: list[int], seeds: list[int]
) -> list[Workload]:
    """The cross product of sizes and seeds for one family."""
    return [make_workload(family, n, s) for n in sizes for s in seeds]


@dataclass(frozen=True)
class MatrixLeg:
    """One named cell of the benchmark matrix: a family × size × seed grid.

    Legs are the unit the perf suite sweeps and CI schedules — a quick run
    takes one leg, a full run takes them all.
    """

    name: str
    family: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...] = (0,)
    #: Constraint vector solvable on this family (Theorem 2 needs
    #: ``diam(G) <= len(spec)``, so deeper families carry longer specs).
    spec: tuple[int, ...] = (2, 1)
    #: Whether the Theorem-2 reduction applies to this family (the large
    #: sparse legs have diameter >> len(spec), so the reduction scenario
    #: skips them and the oracle-scaling scenario measures them instead).
    reduction: bool = True

    def workloads(self) -> list[Workload]:
        """Instantiate the leg's full size x seed grid."""
        return sweep(self.family, list(self.sizes), list(self.seeds))


#: The named workload matrix: density × family × size.  ``diam2`` graphs at
#: diameter 2 are near-dense, ``diam3`` admits sparser topologies,
#: ``geometric`` is the radio-network motivation, ``split``/``cograph``
#: exercise the structured special-case solvers.  Sizes stay in the range
#: the E-suite already times so a full sweep remains minutes, not hours.
MATRIX: dict[str, MatrixLeg] = {
    leg.name: leg
    for leg in (
        MatrixLeg("diam2-small", "diam2", (16, 24), (0, 1)),
        MatrixLeg("diam2-dense", "diam2", (48, 64), (0,)),
        MatrixLeg("diam3-sparse", "diam3", (24, 40), (0, 1), spec=(2, 2, 1)),
        MatrixLeg("geometric-radio", "geometric", (24, 40), (0, 1), spec=(2, 2, 1)),
        MatrixLeg("split-dense", "split", (24, 40), (0, 1), spec=(2, 2, 1)),
        MatrixLeg("cograph-structured", "cograph", (24, 40), (0, 1)),
        # the scaling legs: 10-50x larger graphs through the blocked oracle
        MatrixLeg("large-512", "sparse", (512,), (0,), reduction=False),
        MatrixLeg("large-2048", "sparse", (2048,), (0,), reduction=False),
    )
}


def matrix_sweep(leg: str | MatrixLeg) -> list[Workload]:
    """Instantiate every workload of one named matrix leg."""
    if isinstance(leg, str):
        try:
            leg = MATRIX[leg]
        except KeyError:
            raise ReproError(
                f"unknown matrix leg {leg!r}; known: {', '.join(MATRIX)}"
            ) from None
    return leg.workloads()


# ---------------------------------------------------------------------------
# DYNAMIC legs: edge-churn streams over the MATRIX families
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnLeg:
    """One named dynamic-update stream: seeded edge churn over a family graph.

    The unit the ``DYNAMIC`` perf scenario (and
    ``bench_e13_dynamic_updates.py``) sweeps: a base graph from an existing
    workload family plus a deterministic stream of single-edge
    inserts/deletes, the regime :mod:`repro.dynamic` repairs incrementally.
    """

    name: str
    family: str
    n: int
    steps: int
    seed: int = 0
    #: Probability a step deletes a present edge (the rest insert one).
    remove_fraction: float = 0.35
    #: Constraint vector solvable on this family (for session-level runs).
    spec: tuple[int, ...] = (2, 1)


#: The named dynamic legs.  Sizes mirror the MATRIX timing range; the
#: quick perf run takes the small leg, the full run the dense one.
DYNAMIC: dict[str, ChurnLeg] = {
    leg.name: leg
    for leg in (
        ChurnLeg("churn-diam2-small", "diam2", 24, 40),
        ChurnLeg("churn-diam2-dense", "diam2", 48, 64),
        ChurnLeg("churn-geometric", "geometric", 32, 48, spec=(2, 2, 1)),
        # large-graph churn: the delta engine repairing an int16 matrix
        ChurnLeg("churn-sparse-large", "sparse", 512, 64),
    )
}


def churn_stream(
    leg: str | ChurnLeg,
) -> tuple[Graph, list[tuple[str, int, int]]]:
    """The leg's base graph plus its deterministic mutation stream.

    Returns ``(base, ops)`` where each op is ``("add_edge", u, v)`` or
    ``("remove_edge", u, v)``, valid when applied in order starting from a
    fresh copy of ``base``.  Pure function of the leg (seeded), so any
    measured number can be regenerated bit-for-bit.
    """
    if isinstance(leg, str):
        try:
            leg = DYNAMIC[leg]
        except KeyError:
            raise ReproError(
                f"unknown dynamic leg {leg!r}; known: {', '.join(DYNAMIC)}"
            ) from None
    base = make_workload(leg.family, leg.n, leg.seed).graph
    rng = np.random.default_rng(leg.seed + 0x5EED)
    replica = base.copy()
    floor = max(replica.n - 1, replica.m // 2)  # keep some density
    ops: list[tuple[str, int, int]] = []
    while len(ops) < leg.steps:
        n = replica.n
        if rng.random() < leg.remove_fraction and replica.m > floor:
            edges = list(replica.edges())
            u, v = edges[int(rng.integers(len(edges)))]
            replica.remove_edge(u, v)
            ops.append(("remove_edge", u, v))
        elif n >= 256:
            # large graphs are sparse: rejection-sample an absent pair in
            # O(1) expected instead of materializing the O(n^2) absent
            # list.  Gated on n so the small legs' streams (and their
            # committed baseline numbers) stay bit-identical.
            for _ in range(64):
                u = int(rng.integers(n))
                v = int(rng.integers(n))
                if u > v:
                    u, v = v, u
                if u != v and not replica.has_edge(u, v):
                    replica.add_edge(u, v)
                    ops.append(("add_edge", u, v))
                    break
        else:
            absent = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not replica.has_edge(u, v)
            ]
            if not absent:
                continue  # complete graph: next draw will delete
            u, v = absent[int(rng.integers(len(absent)))]
            replica.add_edge(u, v)
            ops.append(("add_edge", u, v))
    return base, ops


# ---------------------------------------------------------------------------
# SERVICE legs: mixed hot/cold request streams for the serving front end
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceLeg:
    """One named serving stream: a mixed hot/cold request mix.

    The unit the ``SERVICE`` perf scenario (and
    ``bench_e14_concurrent_service.py``) serves through the
    :class:`~repro.service.server.ConcurrentLabelingService`: *hot*
    requests are relabeled copies of a small pool of base topologies (the
    repeats a cache and in-flight dedup exist for), *cold* requests are
    distinct graphs seen exactly once (the part only parallel solving can
    speed up).  The interleaving is a seeded shuffle, so every stream is a
    pure function of the leg.
    """

    name: str
    family: str
    n: int
    requests: int
    #: Fraction of requests drawn (relabeled) from the hot pool.
    hot_fraction: float = 0.75
    #: Number of distinct hot topologies.
    hot_pool: int = 2
    seed: int = 0
    #: Constraint vector solvable on this family.
    spec: tuple[int, ...] = (2, 1)
    engine: str = "lk"

    @property
    def unique(self) -> int:
        """Distinct problems in the stream (hot pool + cold singletons)."""
        return self.hot_pool + (self.requests - round(self.requests * self.hot_fraction))


#: The named serving legs.  The quick perf run serves the small leg, the
#: full run the dense one; the cold-heavy leg is the scaling benchmark's
#: worst case (nothing to dedup, every request an engine run).
SERVICE: dict[str, ServiceLeg] = {
    leg.name: leg
    for leg in (
        ServiceLeg("mixed-small", "diam2", 20, 12),
        ServiceLeg("mixed-dense", "diam2", 24, 24),
        # 16 cold requests: enough work per pool worker that a 4-process
        # pool's speedup measurement is dominated by solve time, not by
        # publish/dispatch overhead on the first request per key.
        ServiceLeg("cold-scaling", "diam2", 24, 16, hot_fraction=0.0, hot_pool=0),
    )
}


def service_stream(leg: str | ServiceLeg) -> list:
    """Instantiate one SERVICE leg as an ordered list of ``SolveRequest``\\ s.

    Hot requests arrive under fresh vertex permutations (only the
    canonical form can recognise them); cold requests use seeds disjoint
    from the hot pool's.  Deterministic: same leg, same stream.
    """
    from repro.service.protocol import SolveRequest
    from repro.graphs.operations import relabel
    from repro.labeling.spec import LpSpec

    if isinstance(leg, str):
        try:
            leg = SERVICE[leg]
        except KeyError:
            raise ReproError(
                f"unknown service leg {leg!r}; known: {', '.join(SERVICE)}"
            ) from None
    rng = np.random.default_rng(leg.seed + 0xCAFE)
    spec = LpSpec(leg.spec)
    hot_count = round(leg.requests * leg.hot_fraction)
    hot_bases = [
        make_workload(leg.family, leg.n, 101 + s).graph
        for s in range(leg.hot_pool)
    ]
    requests = [
        SolveRequest(
            relabel(hot_bases[i % leg.hot_pool],
                    rng.permutation(leg.n).tolist()),
            spec,
            engine=leg.engine,
            tag=f"hot[{i}]",
        )
        for i in range(hot_count)
    ]
    requests += [
        SolveRequest(
            make_workload(leg.family, leg.n, 1000 + i).graph,
            spec,
            engine=leg.engine,
            tag=f"cold[{i}]",
        )
        for i in range(leg.requests - hot_count)
    ]
    return [requests[int(i)] for i in rng.permutation(len(requests))]


def apply_churn_op(graph: Graph, op: tuple[str, int, int]) -> None:
    """Apply one churn-stream op to ``graph``."""
    kind, u, v = op
    if kind == "add_edge":
        graph.add_edge(u, v)
    elif kind == "remove_edge":
        graph.remove_edge(u, v)
    else:
        raise ReproError(f"unknown churn op {kind!r}")


def churn_maintain(graph: Graph, ops, each=None) -> None:
    """Maintain the distance matrix through ``ops`` with a delta engine.

    The one incremental-measurement protocol shared by the perf suite, the
    E13 benchmark and the ``dynamic`` CLI: a fresh copy of ``graph`` (so
    the engine's seed APSP is part of the measured cost), then
    apply-and-repair per op.  ``each(graph, dist)`` observes every
    repaired matrix (the live engine-owned array) — verification hooks
    must run it in a separate un-timed pass.
    """
    from repro.dynamic import DeltaEngine

    g = graph.copy()
    engine = DeltaEngine(g)
    for op in ops:
        apply_churn_op(g, op)
        dist = engine.refresh(g)
        if each is not None:
            each(g, dist)


def churn_recompute(graph: Graph, ops) -> None:
    """The pre-dynamic cost model: one full APSP per mutation."""
    from repro.graphs.traversal import all_pairs_distances

    g = graph.copy()
    all_pairs_distances(g)
    for op in ops:
        apply_churn_op(g, op)
        all_pairs_distances(g)

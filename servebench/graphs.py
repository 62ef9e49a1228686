"""Seeded inputs for the serving benchmark, and the client-side answer check.

The five families mirror the repository's MATRIX families (``diam2``,
``diam3``, ``geometric``, ``split``, ``cograph``) but are generated here, from
numpy alone, so a change to the program's own generators can never change
what the benchmark sends.  Every graph is connected with diameter at most
``len(spec)``, the condition Theorem 2 needs.

Graphs are held as dense boolean adjacency matrices; the wire form is the
``SolveRequest`` JSON body the server accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: family -> distance-constraint vector p (``len(p)`` bounds the diameter).
SPECS = {
    "diam2": (2, 1),
    "diam3": (2, 2, 1),
    "geometric": (2, 2, 1),
    "split": (2, 2, 1),
    "cograph": (2, 1),
}
FAMILY_NAMES = tuple(SPECS)


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances by frontier expansion; -1 where unreachable."""
    n = len(adj)
    a = adj.astype(np.int32)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reach = np.eye(n, dtype=bool)
    frontier = reach.copy()
    d = 0
    while frontier.any():
        d += 1
        nxt = (frontier.astype(np.int32) @ a > 0) & ~reach
        dist[nxt] = d
        reach |= nxt
        frontier = nxt
    return dist


def _diameter_ok(adj: np.ndarray, k: int) -> bool:
    """Connected with every pair within ``k`` hops."""
    dist = distances(adj)
    return bool((dist >= 0).all() and dist.max() <= k)


def _gnp(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Erdos-Renyi G(n, p) as a symmetric boolean matrix."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


def _bounded_diameter(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sparsest G(n, p) on a rising p schedule whose diameter is <= k."""
    for p in np.linspace(min(1.0, 2.2 * np.log(n) / n), 1.0, num=12):
        for _ in range(3):
            adj = _gnp(n, float(p), rng)
            if _diameter_ok(adj, k):
                return adj
    raise RuntimeError(f"no diameter-{k} graph found for n={n}")


def _diam2(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random diameter-2 graph (the paper's core regime)."""
    return _bounded_diameter(n, 2, rng)


def _diam3(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random diameter-3 graph (sparser topologies)."""
    return _bounded_diameter(n, 3, rng)


def _geometric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-square radio network at radius 0.55, redrawn until diameter <= 3."""
    while True:
        pos = rng.random((n, 2))
        d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        adj = d2 <= 0.55 * 0.55
        np.fill_diagonal(adj, False)
        if _diameter_ok(adj, 3):
            return adj


def _split(n: int, rng: np.random.Generator) -> np.ndarray:
    """Clique half plus independent half, cross edges at p = 0.7.

    An independent vertex left without a clique neighbour gets one, which
    keeps the diameter at most 3.
    """
    c = n // 2
    adj = np.zeros((n, n), dtype=bool)
    adj[:c, :c] = True
    cross = rng.random((c, n - c)) < 0.7
    for j in np.flatnonzero(~cross.any(axis=0)):
        cross[rng.integers(c), j] = True
    adj[:c, c:] = cross
    adj[c:, :c] = cross.T
    np.fill_diagonal(adj, False)
    return adj


def _cotree(vertices: np.ndarray, rng: np.random.Generator, join: bool,
            adj: np.ndarray) -> None:
    """Fill ``adj`` for a random cotree over ``vertices`` (join bias 0.6)."""
    if len(vertices) == 1:
        return
    groups = int(rng.integers(2, min(4, len(vertices)) + 1))
    cuts = np.sort(rng.choice(np.arange(1, len(vertices)), groups - 1, replace=False))
    parts = np.split(vertices, cuts)
    if join:
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                adj[np.ix_(a, b)] = True
                adj[np.ix_(b, a)] = True
    for part in parts:
        _cotree(part, rng, bool(rng.random() < 0.6), adj)


def _cograph(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random connected cograph: a random cotree whose root is a join."""
    adj = np.zeros((n, n), dtype=bool)
    _cotree(np.arange(n), rng, True, adj)
    return adj


FAMILIES = {
    "diam2": _diam2,
    "diam3": _diam3,
    "geometric": _geometric,
    "split": _split,
    "cograph": _cograph,
}


@dataclass(frozen=True)
class Instance:
    """One generated graph with its spec, distances and lower bound."""

    family: str
    adj: np.ndarray
    dist: np.ndarray
    p: tuple[int, ...]
    #: ``repro.labeling.bounds.lower_bound`` of the graph (isomorphism
    #: invariant, so relabeled copies share it).
    lower_bound: int

    @property
    def n(self) -> int:
        """Vertex count."""
        return len(self.adj)

    def relabeled(self, rng: np.random.Generator) -> "Instance":
        """A uniformly random relabeling of this graph."""
        perm = rng.permutation(self.n)          # old vertex v -> new id perm[v]
        inv = np.argsort(perm)                  # new id -> old vertex
        return Instance(
            self.family,
            self.adj[np.ix_(inv, inv)],
            self.dist[np.ix_(inv, inv)],
            self.p,
            self.lower_bound,
        )

    def body(self, engine: str, tier: str, tag: str,
             deadline_ms: int | None = None) -> bytes:
        """The ``SolveRequest`` wire form of this instance."""
        u, v = np.nonzero(np.triu(self.adj, 1))
        return json.dumps({
            "n": self.n,
            "edges": np.stack([u, v], axis=1).tolist(),
            "p": list(self.p),
            "engine": engine,
            "tag": tag,
            "tier": tier,
            "deadline_ms": deadline_ms,
        }).encode()


def make_instance(family: str, n: int, rng: np.random.Generator,
                  lower_bound, seen: set) -> Instance:
    """Draw one graph of ``family`` not isomorphic to any graph in ``seen``.

    ``seen`` holds isomorphism invariants (sorted degrees and sorted
    distance profiles); a draw whose invariant is already there is redrawn,
    so no two generated graphs can share a cache entry.
    ``lower_bound(adj, p)`` supplies the bound.
    """
    while True:
        adj = FAMILIES[family](n, rng)
        dist = distances(adj)
        key = (np.sort(adj.sum(axis=1)).tobytes()
               + np.sort(np.sort(dist, axis=1), axis=0).tobytes())
        if key not in seen:
            seen.add(key)
            break
    p = SPECS[family]
    return Instance(family, adj, dist, p, lower_bound(adj, p))


def check_answer(inst: Instance, record: dict) -> str | None:
    """Why ``record`` is not a valid answer for ``inst``, or ``None``.

    The labeling must have one non-negative label per vertex, satisfy
    ``|l(u) - l(v)| >= p[d(u, v) - 1]`` for every pair within ``len(p)`` hops
    of the graph that was sent, have the reported span as its maximum, and
    not beat the lower bound.
    """
    labels = np.asarray(record.get("labels", ()), dtype=np.int64)
    if labels.shape != (inst.n,) or (labels < 0).any():
        return "labels missing, of the wrong length, or negative"
    req = np.zeros(inst.dist.shape, dtype=np.int64)
    for d, gap in enumerate(inst.p, start=1):
        req[inst.dist == d] = gap
    if (np.abs(labels[:, None] - labels[None, :]) < req).any():
        return "labeling violates a distance constraint"
    if int(labels.max()) != record.get("span"):
        return f"reported span {record.get('span')} != max label {labels.max()}"
    if labels.max() < inst.lower_bound:
        return f"span {labels.max()} below lower bound {inst.lower_bound}"
    return None

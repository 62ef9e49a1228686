"""LK-style iterated local search for Hamiltonian paths.

The paper's practical pitch is "use LKH/Concorde as the engine".  Those are
external C codes; this module is the same algorithmic family implemented
from scratch: greedy construction, deep 2-opt + Or-opt descent, and
double-bridge kicks with best-solution bookkeeping (i.e. *chained* LK in the
sense of Applegate–Cook–Rohe).  It is the strongest heuristic in this
package and the default engine of the high-level solver for instances too
big for Held–Karp.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.construction import greedy_edge_path, nearest_neighbor_path
from repro.tsp.instance import TSPInstance
from repro.tsp.local_search import three_opt_path
from repro.tsp.tour import HamPath

_EPS = 1e-10


def lk_style_path(
    instance: TSPInstance,
    kicks: int = 20,
    seed: int | np.random.Generator | None = None,
    start: HamPath | None = None,
) -> HamPath:
    """Chained LK-style search: descent + ``kicks`` double-bridge restarts.

    Parameters
    ----------
    kicks:
        Number of perturbation/re-descent cycles after the initial descent.
        0 gives a plain deep local search.
    seed:
        RNG seed for the perturbations (deterministic for a fixed seed).
    start:
        Optional warm-start path; by default the better of greedy-edge and
        nearest-neighbour construction.

    >>> inst = TSPInstance.random_metric(12, seed=3)
    >>> p = lk_style_path(inst, kicks=5, seed=0)
    >>> sorted(p.order) == list(range(12))
    True
    """
    n = instance.n
    if n <= 3:
        return held_trivial(instance)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if start is None:
        cands = [greedy_edge_path(instance), nearest_neighbor_path(instance, 0)]
        start = min(cands, key=lambda p: p.length)

    best = three_opt_path(instance, start)
    cur = best
    for _ in range(kicks):
        kicked = _double_bridge(instance, cur, rng)
        improved = three_opt_path(instance, kicked)
        # accept-if-better (keeps the chain anchored at the incumbent)
        if improved.length < cur.length - _EPS:
            cur = improved
        if improved.length < best.length - _EPS:
            best = improved
    return best


def held_trivial(instance: TSPInstance) -> HamPath:
    """Exact answer for n <= 3 by enumeration (base case helper)."""
    import itertools

    n = instance.n
    if n == 0:
        return HamPath((), 0.0)
    best = min(
        itertools.permutations(range(n)),
        key=lambda o: instance.path_length(o),
    )
    return HamPath.from_order(instance, best)


def _double_bridge(
    instance: TSPInstance, path: HamPath, rng: np.random.Generator
) -> HamPath:
    """Double-bridge 4-segment shuffle — the classic LK kick move.

    Cuts the path into four non-empty segments A|B|C|D and reassembles as
    A|C|B|D; this move cannot be undone by any sequence of 2-opt reversals,
    which is what lets the chain escape 2-opt local optima.
    """
    n = len(path.order)
    cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
    a, b, c = (int(x) for x in cuts)
    o = path.order
    new_order = o[:a] + o[b:c] + o[a:b] + o[c:]
    return HamPath.from_order(instance, new_order)

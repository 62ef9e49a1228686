"""Simulated annealing for path TSP — a diversity engine for the portfolio.

A different search family from the LK-style descent: random 2-opt /
Or-1-move proposals accepted by the Metropolis criterion under a geometric
cooling schedule.  On the reduction's small-range metrics (all weights in
``[p_min, 2 p_min]``) plateaus are everywhere, which is exactly where
annealing's uphill moves pay off relative to strict descent.

Deterministic for a fixed seed; registered as ``"anneal"`` in the engine
portfolio.  The schedule is fixed: start from the nearest-neighbour path,
start hot at the mean edge weight, run ``4n`` proposals per temperature,
cool by :data:`COOLING` per step and stop below :data:`FINAL_TEMP_RATIO`
of the starting temperature.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.construction import nearest_neighbor_path
from repro.tsp.instance import TSPInstance
from repro.tsp.local_search import two_opt_path
from repro.tsp.tour import HamPath

#: geometric cooling factor applied after each temperature step
COOLING = 0.995

#: annealing stops once the temperature falls below this share of the start
FINAL_TEMP_RATIO = 1e-3


def simulated_annealing_path(
    instance: TSPInstance, seed: int | np.random.Generator | None = 0
) -> HamPath:
    """Annealed path search; finishes with one 2-opt descent (polish).

    Runs the module's fixed schedule; starting at the mean edge weight, it
    accepts most early uphill moves.

    >>> inst = TSPInstance.random_metric(10, seed=1)
    >>> p = simulated_annealing_path(inst, seed=0)
    >>> sorted(p.order) == list(range(10))
    True
    """
    n = instance.n
    if n <= 3:
        from repro.tsp.lin_kernighan import held_trivial
        return held_trivial(instance)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = instance.weights

    cur = list(nearest_neighbor_path(instance, 0).order)
    cur_len = instance.path_length(cur)
    best = list(cur)
    best_len = cur_len

    temp = float(w[~np.eye(n, dtype=bool)].mean())
    floor = temp * FINAL_TEMP_RATIO
    steps = 4 * n

    def delta_two_opt(i: int, j: int) -> float:
        """Cost change of reversing cur[i..j] (path objective)."""
        d = 0.0
        if i > 0:
            d += w[cur[i - 1], cur[j]] - w[cur[i - 1], cur[i]]
        if j < n - 1:
            d += w[cur[i], cur[j + 1]] - w[cur[j], cur[j + 1]]
        return float(d)

    while temp > floor:
        for _ in range(steps):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            d = delta_two_opt(i, j)
            if d <= 0 or rng.random() < np.exp(-d / temp):
                cur[i : j + 1] = cur[i : j + 1][::-1]
                cur_len += d
                if cur_len < best_len - 1e-12:
                    best_len = cur_len
                    best = list(cur)
        temp *= COOLING

    polished = two_opt_path(instance, HamPath.from_order(instance, best))
    return polished

"""Held–Karp dynamic programming for path and cycle TSP.

This is the algorithm behind Corollary 1: after the Theorem-2 reduction,
``L(p)``-labeling of a small-diameter graph is solved exactly in
``O(2^n n^2)`` time.  The DP table is a ``(2^n, n)`` NumPy array; the inner
relaxation is a broadcasted row-plus-matrix minimum, so the per-subset work
is a single vectorized ``O(n^2)`` kernel (per the hpc-parallel guides:
keep the hot loop array-shaped).

The path variant leaves **both endpoints free**, which is exactly the shape
of the reduced labeling problem (any optimal labeling order will do).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InstanceTooLargeError
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import HamPath, Tour

#: Hard cap on exact instance size; the table is ``2^n * n`` doubles.
MAX_EXACT_N = 20


def _check_size(n: int) -> None:
    """Refuse instances beyond the DP's practical size limit."""
    if n > MAX_EXACT_N:
        raise InstanceTooLargeError(
            f"engine 'held_karp' is capped at n={MAX_EXACT_N} (got n={n}): "
            "its table needs 2^n*n doubles; use engine 'lk' or 'auto'"
        )


def held_karp_path(instance: TSPInstance) -> HamPath:
    """Exact minimum-weight Hamiltonian path, both endpoints free.

    Runs in ``O(2^n n^2)`` time and ``O(2^n n)`` space.  Refuses instances
    past :data:`MAX_EXACT_N` with :class:`~repro.errors.InstanceTooLargeError`.

    >>> inst = TSPInstance.random_metric(6, seed=0)
    >>> p = held_karp_path(inst)
    >>> sorted(p.order) == list(range(6))
    True
    """
    n = instance.n
    if n == 0:
        return HamPath((), 0.0)
    if n == 1:
        return HamPath((0,), 0.0)
    _check_size(n)

    w = instance.weights
    full = (1 << n) - 1
    dp = np.full((1 << n, n), np.inf)
    for j in range(n):
        dp[1 << j, j] = 0.0

    all_v = np.arange(n)
    for s in range(1, full + 1):
        row = dp[s]
        finite = row < np.inf
        if not finite.any():
            continue
        # best[k] = min over j in S of dp[S, j] + w[j, k]
        best = (row[finite, None] + w[finite]).min(axis=0)
        for k in all_v[~_bits(s, n)]:
            t = s | (1 << k)
            if best[k] < dp[t, k]:
                dp[t, k] = best[k]

    end = int(np.argmin(dp[full]))
    length = float(dp[full, end])
    order = _reconstruct_path(dp, w, full, end)
    return HamPath(tuple(order), length)


def held_karp_cycle(instance: TSPInstance) -> Tour:
    """Exact minimum-weight closed tour (classic Held–Karp, anchored at 0)."""
    n = instance.n
    if n == 0:
        return Tour((), 0.0)
    if n == 1:
        return Tour((0,), 0.0)
    if n == 2:
        return Tour((0, 1), 2.0 * instance.weight(0, 1))
    _check_size(n)

    w = instance.weights
    full = (1 << n) - 1
    dp = np.full((1 << n, n), np.inf)
    dp[1, 0] = 0.0  # paths start at vertex 0

    all_v = np.arange(n)
    for s in range(1, full + 1, 2):  # only subsets containing vertex 0
        row = dp[s]
        finite = row < np.inf
        if not finite.any():
            continue
        best = (row[finite, None] + w[finite]).min(axis=0)
        for k in all_v[~_bits(s, n)]:
            t = s | (1 << k)
            if best[k] < dp[t, k]:
                dp[t, k] = best[k]

    closing = dp[full] + w[:, 0]
    end = int(np.argmin(closing))
    length = float(closing[end])
    order = _reconstruct_path(dp, w, full, end)
    if order[0] != 0:
        order.reverse()
    return Tour(tuple(order), length)


def _bits(s: int, n: int) -> np.ndarray:
    """Boolean membership vector of subset ``s`` over ``n`` vertices."""
    return (s >> np.arange(n)) & 1 == 1


def _reconstruct_path(dp: np.ndarray, w: np.ndarray, full: int, end: int) -> list[int]:
    """Walk the DP table backwards from (full, end) to recover the order."""
    order = [end]
    s, j = full, end
    while s != (1 << j):
        prev_s = s & ~(1 << j)
        # predecessor j' satisfies dp[prev_s, j'] + w[j', j] == dp[s, j]
        candidates = dp[prev_s] + w[:, j]
        candidates[~_bits(prev_s, w.shape[0])] = np.inf
        jp = int(np.argmin(np.abs(candidates - dp[s, j])))
        order.append(jp)
        s, j = prev_s, jp
    order.reverse()
    return order

"""Local search for Hamiltonian paths: 2-opt, Or-opt, and a 3-opt-lite.

All moves are specialized to the *path* objective (no wrap-around edge), with
the segment-touches-endpoint cases handled separately — a subtle point that
cycle-oriented implementations get wrong.  The 2-opt inner loop is fully
vectorized (one ``O(n^2)`` NumPy kernel per improvement step), per the
hpc-parallel guides.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.instance import TSPInstance
from repro.tsp.tour import HamPath

_EPS = 1e-10

#: safety cap on improvement rounds; every round strictly shortens the path
MAX_ROUNDS = 10_000

#: segment lengths Or-opt relocates, tried shortest first
OR_OPT_SEGMENTS = (1, 2, 3)


def two_opt_path(instance: TSPInstance, start: HamPath) -> HamPath:
    """Best-improvement 2-opt on a Hamiltonian path.

    Repeatedly applies the single best segment reversal until no reversal
    improves the length.  Each round is one vectorized delta evaluation.
    """
    n = instance.n
    if n <= 2:
        return start
    w = instance.weights
    o = np.asarray(start.order, dtype=np.intp)

    for _ in range(MAX_ROUNDS):
        best_delta, move = _best_two_opt_move(w, o)
        if best_delta >= -_EPS:
            break
        i, j = move
        o[i : j + 1] = o[i : j + 1][::-1]
    return HamPath.from_order(instance, o.tolist())


def _best_two_opt_move(w: np.ndarray, o: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The most improving reversal ``o[i..j] -> reversed`` and its delta."""
    n = len(o)
    best_delta = 0.0
    best_move = (0, 0)

    # --- internal reversals: 1 <= i <= j <= n-2 ------------------------
    if n >= 4:
        idx = np.arange(1, n - 1)
        # gain matrices indexed by (i, j) over idx x idx
        m_new = w[o[idx - 1][:, None], o[idx][None, :]] + w[o[idx][:, None], o[idx + 1][None, :]]
        m_old = w[o[idx - 1], o[idx]][:, None] + w[o[idx], o[idx + 1]][None, :]
        delta = m_new - m_old
        # only j > i is a real move (j == i is identity)
        delta[np.tril_indices(len(idx), k=0)] = np.inf
        flat = int(np.argmin(delta))
        di, dj = divmod(flat, len(idx))
        if delta[di, dj] < best_delta - _EPS:
            best_delta = float(delta[di, dj])
            best_move = (int(idx[di]), int(idx[dj]))

    # --- prefix reversals: reverse o[0..j], j <= n-2 --------------------
    j = np.arange(0, n - 1)
    delta_pre = w[o[0], o[j + 1]] - w[o[j], o[j + 1]]
    jp = int(np.argmin(delta_pre))
    if delta_pre[jp] < best_delta - _EPS:
        best_delta = float(delta_pre[jp])
        best_move = (0, int(j[jp]))

    # --- suffix reversals: reverse o[i..n-1], i >= 1 ---------------------
    i = np.arange(1, n)
    delta_suf = w[o[i - 1], o[n - 1]] - w[o[i - 1], o[i]]
    ip = int(np.argmin(delta_suf))
    if delta_suf[ip] < best_delta - _EPS:
        best_delta = float(delta_suf[ip])
        best_move = (int(i[ip]), n - 1)

    return best_delta, best_move


def or_opt_path(instance: TSPInstance, start: HamPath) -> HamPath:
    """Or-opt: relocate short segments (optionally reversed) along the path.

    First-improvement sweeps over the :data:`OR_OPT_SEGMENTS` lengths 1..3;
    loops until a full sweep finds nothing.
    """
    n = instance.n
    if n <= 2:
        return start
    w = instance.weights
    order = list(start.order)

    for _ in range(MAX_ROUNDS):
        improved = False
        for seg_len in OR_OPT_SEGMENTS:
            if seg_len >= n:
                continue
            move = _first_or_opt_move(w, order, seg_len)
            if move is not None:
                order = move
                improved = True
                break
        if not improved:
            break
    return HamPath.from_order(instance, order)


def _first_or_opt_move(w: np.ndarray, order: list[int], L: int) -> list[int] | None:
    """First improving relocation of a length-``L`` segment, or ``None``."""
    n = len(order)

    def edge(u: int, v: int) -> float:
        """Weight of the tour edge between positions ``u`` and ``v``."""
        return float(w[order[u], order[v]])

    for i in range(n - L + 1):
        j = i + L - 1  # segment is order[i..j]
        # cost removed when the segment is excised
        left, right = i - 1, j + 1
        removed = 0.0
        if left >= 0:
            removed += edge(left, i)
        if right <= n - 1:
            removed += edge(j, right)
        bridge = edge(left, right) if (left >= 0 and right <= n - 1) else 0.0
        gain_remove = removed - bridge
        if gain_remove <= _EPS:
            continue
        rest = order[:i] + order[j + 1 :]
        seg = order[i : j + 1]
        # try inserting seg (both orientations) at every gap of `rest`
        for pos in range(len(rest) + 1):
            if pos == i:  # same place, same orientation = identity
                candidates = (seg[::-1],) if L > 1 else ()
            else:
                candidates = (seg, seg[::-1]) if L > 1 else (seg,)
            for s in candidates:
                add = 0.0
                if pos > 0:
                    add += float(w[rest[pos - 1], s[0]])
                if pos < len(rest):
                    add += float(w[s[-1], rest[pos]])
                bridge_removed = (
                    float(w[rest[pos - 1], rest[pos]])
                    if 0 < pos < len(rest)
                    else 0.0
                )
                delta = add - bridge_removed - gain_remove
                if delta < -_EPS:
                    return rest[:pos] + s + rest[pos:]
    return None


def three_opt_path(instance: TSPInstance, start: HamPath) -> HamPath:
    """3-opt-lite: alternate best-improvement 2-opt and Or-opt to a joint optimum.

    Segment relocation (Or-opt) plus segment reversal (2-opt) covers the
    practically important subset of 3-opt reconnections; the full 7-case
    3-opt brings little extra at reduction-instance scale.  Kept under the
    classic name so engine tables read naturally.
    """
    cur = start
    for _ in range(MAX_ROUNDS):
        improved = two_opt_path(instance, cur)
        improved = or_opt_path(instance, improved)
        if improved.length >= cur.length - _EPS:
            return improved
        cur = improved
    return cur

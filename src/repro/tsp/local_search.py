"""Local search for Hamiltonian paths: 2-opt, Or-opt, and a 3-opt-lite.

All moves are specialized to the *path* objective (no wrap-around edge), with
the segment-touches-endpoint cases handled separately — a subtle point that
cycle-oriented implementations get wrong.  Both inner loops are vectorized:
2-opt evaluates every reversal as one ``O(n^2)`` NumPy kernel per
improvement step, and Or-opt evaluates every (start, gap, orientation) of
one segment length as one delta tensor, taking its first improving entry in
scan order so the moves stay first-improvement.
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
    """First improving relocation of a length-``L`` segment, or ``None``.

    Every (segment start ``i``, insertion gap ``pos``, orientation) is one
    entry of a ``(n-L+1) x (n-L+1) x 2`` delta tensor, kept only for the
    starts whose excision gains anything (and with one orientation when
    ``L == 1``, where reversing changes nothing).  The path left after
    cutting ``order[i..i+L-1]`` is ``rest[i, k] = order[k + L*(k >= i)]``;
    the move inserts the segment (forward, then reversed) in front of
    ``rest[i, pos]``.  The first entry below ``-eps`` in C order is the
    move a start/gap/orientation scan would meet first, so this is
    first-improvement Or-opt, one kernel per call.
    """
    o = np.asarray(order, dtype=np.intp)
    n = len(o)
    m = n - L  # length of the remaining path
    head, tail = o[: m + 1], o[L - 1 :]  # segment ends, per start

    # excision gain per start: removed edges minus the bridging edge
    removed = np.zeros(m + 1)
    removed[1:] += w[o[:m], head[1:]]
    removed[:-1] += w[tail[:-1], o[L:]]
    bridge = np.zeros(m + 1)
    bridge[1:-1] = w[o[: m - 1], o[L + 1 :]]
    gain = removed - bridge
    rows = np.flatnonzero(gain > _EPS)
    if len(rows) == 0:
        return None

    k = np.arange(m)
    rest = o[k[None, :] + L * (k[None, :] >= rows[:, None])]
    # rest[:, pos-1] and rest[:, pos] for every gap pos in 0..m (clamped
    # at the ends, where the has_prev / has_next masks zero the edge out)
    gaps = np.arange(m + 1)
    prev = rest[:, np.maximum(gaps - 1, 0)]
    nxt = rest[:, np.minimum(gaps, m - 1)]
    has_prev, has_next = gaps > 0, gaps < m
    bridge_removed = np.where(has_prev & has_next, w[prev, nxt], 0.0)
    h, t = head[rows, None], tail[rows, None]
    ends = ((h, t), (t, h)) if L > 1 else ((h, t),)
    delta = np.stack(
        [
            (
                np.where(has_prev, w[prev, first], 0.0)
                + np.where(has_next, w[last, nxt], 0.0)
                - bridge_removed
            )
            - gain[rows, None]
            for first, last in ends
        ],
        axis=-1,
    )
    delta[np.arange(len(rows)), rows, 0] = np.inf  # identity: same gap, forward

    hit = delta < -_EPS
    flat = int(np.argmax(hit))
    if not hit.flat[flat]:
        return None
    r, pos, rev = np.unravel_index(flat, delta.shape)
    i = int(rows[r])
    seg = order[i : i + L]
    kept = rest[r].tolist()
    return kept[:pos] + (seg[::-1] if rev else seg) + kept[pos:]


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

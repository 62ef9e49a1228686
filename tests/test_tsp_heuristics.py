"""Construction heuristics and local search: validity + quality ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import REGISTRY
from repro.tsp.construction import (
    best_nearest_neighbor_path,
    cheapest_insertion_cycle,
    cycle_to_path,
    farthest_insertion_cycle,
    greedy_edge_path,
    nearest_neighbor_path,
)
from repro.tsp.held_karp import held_karp_path
from repro.tsp.instance import TSPInstance
from repro.tsp.lin_kernighan import lk_style_path, _double_bridge
from repro.tsp.local_search import (
    _first_or_opt_move,
    or_opt_path,
    three_opt_path,
    two_opt_path,
)
from repro.tsp.mst import mst_weight
from repro.tsp.tour import HamPath


def _valid(path, n):
    return sorted(path.order) == list(range(n))


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
    def test_nearest_neighbor_valid(self, n):
        inst = TSPInstance.random_metric(n, seed=0)
        assert _valid(nearest_neighbor_path(inst, 0), n)

    def test_nn_start_respected(self):
        inst = TSPInstance.random_metric(6, seed=1)
        assert nearest_neighbor_path(inst, 3).order[0] == 3

    def test_best_nn_at_least_single_nn(self):
        inst = TSPInstance.random_metric(10, seed=2)
        assert (
            best_nearest_neighbor_path(inst).length
            <= nearest_neighbor_path(inst, 0).length + 1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
    def test_greedy_edge_valid(self, n):
        inst = TSPInstance.random_metric(n, seed=3)
        assert _valid(greedy_edge_path(inst), n)

    def test_insertions_valid(self):
        inst = TSPInstance.random_metric(12, seed=4)
        for builder in (cheapest_insertion_cycle, farthest_insertion_cycle):
            tour = builder(inst)
            assert sorted(tour.order) == list(range(12))
            path = cycle_to_path(inst, tour)
            assert _valid(path, 12)
            assert path.length <= tour.length + 1e-12


class TestLocalSearch:
    def test_two_opt_never_worsens(self):
        for seed in range(5):
            inst = TSPInstance.random_metric(12, seed=seed)
            start = nearest_neighbor_path(inst, 0)
            out = two_opt_path(inst, start)
            assert out.length <= start.length + 1e-12 and _valid(out, 12)

    def test_or_opt_never_worsens(self):
        for seed in range(5):
            inst = TSPInstance.random_metric(12, seed=seed)
            start = nearest_neighbor_path(inst, 0)
            out = or_opt_path(inst, start)
            assert out.length <= start.length + 1e-12 and _valid(out, 12)

    def test_three_opt_dominates_both(self):
        inst = TSPInstance.random_metric(14, seed=6)
        start = nearest_neighbor_path(inst, 0)
        t3 = three_opt_path(inst, start)
        assert t3.length <= two_opt_path(inst, start).length + 1e-12
        assert t3.length <= or_opt_path(inst, start).length + 1e-12

    def test_two_opt_fixes_crossing(self):
        # a path with an obvious crossing that one reversal repairs
        pts = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
        w = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        inst = TSPInstance(w)
        bad = HamPath.from_order(inst, [0, 2, 1, 3])
        fixed = two_opt_path(inst, bad)
        assert fixed.length == pytest.approx(3.0)

    def test_small_instances_pass_through(self):
        inst = TSPInstance.random_metric(2, seed=0)
        p = HamPath.from_order(inst, [0, 1])
        assert two_opt_path(inst, p).order == (0, 1)
        assert or_opt_path(inst, p).order == (0, 1)


class TestLKStyle:
    def test_optimal_on_small(self):
        for seed in range(6):
            inst = TSPInstance.random_metric(9, seed=seed)
            lk = lk_style_path(inst, kicks=15, seed=0)
            assert lk.length == pytest.approx(held_karp_path(inst).length)

    def test_deterministic_given_seed(self):
        inst = TSPInstance.random_metric(15, seed=7)
        a = lk_style_path(inst, kicks=10, seed=42)
        b = lk_style_path(inst, kicks=10, seed=42)
        assert a.order == b.order

    def test_kicks_zero_is_descent(self):
        inst = TSPInstance.random_metric(12, seed=8)
        p = lk_style_path(inst, kicks=0, seed=0)
        assert _valid(p, 12)

    def test_more_kicks_never_hurt(self):
        inst = TSPInstance.random_metric(16, seed=9)
        few = lk_style_path(inst, kicks=2, seed=1)
        many = lk_style_path(inst, kicks=30, seed=1)
        assert many.length <= few.length + 1e-12

    def test_double_bridge_is_permutation(self):
        inst = TSPInstance.random_metric(12, seed=10)
        p = nearest_neighbor_path(inst, 0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            kicked = _double_bridge(inst, p, rng)
            assert _valid(kicked, 12)

    def test_tiny_instances(self):
        for n in (1, 2, 3):
            inst = TSPInstance.random_metric(n, seed=0)
            assert _valid(lk_style_path(inst, kicks=3, seed=0), n)

    @staticmethod
    def _kicks_run(inst, **kwargs):
        before = REGISTRY.value("repro_lk_kicks_total")
        path = lk_style_path(inst, **kwargs)
        return path, REGISTRY.value("repro_lk_kicks_total") - before

    def test_start_at_mst_bound_runs_no_kicks(self):
        # weight-1 edges along 0-1-...-9, weight 2 elsewhere: the start path
        # is a spanning tree, so it meets the MST bound before any kick
        n = 10
        w = np.full((n, n), 2.0)
        np.fill_diagonal(w, 0.0)
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0
        inst = TSPInstance(w)
        start = HamPath.from_order(inst, list(range(n)))
        path, kicks = self._kicks_run(inst, kicks=20, seed=0, start=start)
        assert kicks == 0
        assert path.length == mst_weight(inst) == n - 1

    def test_uncertified_instance_runs_every_kick(self):
        # a weight-1 star: the MST (n-1) is below every path (2 + 2(n-3))
        n = 10
        w = np.full((n, n), 2.0)
        np.fill_diagonal(w, 0.0)
        w[0, 1:] = w[1:, 0] = 1.0
        inst = TSPInstance(w)
        path, kicks = self._kicks_run(inst, kicks=7, seed=0)
        assert kicks == 7
        assert path.length == 2 * n - 4


# ---------------------------------------------------------------------------
# reference kernels: the vectorized engine code must make the same moves
# ---------------------------------------------------------------------------
_EPS = 1e-10


def _scalar_first_or_opt_move(w, order, L):
    """Reference Or-opt kernel: scan (start, gap, orientation) one by one."""
    n = len(order)

    def edge(u, v):
        return float(w[order[u], order[v]])

    for i in range(n - L + 1):
        j = i + L - 1  # segment is order[i..j]
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
                    float(w[rest[pos - 1], rest[pos]]) if 0 < pos < len(rest) else 0.0
                )
                delta = add - bridge_removed - gain_remove
                if delta < -_EPS:
                    return rest[:pos] + s + rest[pos:]
    return None


def _full_kick_lk(instance, kicks, seed):
    """Reference chained LK: descent plus every kick, no early stop."""
    rng = np.random.default_rng(seed)
    start = min(
        [greedy_edge_path(instance), nearest_neighbor_path(instance, 0)],
        key=lambda p: p.length,
    )
    best = three_opt_path(instance, start)
    cur = best
    for _ in range(kicks):
        improved = three_opt_path(instance, _double_bridge(instance, cur, rng))
        if improved.length < cur.length - _EPS:
            cur = improved
        if improved.length < best.length - _EPS:
            best = improved
    return best


def _symmetric(rng, n, values):
    """Random symmetric weight matrix with a zero diagonal."""
    if values is None:
        w = rng.random((n, n))
    else:
        w = rng.choice(np.asarray(values, dtype=float), size=(n, n))
    w = np.triu(w, 1)
    return w + w.T


@st.composite
def _or_opt_cases(draw):
    n = draw(st.integers(2, 29))
    L = draw(st.integers(1, 3).filter(lambda v: v < n))
    values = draw(st.sampled_from([(1, 2), (1, 2, 3), None]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, L, values, seed


class TestReferenceKernels:
    @given(_or_opt_cases())
    @settings(max_examples=300, deadline=None)
    def test_or_opt_move_matches_scalar_scan(self, case):
        n, L, values, seed = case
        rng = np.random.default_rng(seed)
        w = _symmetric(rng, n, values)
        order = rng.permutation(n).tolist()
        assert _first_or_opt_move(w, order, L) == _scalar_first_or_opt_move(w, order, L)

    @pytest.mark.parametrize("seed", range(12))
    def test_lk_matches_full_kick_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 41))
        inst = TSPInstance(_symmetric(rng, n, (1, 2)))
        got = lk_style_path(inst, kicks=20, seed=seed)
        want = _full_kick_lk(inst, 20, seed)
        assert (got.order, got.length) == (want.order, want.length)

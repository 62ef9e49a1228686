"""Engine registry tests: every engine valid, exact ones exact, names stable,
outputs pinned."""

import hashlib

import pytest

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.labeling.spec import L21
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.tsp.held_karp import held_karp_path
from repro.tsp.instance import TSPInstance
from repro.tsp.mst import mst_weight, prim_mst
from repro.tsp.portfolio import (
    ENGINES,
    EXACT_ENGINES,
    GUARANTEED_ENGINES,
    get_engine,
    solve_path,
)


class TestRegistry:
    def test_all_engines_return_valid_paths(self):
        inst = TSPInstance.random_metric(9, seed=0)
        for name, engine in ENGINES.items():
            p = engine(inst)
            assert sorted(p.order) == list(range(9)), name
            assert p.length == pytest.approx(inst.path_length(p.order)), name

    def test_exact_engines_agree(self):
        for seed in range(3):
            inst = TSPInstance.random_metric(10, seed=seed)
            lengths = {e: ENGINES[e](inst).length for e in EXACT_ENGINES}
            vals = list(lengths.values())
            assert all(v == pytest.approx(vals[0]) for v in vals)

    def test_guaranteed_engines_respect_ratio(self):
        for seed in range(4):
            inst = TSPInstance.random_metric(10, seed=seed)
            opt = held_karp_path(inst).length
            for name, ratio in GUARANTEED_ENGINES.items():
                got = ENGINES[name](inst).length
                assert got <= ratio * opt + 1e-9, name

    def test_get_engine_unknown(self):
        with pytest.raises(ReproError, match="unknown engine"):
            get_engine("simulated_annealing")

    def test_solve_path_auto_small_is_exact(self):
        inst = TSPInstance.random_metric(8, seed=1)
        assert solve_path(inst, "auto").length == pytest.approx(
            held_karp_path(inst).length
        )

    def test_solve_path_auto_large_uses_heuristic(self):
        inst = TSPInstance.random_metric(30, seed=1)
        p = solve_path(inst, "auto")
        assert sorted(p.order) == list(range(30))

    def test_engine_name_stability(self):
        # the harness, CLI and docs reference these names
        for name in [
            "held_karp", "branch_bound", "hoogeveen", "christofides_path",
            "double_tree", "lk", "lk_long", "three_opt", "or_opt", "two_opt",
            "greedy_edge", "farthest_insertion", "nearest_neighbor",
            "best_nearest_neighbor",
        ]:
            assert name in ENGINES


#: SHA-256 over every engine's path, plus the MST edges and weight, on
#: ``_digest_instances()``.  Refactors and speed-ups of the engine layer
#: must keep it: a changed digest means some engine returns a different
#: path or length than before.
ENGINE_OUTPUT_DIGEST = (
    "09eaf270263e27db02084dd5f88ef883045093ae46091606dd35adef22f5413b"
)


def _digest_instances():
    """Euclidean, two-valued and Theorem-2 reduction instances, all fixed."""
    graph = gen.random_graph_with_diameter_at_most(12, 2, seed=3)
    return [
        TSPInstance.random_metric(10, seed=0),
        TSPInstance.random_two_valued(12, 1.0, 2.0, seed=2),
        reduce_to_path_tsp(graph, L21).instance,
    ]


def test_engine_outputs_are_pinned():
    h = hashlib.sha256()
    for inst in _digest_instances():
        for name, engine in ENGINES.items():
            p = engine(inst)
            order = tuple(int(v) for v in p.order)
            h.update(repr((name, order, float(p.length).hex())).encode())
        mst = (prim_mst(inst), float(mst_weight(inst)).hex())
        h.update(repr(mst).encode())
    assert h.hexdigest() == ENGINE_OUTPUT_DIGEST

"""Engine registry: every path-TSP solver behind one signature.

The high-level labeling solver (:mod:`repro.reduction.solver`), the CLI, the
examples and the benchmark harness all select engines by name from this
table, so adding an engine in one place makes it available everywhere.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.tsp.annealing import simulated_annealing_path
from repro.tsp.branch_bound import branch_and_bound_path
from repro.tsp.christofides import christofides_cycle
from repro.tsp.construction import (
    best_nearest_neighbor_path,
    cycle_to_path,
    farthest_insertion_cycle,
    greedy_edge_path,
    nearest_neighbor_path,
)
from repro.tsp.double_tree import double_tree_path
from repro.tsp.held_karp import held_karp_path
from repro.tsp.hoogeveen import hoogeveen_path
from repro.tsp.instance import TSPInstance
from repro.tsp.lin_kernighan import lk_style_path
from repro.tsp.local_search import or_opt_path, three_opt_path, two_opt_path
from repro.tsp.tour import HamPath

PathEngine = Callable[[TSPInstance], HamPath]


def _nn(inst: TSPInstance) -> HamPath:
    """Engine: nearest-neighbour construction."""
    return nearest_neighbor_path(inst, 0)


def _nn_two_opt(inst: TSPInstance) -> HamPath:
    """Engine: nearest-neighbour + 2-opt polish."""
    return two_opt_path(inst, nearest_neighbor_path(inst, 0))


def _greedy_or_opt(inst: TSPInstance) -> HamPath:
    """Engine: greedy-edge construction + Or-opt moves."""
    return or_opt_path(inst, greedy_edge_path(inst))


def _greedy_three_opt(inst: TSPInstance) -> HamPath:
    """Engine: greedy-edge construction + 3-opt polish."""
    return three_opt_path(inst, greedy_edge_path(inst))


def _christofides_path(inst: TSPInstance) -> HamPath:
    """Christofides cycle opened at its heaviest edge (path heuristic)."""
    return cycle_to_path(inst, christofides_cycle(inst))


def _farthest_insertion_path(inst: TSPInstance) -> HamPath:
    """Engine: farthest-insertion cycle opened into a path."""
    return cycle_to_path(inst, farthest_insertion_cycle(inst))


def _anneal(inst: TSPInstance) -> HamPath:
    """Engine: seeded simulated annealing."""
    return simulated_annealing_path(inst, seed=0)


def _lk(inst: TSPInstance) -> HamPath:
    """Engine: LK-style iterated local search (20 kicks)."""
    return lk_style_path(inst, kicks=20, seed=0)


def _lk_long(inst: TSPInstance) -> HamPath:
    """Engine: LK-style iterated local search (100 kicks)."""
    return lk_style_path(inst, kicks=100, seed=0)


#: name -> engine.  Exact engines first, then guaranteed approximations,
#: then plain heuristics, roughly by expected quality.
ENGINES: dict[str, PathEngine] = {
    "held_karp": held_karp_path,
    "branch_bound": branch_and_bound_path,
    "hoogeveen": hoogeveen_path,
    "christofides_path": _christofides_path,
    "double_tree": double_tree_path,
    "lk": _lk,
    "lk_long": _lk_long,
    "anneal": _anneal,
    "three_opt": _greedy_three_opt,
    "or_opt": _greedy_or_opt,
    "two_opt": _nn_two_opt,
    "greedy_edge": greedy_edge_path,
    "farthest_insertion": _farthest_insertion_path,
    "nearest_neighbor": _nn,
    "best_nearest_neighbor": best_nearest_neighbor_path,
}

#: engines guaranteed to return the optimum
EXACT_ENGINES = ("held_karp", "branch_bound")

#: engines with a proven worst-case ratio on metric inputs
GUARANTEED_ENGINES = {"hoogeveen": 1.5, "christofides_path": 2.0, "double_tree": 2.0}
# (christofides_path: the 1.5 cycle guarantee degrades when the cycle is
#  opened; 2.0 is the safe bound we assert on.)


def get_engine(name: str) -> PathEngine:
    """Look up an engine by name; raises with the list of known names."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ReproError(
            f"unknown engine {name!r}; known engines: {', '.join(ENGINES)}"
        ) from None


def resolve_engine(engine: str, n: int) -> str:
    """The engine that runs for ``engine`` on ``n`` vertices.

    ``auto`` uses Held–Karp up to 15 vertices and the LK-style heuristic
    beyond — matching how the paper proposes the framework be used; any
    other name is returned unchanged.

    >>> resolve_engine("auto", 15), resolve_engine("auto", 16)
    ('held_karp', 'lk')
    """
    if engine == "auto":
        return "held_karp" if n <= 15 else "lk"
    return engine


def solve_path(instance: TSPInstance, engine: str = "auto") -> HamPath:
    """Solve path TSP with the named engine (see :func:`resolve_engine`)."""
    return get_engine(resolve_engine(engine, instance.n))(instance)

"""TSP substrate: instances, exact solvers, approximations, heuristics.

The paper reduces ``L(p)``-labeling to METRIC PATH TSP and then leans on the
TSP literature.  This subpackage is that literature in miniature, implemented
from scratch:

* exact: Held–Karp dynamic programming (``O(2^n n^2)``, n <= 20),
  branch-and-bound (n <= 16); past its cap each raises
  :class:`~repro.errors.InstanceTooLargeError`;
* guaranteed approximations: Christofides (cycle, 1.5), Hoogeveen (path with
  free endpoints, 1.5), double-tree (2);
* heuristics: nearest-neighbour, greedy-edge, insertion constructions, 2-opt,
  Or-opt, 3-opt local search, and an LK-style iterated local search standing
  in for LKH/Concorde (the substitution ARCHITECTURE.md notes);
* support: one dense Prim MST kernel (also the ``MST <= OPT_path`` lower
  bound), minimum-weight perfect matching (exact bitmask DP plus
  heuristic), Eulerian trails with shortcutting.

Each engine has one configuration: schedules, round caps and segment
lengths are module constants, and the metric check of the guaranteed
approximations always runs.  The parameters left are the LK kick count,
seed and warm start, the nearest-neighbour start vertex, the annealing
seed and the matching's exact-size cutoff.
"""

from repro.tsp.instance import TSPInstance
from repro.tsp.tour import HamPath, Tour
from repro.tsp.held_karp import held_karp_path, held_karp_cycle
from repro.tsp.branch_bound import branch_and_bound_path
from repro.tsp.construction import (
    nearest_neighbor_path,
    greedy_edge_path,
    cheapest_insertion_cycle,
    farthest_insertion_cycle,
    cycle_to_path,
)
from repro.tsp.local_search import two_opt_path, or_opt_path, three_opt_path
from repro.tsp.lin_kernighan import lk_style_path
from repro.tsp.mst import prim_mst
from repro.tsp.matching import min_weight_perfect_matching, min_weight_near_perfect_matching
from repro.tsp.eulerian import eulerian_circuit, eulerian_trail, shortcut
from repro.tsp.christofides import christofides_cycle
from repro.tsp.hoogeveen import hoogeveen_path
from repro.tsp.double_tree import double_tree_cycle, double_tree_path
from repro.tsp.annealing import simulated_annealing_path
from repro.tsp.portfolio import ENGINES, get_engine, solve_path
from repro.tsp import tsplib

__all__ = [
    "TSPInstance",
    "HamPath",
    "Tour",
    "held_karp_path",
    "held_karp_cycle",
    "branch_and_bound_path",
    "nearest_neighbor_path",
    "greedy_edge_path",
    "cheapest_insertion_cycle",
    "farthest_insertion_cycle",
    "cycle_to_path",
    "two_opt_path",
    "or_opt_path",
    "three_opt_path",
    "lk_style_path",
    "prim_mst",
    "min_weight_perfect_matching",
    "min_weight_near_perfect_matching",
    "eulerian_circuit",
    "eulerian_trail",
    "shortcut",
    "christofides_cycle",
    "hoogeveen_path",
    "double_tree_cycle",
    "double_tree_path",
    "ENGINES",
    "get_engine",
    "solve_path",
    "simulated_annealing_path",
    "tsplib",
]

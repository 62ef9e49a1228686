"""The paper's contribution: L(p)-labeling -> Metric Path TSP.

* :mod:`repro.reduction.validation` — Theorem 2's preconditions.
* :mod:`repro.reduction.to_tsp` — the ``O(nm)`` reduction itself.
* :mod:`repro.reduction.from_tour` — Claim 1: permutation -> optimal labeling.
* :mod:`repro.reduction.solver` — the end-to-end facade with engine choice.
"""

from repro.reduction.validation import (
    check_applicable,
    is_applicable,
    ApplicabilityReport,
)
from repro.reduction.to_tsp import reduce_to_path_tsp, ReducedInstance
from repro.reduction.from_tour import labeling_from_order, span_for_order
from repro.reduction.solver import SolveResult, solve_labeling

__all__ = [
    "check_applicable",
    "is_applicable",
    "ApplicabilityReport",
    "reduce_to_path_tsp",
    "ReducedInstance",
    "labeling_from_order",
    "span_for_order",
    "SolveResult",
    "solve_labeling",
]

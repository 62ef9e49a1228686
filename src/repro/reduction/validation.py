"""Theorem 2 applicability: connected, ``diam(G) <= k``, ``p_max <= 2 p_min``.

The reduction is *only* correct under these preconditions (the paper's
Claim 1 uses both inequalities), so the solver refuses loudly instead of
returning silently-wrong answers when they fail.

All distance facts come from the shared :class:`~repro.graphs.analysis.
GraphAnalysis` oracle: connectivity is a single-BFS pre-check (disconnected
input is rejected without paying for APSP), and the distance matrix behind
``diameter`` is the same one the reduction, verification and canonical-form
layers reuse — one APSP per graph version, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReductionNotApplicableError
from repro.graphs.analysis import GraphAnalysis, get_analysis
from repro.graphs.graph import Graph
from repro.labeling.spec import LpSpec


@dataclass(frozen=True)
class ApplicabilityReport:
    """Outcome of the precondition check, carrying the reusable analysis."""

    connected: bool
    diameter: int | None          # None when disconnected
    k: int
    pmin: int
    pmax: int
    analysis: GraphAnalysis

    @property
    def distances(self) -> np.ndarray:
        """The graph's distance matrix (lazy; shared through the oracle)."""
        return self.analysis.distances

    @property
    def diameter_ok(self) -> bool:
        """Whether diam(G) <= len(p), the Theorem-2 depth precondition."""
        return self.diameter is not None and self.diameter <= self.k

    @property
    def weights_ok(self) -> bool:
        """Whether 1 <= p_min and p_max <= 2*p_min (metricity condition)."""
        return self.pmin >= 1 and self.pmax <= 2 * self.pmin

    @property
    def applicable(self) -> bool:
        """All preconditions together: connected, diameter and weights."""
        return self.connected and self.diameter_ok and self.weights_ok

    def reason(self) -> str:
        """Human-readable explanation of the first failing precondition."""
        if not self.connected:
            return "graph is disconnected"
        if not self.diameter_ok:
            return f"diam(G) = {self.diameter} exceeds k = {self.k}"
        if not self.weights_ok:
            return (
                f"p_max = {self.pmax} > 2 * p_min = {2 * self.pmin}"
                if self.pmin >= 1
                else f"p_min = {self.pmin} must be >= 1"
            )
        return "applicable"


def analyze(graph: Graph, spec: LpSpec) -> ApplicabilityReport:
    """Compute the report off the graph's memoized oracle.

    Disconnected graphs short-circuit on the single-BFS connectivity check;
    the APSP only runs (through the oracle, hence at most once per graph
    version) when the diameter is actually needed.
    """
    a = get_analysis(graph)
    connected = a.is_connected
    diam = a.diameter if connected else None
    return ApplicabilityReport(
        connected=connected,
        diameter=diam,
        k=spec.k,
        pmin=spec.pmin,
        pmax=spec.pmax,
        analysis=a,
    )


def is_applicable(graph: Graph, spec: LpSpec) -> bool:
    """True iff Theorem 2's preconditions hold for ``(G, p)``."""
    return analyze(graph, spec).applicable


def check_applicable(graph: Graph, spec: LpSpec) -> ApplicabilityReport:
    """Return the report, raising :class:`ReductionNotApplicableError` if bad."""
    report = analyze(graph, spec)
    if not report.applicable:
        raise ReductionNotApplicableError(
            f"Theorem 2 reduction not applicable: {report.reason()}"
        )
    return report

"""repro — L(p)-labeling of small-diameter graphs via Metric Path TSP.

Reproduction of Hanaka, Ono & Sugiyama, *Solving Distance-constrained
Labeling Problems for Small Diameter Graphs via TSP* (IPDPS-W 2023,
arXiv:2303.01290).

Quickstart
----------
>>> from repro import Graph, L21, solve_labeling
>>> g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # C5, diam 2
>>> result = solve_labeling(g, L21)
>>> result.span
4

See ``ARCHITECTURE.md`` at the repository root for the layer map (graphs,
labeling, reduction, TSP engines, partition, service, harness) and
``ROADMAP.md`` for the north star and open items.
"""

from repro.errors import (
    ReproError,
    GraphError,
    DisconnectedGraphError,
    ReductionNotApplicableError,
    InfeasibleInstanceError,
    InstanceTooLargeError,
    SolverError,
    NotMetricError,
    RequestValidationError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashedError,
    ERROR_TABLE,
    error_code,
    error_payload,
    http_status,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import diameter, all_pairs_distances
from repro.labeling.spec import LpSpec, L21, L11, all_ones
from repro.labeling.labeling import Labeling
from repro.dynamic import DeltaEngine, full_apsp_refresh_count
from repro.reduction.solver import SolveResult, solve_labeling
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.service.api import solve_record
from repro.service.cache import CacheStats
from repro.service.canonical import CanonicalForm, canonical_form
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.server import ConcurrentLabelingService, ServerStats
from repro.service.shard import ShardedResultCache
from repro.session import LabelingSession
from repro.tsp.instance import TSPInstance
from repro.tsp.portfolio import ENGINES, solve_path

#: Perf subsystem re-exports, resolved lazily (PEP 562): the suite pulls in
#: the whole measurement stack, which plain `import repro` users never pay.
_PERF_EXPORTS = ("PerfRecord", "Trajectory", "run_perf_suite")

#: Network-tier re-exports, also lazy: the HTTP server and load generator
#: drag in asyncio machinery that library users never touch.
_NET_EXPORTS = ("NetworkServer", "BackgroundServer", "run_load")


def __getattr__(name: str):
    """Lazily resolve the perf- and net-subsystem re-exports (PEP 562)."""
    if name in _PERF_EXPORTS:
        from repro import perf

        return getattr(perf, name)
    if name in _NET_EXPORTS:
        if name == "run_load":
            from repro.harness.loadgen import run_load

            return run_load
        from repro import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "diameter",
    "all_pairs_distances",
    "LpSpec",
    "L21",
    "L11",
    "all_ones",
    "Labeling",
    "SolveResult",
    "solve_labeling",
    "LabelingSession",
    "solve_record",
    "SolveRequest",
    "SolveResponse",
    "NetworkServer",
    "BackgroundServer",
    "run_load",
    "CacheStats",
    "ShardedResultCache",
    "ConcurrentLabelingService",
    "ServerStats",
    "CanonicalForm",
    "canonical_form",
    "DeltaEngine",
    "full_apsp_refresh_count",
    "PerfRecord",
    "Trajectory",
    "run_perf_suite",
    "reduce_to_path_tsp",
    "TSPInstance",
    "ENGINES",
    "solve_path",
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "ReductionNotApplicableError",
    "InfeasibleInstanceError",
    "InstanceTooLargeError",
    "SolverError",
    "NotMetricError",
    "RequestValidationError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "WorkerCrashedError",
    "ERROR_TABLE",
    "error_code",
    "error_payload",
    "http_status",
    "__version__",
]

"""Request-level labeling service with a canonical-graph result cache.

Layer map (bottom up):

* :mod:`repro.service.canonical` — relabeling-invariant canonical forms and
  stable cache keys for ``(Graph, LpSpec)`` requests;
* :mod:`repro.service.cache` — the cache entry and stats types and the
  persisted file-format version;
* :mod:`repro.service.shard` — the result cache: one exact LRU behind
  one lock, with JSON persistence and the lock-contention stats the perf
  baseline gates;
* :mod:`repro.service.protocol` — the ``SolveRequest``/``SolveResponse``
  schema every service speaks, in process and on the wire;
* :mod:`repro.service.api` — :func:`solve_graph`, the one solve recipe
  (run inline and, through :func:`solve_buffers`, in pool workers), the
  cache-key and answer-translation helpers, and the shared JSON record;
* :mod:`repro.service.server` — :class:`ConcurrentLabelingService`, the
  one front end (sessions, the CLI, the HTTP tier, experiments and
  benchmarks all route through it): bounded submission queue, worker
  pool (exact solves run in the persistent process pool on multi-core
  hosts),
  in-flight dedup, backpressure and graceful shutdown.
"""

from repro.service.api import solve_graph, solve_record
from repro.service.cache import CachedSolve, CacheStats
from repro.service.canonical import CanonicalForm, canonical_form, canonical_order
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.server import ConcurrentLabelingService, ServerStats
from repro.service.shard import ShardedResultCache

__all__ = [
    "solve_graph",
    "solve_record",
    "SolveRequest",
    "SolveResponse",
    "CachedSolve",
    "CacheStats",
    "ShardedResultCache",
    "ConcurrentLabelingService",
    "ServerStats",
    "CanonicalForm",
    "canonical_form",
    "canonical_order",
]

"""Small process-pool utilities (per the hpc-parallel guides).

The solvers here are pure CPU-bound Python/NumPy, so thread pools gain
nothing under the GIL; ``ProcessPoolExecutor`` with picklable top-level
functions is the right tool.  Everything submitted through this module must
therefore be a module-level callable plus plain-data arguments.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def effective_cpu_count() -> int:
    """CPUs this process may actually run on, at least 1.

    ``os.sched_getaffinity(0)`` respects cgroup/container CPU masks and
    ``taskset`` pinning, which bare ``os.cpu_count()`` ignores — under a
    pinned CI leg or a containerized runner the two can disagree by an
    order of magnitude, and every scaling decision (offload auto-detect,
    multi-core bench floors, perf provenance) must use the effective
    number.  Falls back to ``os.cpu_count()`` where affinity is
    unsupported (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_workers() -> int:
    """Effective CPU count with a small safety margin, at least 1."""
    return max(1, effective_cpu_count() - 1)


def chunked(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive chunks of ``size`` items (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for i in range(0, len(items), size):
        yield items[i : i + size]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Order-preserving parallel map over processes.

    ``fn`` must be picklable (module-level).  Falls back to a plain loop when
    only one worker is requested or there is at most one item (avoids pool
    start-up latency in the degenerate cases).
    """
    items = list(items)
    workers = workers or default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))

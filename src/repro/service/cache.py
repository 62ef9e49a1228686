"""Result-cache value types and the persisted file format.

The cache (:class:`~repro.service.shard.ShardedResultCache`) stores solved
labelings in *canonical coordinates* (see :mod:`repro.service.canonical`),
keyed by the canonical hash of the request.  This module holds what every
cache user shares: the entry type :class:`CachedSolve`, the lifetime
counters :class:`CacheStats`, and the version marker of the JSON file a
cache persists to, so a service restart (or a second CLI invocation
pointed at the same ``--cache`` file) starts warm.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CachedSolve:
    """One memoized solve, in canonical vertex coordinates.

    >>> entry = CachedSolve(labels=(0, 2, 4), span=4, engine="held_karp",
    ...                     exact=True)
    >>> CachedSolve.from_json(entry.to_json()) == entry
    True
    """

    labels: tuple[int, ...]      # canonical-coordinate labeling
    span: int
    engine: str                  # resolved engine that produced the labels
    exact: bool
    #: Certified optimality gap for approx-tier entries; ``None`` marks an
    #: exact-tier entry (the tier is recoverable from this field alone).
    gap: int | None = None

    def to_json(self) -> dict:
        """JSON form (labels as a list)."""
        return {
            "labels": list(self.labels),
            "span": self.span,
            "engine": self.engine,
            "exact": self.exact,
            "gap": self.gap,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CachedSolve":
        """Parse one persisted entry, coercing value types.

        ``gap`` is optional so cache files persisted before the approx
        tier existed still load.
        """
        gap = data.get("gap")
        return cls(
            labels=tuple(int(x) for x in data["labels"]),
            span=int(data["span"]),
            engine=str(data["engine"]),
            exact=bool(data["exact"]),
            gap=None if gap is None else int(gap),
        )


@dataclass
class CacheStats:
    """Counters for one cache's lifetime (monotone, never reset by eviction).

    >>> stats = CacheStats(hits=3, misses=1)
    >>> stats.lookups, stats.hit_rate
    (4, 0.75)
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        """JSON counters — the shape the perf trajectory records verbatim."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


#: Format marker for persisted cache files.
_PERSIST_VERSION = 1

"""The result cache: an LRU split over N independently locked shards.

Under concurrent serving one cache lock becomes the contention point —
every worker's lookup and every client's fast-path probe serialize on one
mutex even though they touch different keys.  :class:`ShardedResultCache`
splits the key space over ``shards`` independent LRU maps (stable CRC32 of
the key picks the shard), so two operations contend only when they land on
the same shard: with shards ≫ worker threads the probability is small and
the expected wait is a fraction of a single-lock design's.  ``shards=1``
*is* the single-lock design.

Each shard's lock additionally *counts contended acquisitions* (an acquire
that found the lock held), so the serving layer can report a
``shard_lock_wait`` rate — the perf baseline gates it: sharding the cache
must never become a regression in disguise.

Persistence is one JSON file (format version
:data:`~repro.service.cache._PERSIST_VERSION`), written by :meth:`save`
and merged on construction when ``path`` exists; the file does not depend
on the shard count, so any cache warms from any other cache's file.

>>> from repro.service.cache import CachedSolve
>>> c = ShardedResultCache(capacity=64, shards=4)
>>> c.put("a", CachedSolve((0, 2), 2, "lk", False))
>>> c.get("a").span
2
>>> c.get("missing") is None
True
>>> (c.stats.hits, c.stats.misses)
(1, 1)
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from collections import OrderedDict
from pathlib import Path

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY, CounterSet
from repro.service.cache import _PERSIST_VERSION, CachedSolve, CacheStats

#: Default shard count.  Sixteen shards keep the expected contention rate
#: under 1/16 per colliding pair while the per-shard overhead (a lock and an
#: OrderedDict) stays trivial.
DEFAULT_SHARDS = 16

#: Registry children behind every shard's counts, summed over every shard
#: of every cache; the keys are the :class:`CacheStats` fields.
_CACHE_COUNTERS = {
    "hits": REGISTRY.counter("repro_cache_hits_total").labels(),
    "misses": REGISTRY.counter("repro_cache_misses_total").labels(),
    "evictions": REGISTRY.counter("repro_cache_evictions_total").labels(),
    "puts": REGISTRY.counter("repro_cache_puts_total").labels(),
}


class _ContentionLock:
    """A mutex that counts total and contended acquisitions.

    Drop-in for ``threading.Lock`` as a context manager.  Both counters
    are incremented *while holding the lock*, so ``contended <=
    acquisitions`` exactly and any rate derived from them stays in
    ``[0, 1]``; reading them without the lock is a benign stale read (they
    are statistics).
    """

    __slots__ = ("_lock", "acquisitions", "contended")

    def __init__(self) -> None:
        """A fresh unlocked mutex with zeroed counters."""
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.contended = 0

    def __enter__(self) -> "_ContentionLock":
        """Acquire, counting the acquisition as contended if it waited."""
        if not self._lock.acquire(blocking=False):
            self._lock.acquire()
            self.contended += 1
        self.acquisitions += 1
        return self

    def __exit__(self, *exc) -> None:
        """Release the mutex."""
        self._lock.release()

    def locked(self) -> bool:
        """Whether the underlying mutex is currently held."""
        return self._lock.locked()


class _CacheShard:
    """One shard: an LRU map of :class:`CachedSolve` behind a counting lock.

    The critical sections are dictionary moves, so contention is
    negligible next to any solve.  ``counters`` holds the shard's
    lifetime :class:`CacheStats` counts.
    """

    def __init__(self, capacity: int) -> None:
        """An empty shard holding at most ``capacity`` entries."""
        self.capacity = capacity
        self._lock = _ContentionLock()
        self._entries: OrderedDict[str, CachedSolve] = OrderedDict()
        self.counters = CounterSet(_CACHE_COUNTERS)

    def get(self, key: str) -> CachedSolve | None:
        """Look up a key, counting a hit or miss and refreshing recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.counters.add(misses=1)
                return None
            self._entries.move_to_end(key)
            self.counters.add(hits=1)
            return entry

    def peek(self, key: str) -> CachedSolve | None:
        """Look up a key without touching stats or recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: CachedSolve) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        with self._lock:
            self.counters.add(puts=1)
            self._insert(key, value)

    def _load(self, key: str, value: CachedSolve) -> None:
        """Insert an entry read from a file: a put that counts no put."""
        with self._lock:
            self._insert(key, value)

    def _insert(self, key: str, value: CachedSolve) -> None:
        """Insert and evict the LRU overflow; the caller holds the lock."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.counters.add(evictions=1)

    def items(self) -> list[tuple[str, CachedSolve]]:
        """A snapshot of the live entries, LRU first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry (lifetime stats are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of live entries."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is cached (no stats or recency side effects)."""
        with self._lock:
            return key in self._entries

    @property
    def lock_contentions(self) -> int:
        """How many acquisitions of this shard's lock found it held."""
        return self._lock.contended


class ShardedResultCache:
    """LRU result cache split over independently locked shards.

    Parameters
    ----------
    capacity:
        Total entry budget.  It is split so the shard capacities sum to
        exactly ``capacity`` (the first ``capacity % shards`` shards hold
        one entry more); each shard evicts independently, so the total
        sits under ``capacity`` until every shard is full.
    shards:
        Number of independent locks/LRU maps, capped at ``capacity``.
        ``1`` is the single-lock design.
    path:
        Optional JSON persistence path: an existing file warm-starts the
        cache on construction; :meth:`save` writes it.
    """

    def __init__(
        self,
        capacity: int = 4096,
        shards: int = DEFAULT_SHARDS,
        path: str | Path | None = None,
    ) -> None:
        """Split ``capacity`` across ``shards`` independent LRU caches."""
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ReproError(f"shard count must be >= 1, got {shards}")
        shards = min(shards, capacity)  # a shard needs room for >= 1 entry
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        base, extra = divmod(capacity, shards)
        self._shards = tuple(
            _CacheShard(base + (i < extra)) for i in range(shards)
        )
        # Contention gauges sample this instance through a weak reference —
        # the most recently built sharded cache owns the gauge, and a
        # collected cache leaves the last sampled value behind instead of
        # being pinned alive by the registry.
        REGISTRY.gauge("repro_shard_contention_rate").set_function(
            lambda cache: cache.contention_rate, owner=self
        )
        REGISTRY.gauge("repro_shard_lock_contentions_total").set_function(
            lambda cache: cache.lock_contentions, owner=self
        )
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """The number of independent shards."""
        return len(self._shards)

    def _shard_for(self, key: str) -> _CacheShard:
        """Stable key→shard routing (CRC32, process-independent)."""
        return self._shards[zlib.crc32(key.encode("utf-8")) % len(self._shards)]

    # ------------------------------------------------------------------
    def get(self, key: str) -> CachedSolve | None:
        """Shard-local lookup, counting a hit or miss and refreshing recency."""
        return self._shard_for(key).get(key)

    def peek(self, key: str) -> CachedSolve | None:
        """Shard-local lookup without touching stats or recency."""
        return self._shard_for(key).peek(key)

    def put(self, key: str, value: CachedSolve) -> None:
        """Shard-local insert; eviction pressure never crosses shards."""
        self._shard_for(key).put(key, value)

    def clear(self) -> None:
        """Empty every shard (stats are lifetime counters and survive)."""
        for shard in self._shards:
            shard.clear()

    def __len__(self) -> int:
        """Live entries summed across shards."""
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is cached (single-shard check, no side effects)."""
        return key in self._shard_for(key)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Aggregate counters summed over every shard's lifetime stats."""
        per_shard = self.shard_stats()
        return CacheStats(**{
            name: sum(getattr(s, name) for s in per_shard)
            for name in _CACHE_COUNTERS
        })

    def shard_stats(self) -> list[CacheStats]:
        """Per-shard lifetime counters, in shard order."""
        return [CacheStats(**s.counters.snapshot()) for s in self._shards]

    @property
    def lock_contentions(self) -> int:
        """Total contended shard-lock acquisitions across all shards."""
        return sum(s.lock_contentions for s in self._shards)

    @property
    def contention_rate(self) -> float:
        """Contended acquisitions per lock acquisition (the gated metric).

        Numerator and denominator come from the same per-shard lock
        counters (every operation — ``get``/``peek``/``put``/``len``/
        persistence — counts), so the rate is exact, stays in ``[0, 1]``
        by construction, and is comparable across runs of different
        lengths.  The perf baseline gates this as ``shard_lock_wait``: it
        may never rise.
        """
        acquisitions = sum(s._lock.acquisitions for s in self._shards)
        return self.lock_contentions / acquisitions if acquisitions else 0.0

    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None) -> Path:
        """Persist every shard as one JSON file (atomic rename).

        Returns the path written: ``path`` when given, else the cache's
        own ``path``.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ReproError("no persistence path configured for this cache")
        entries = {
            k: v.to_json() for shard in self._shards for k, v in shard.items()
        }
        payload = {"version": _PERSIST_VERSION, "entries": entries}
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    def load(self, path: str | Path) -> int:
        """Merge entries from a JSON file, routing each to its shard.

        Returns how many entries the file held.  Unknown versions load
        zero entries (a key-derivation bump makes old entries unreachable
        anyway, so silently starting cold is correct).
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"unreadable cache file {source}: {exc}") from exc
        if payload.get("version") != _PERSIST_VERSION:
            return 0
        entries = payload.get("entries", {})
        try:
            decoded = {
                str(k): CachedSolve.from_json(d) for k, d in entries.items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed cache file {source}: {exc!r}") from exc
        for k, entry in decoded.items():
            self._shard_for(k)._load(k, entry)
        return len(entries)

"""The result cache: one exact LRU behind one counting lock.

:class:`ShardedResultCache` is an ``OrderedDict`` LRU of
:class:`~repro.service.cache.CachedSolve` holding at most ``capacity``
entries.  Every operation is one dictionary move under one
:class:`_ContentionLock`.  One lock, not a sharded set: no measurement
has shown the lock contend, and sharding made the LRU inexact.

The shard names date from that sharded layout, and two things keep them:

- ``servebench/replay.py`` and the public ``repro.ShardedResultCache``
  import the class by this name from this module;
- the perf baseline gates ``shard_lock_wait`` (it may never rise, and a
  missing gated metric is a violation).  The lock's counters,
  :attr:`~ShardedResultCache.lock_contentions`,
  :attr:`~ShardedResultCache.contention_rate` and the two
  ``repro_shard_*`` gauges feed it, so if the one lock ever starts to
  contend, that gate fails.

Persistence is one JSON file (format version
:data:`~repro.service.cache._PERSIST_VERSION`), written by :meth:`save`
and merged on construction when ``path`` exists.

>>> from repro.service.cache import CachedSolve
>>> c = ShardedResultCache(capacity=64)
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
from collections import OrderedDict
from pathlib import Path

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY, CounterSet
from repro.service.cache import _PERSIST_VERSION, CachedSolve, CacheStats

#: Registry children behind every cache's counts, summed over every cache;
#: the keys are the :class:`CacheStats` fields.
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


class ShardedResultCache:
    """Thread-safe LRU result cache holding at most ``capacity`` entries.

    Parameters
    ----------
    capacity:
        Entry budget; a put past it evicts the least recently used entry.
    path:
        Optional JSON persistence path: an existing file warm-starts the
        cache on construction; :meth:`save` writes it.
    """

    def __init__(
        self, capacity: int = 4096, path: str | Path | None = None
    ) -> None:
        """An empty cache, warm-started from ``path`` when it exists."""
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._lock = _ContentionLock()
        self._entries: OrderedDict[str, CachedSolve] = OrderedDict()
        self.counters = CounterSet(_CACHE_COUNTERS)
        # Contention gauges sample this instance through a weak reference —
        # the most recently built cache owns the gauge, and a collected
        # cache leaves the last sampled value behind instead of being
        # pinned alive by the registry.
        REGISTRY.gauge("repro_shard_contention_rate").set_function(
            lambda cache: cache.contention_rate, owner=self
        )
        REGISTRY.gauge("repro_shard_lock_contentions_total").set_function(
            lambda cache: cache.lock_contentions, owner=self
        )
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
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

    def _insert(self, key: str, value: CachedSolve) -> None:
        """Insert and evict the LRU overflow; the caller holds the lock."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.counters.add(evictions=1)

    def clear(self) -> None:
        """Drop every entry (stats are lifetime counters and survive)."""
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

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """The cache's lifetime counters."""
        return CacheStats(**self.counters.snapshot())

    @property
    def lock_contentions(self) -> int:
        """How many acquisitions of the cache lock found it held."""
        return self._lock.contended

    @property
    def contention_rate(self) -> float:
        """Contended acquisitions per lock acquisition (the gated metric).

        Numerator and denominator come from the same lock counters (every
        operation — ``get``/``peek``/``put``/``len``/persistence —
        counts), so the rate is exact, stays in ``[0, 1]`` by
        construction, and is comparable across runs of different lengths.
        The perf baseline gates this as ``shard_lock_wait``: it may never
        rise.
        """
        acquisitions = self._lock.acquisitions
        return self.lock_contentions / acquisitions if acquisitions else 0.0

    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None) -> Path:
        """Persist a snapshot of the entries as one JSON file (atomic rename).

        The snapshot is taken under the cache lock.  Returns the path
        written: ``path`` when given, else the cache's own ``path``.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ReproError("no persistence path configured for this cache")
        with self._lock:
            snapshot = list(self._entries.items())
        entries = {k: v.to_json() for k, v in snapshot}
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
        """Merge entries from a JSON file; loaded entries count no put.

        Returns how many entries the file held.  Unknown versions load
        zero entries (a key-derivation bump makes old entries unreachable
        anyway, so silently starting cold is correct).  A file that is not
        a JSON object, or whose ``entries`` is not one, raises
        :class:`~repro.errors.ReproError`.
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"unreadable cache file {source}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError(
                f"malformed cache file {source}: not a JSON object"
            )
        if payload.get("version") != _PERSIST_VERSION:
            return 0
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            raise ReproError(
                f"malformed cache file {source}: entries is not a JSON object"
            )
        try:
            decoded = {
                str(k): CachedSolve.from_json(d) for k, d in entries.items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed cache file {source}: {exc!r}") from exc
        with self._lock:
            for k, entry in decoded.items():
                self._insert(k, entry)
        return len(entries)

"""The LRU result cache: stats, eviction, persistence, the lock, threads."""

import json
import threading
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.service.cache import CachedSolve, CacheStats
from repro.service.shard import ShardedResultCache, _ContentionLock

#: A version-1 cache file written by the former single-lock cache class.
V1_FIXTURE = Path(__file__).parent / "data" / "cache_v1.json"


def entry(span: int = 2) -> CachedSolve:
    return CachedSolve(labels=(0, span), span=span, engine="lk", exact=False)


class TestLruBehavior:
    def test_hit_miss_counting(self):
        c = ShardedResultCache(capacity=4)
        assert c.get("a") is None
        c.put("a", entry(2))
        assert c.get("a").span == 2
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_basic_get_put_contains_len(self):
        c = ShardedResultCache(capacity=64)
        keys = [f"key-{i:03d}" for i in range(20)]
        for i, k in enumerate(keys):
            c.put(k, entry(i))
        assert len(c) == 20
        for i, k in enumerate(keys):
            assert k in c
            assert c.get(k).span == i
        assert c.get("absent") is None
        assert "absent" not in c
        assert c.peek(keys[0]).span == 0

    def test_stats_aggregate(self):
        c = ShardedResultCache(capacity=64)
        for i in range(12):
            c.put(f"k{i}", entry())
        hits = sum(c.get(f"k{i}") is not None for i in range(12))
        misses = sum(c.get(f"m{i}") is None for i in range(5))
        agg = c.stats
        assert (agg.hits, agg.misses, agg.puts) == (hits, misses, 12)
        assert agg.lookups == agg.hits + agg.misses

    def test_eviction_is_lru(self):
        c = ShardedResultCache(capacity=2)
        c.put("a", entry(1))
        c.put("b", entry(2))
        c.get("a")                      # refresh a; b is now LRU
        c.put("c", entry(3))
        assert "b" not in c and "a" in c and "c" in c
        assert c.stats.evictions == 1

    def test_put_refreshes_recency(self):
        c = ShardedResultCache(capacity=2)
        c.put("a", entry(1))
        c.put("b", entry(2))
        c.put("a", entry(9))            # re-put refreshes, evicting b next
        c.put("c", entry(3))
        assert "a" in c and "b" not in c
        assert c.peek("a").span == 9

    @pytest.mark.parametrize("capacity", [16, 64])
    def test_full_cache_holds_every_distinct_key(self, capacity):
        c = ShardedResultCache(capacity=capacity)
        keys = [f"key-{i}" for i in range(capacity)]
        for i, k in enumerate(keys):
            c.put(k, entry(i))
        assert len(c) == capacity
        assert all(k in c for k in keys)
        assert c.stats.evictions == 0

    @pytest.mark.parametrize("capacity", [10, 100])
    def test_overfilled_cache_holds_exactly_capacity(self, capacity):
        c = ShardedResultCache(capacity=capacity)
        for i in range(50 * capacity):
            c.put(f"key-{i}", entry(i))
        assert len(c) == capacity
        assert c.stats.evictions == 50 * capacity - capacity

    def test_peek_does_not_count(self):
        c = ShardedResultCache(capacity=2)
        c.put("a", entry(1))
        c.peek("a")
        c.peek("zzz")
        assert c.stats.lookups == 0

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            ShardedResultCache(capacity=0)

    def test_len_and_clear(self):
        c = ShardedResultCache(capacity=8)
        for i in range(5):
            c.put(str(i), entry(i))
        assert len(c) == 5
        c.clear()
        assert len(c) == 0

    def test_clear_keeps_lifetime_stats(self):
        c = ShardedResultCache(capacity=16)
        c.put("a", entry())
        assert c.get("a") is not None
        c.clear()
        assert len(c) == 0
        assert c.get("a") is None
        assert c.stats.puts == 1 and c.stats.hits == 1 and c.stats.misses == 1


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        c = ShardedResultCache(capacity=8, path=path)
        c.put("k1", CachedSolve((0, 2, 4), 4, "held_karp", True))
        c.put("k2", entry(7))
        c.save()
        warm = ShardedResultCache(capacity=8, path=path)
        assert len(warm) == 2
        got = warm.peek("k1")
        assert got == CachedSolve((0, 2, 4), 4, "held_karp", True)

    def test_save_to_explicit_path(self, tmp_path):
        c = ShardedResultCache(capacity=32)
        for i in range(10):
            c.put(f"k{i}", entry(i))
        out = c.save(tmp_path / "explicit.json")
        warm = ShardedResultCache(capacity=32, path=out)
        assert len(warm) == 10
        assert warm.peek("k7").span == 7

    def test_save_requires_path(self):
        with pytest.raises(ReproError):
            ShardedResultCache().save()

    def test_save_without_path_keeps_entries(self, tmp_path):
        c = ShardedResultCache(capacity=4)
        c.put("k", entry(3))
        with pytest.raises(ReproError):
            c.save()
        assert c.peek("k") == entry(3)
        assert list(tmp_path.iterdir()) == []
        out = c.save(tmp_path / "late.json")
        assert ShardedResultCache(capacity=4, path=out).peek("k") == entry(3)

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "cache.json"
        big = ShardedResultCache(capacity=16, path=path)
        for i in range(10):
            big.put(f"k{i}", entry(i))
        big.save()
        small = ShardedResultCache(capacity=3, path=path)
        assert len(small) == 3

    def test_loads_v1_file_written_by_single_lock_cache(self):
        raw = json.loads(V1_FIXTURE.read_text())["entries"]
        c = ShardedResultCache(path=V1_FIXTURE)
        assert len(c) == len(raw)
        for key, data in raw.items():
            assert c.peek(key) == CachedSolve.from_json(data)

    def test_unknown_version_starts_cold(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 999, "entries": {"x": {}}}')
        c = ShardedResultCache(capacity=4, path=path)
        assert len(c) == 0

    @pytest.mark.parametrize("body", [
        "not json{", "[1, 2]", '"str"', '{"version": 1, "entries": [1]}',
    ], ids=["not-json", "list", "string", "entries-list"])
    def test_corrupt_file_raises(self, tmp_path, body):
        path = tmp_path / "cache.json"
        path.write_text(body)
        with pytest.raises(ReproError):
            ShardedResultCache(capacity=4, path=path)

    def test_malformed_entries_raise(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1, "entries": {"k": {}}}')
        with pytest.raises(ReproError):
            ShardedResultCache(capacity=4, path=path)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            ShardedResultCache(capacity=8).load(bad)
        stale = tmp_path / "stale.json"
        stale.write_text('{"version": 999, "entries": {}}')
        assert ShardedResultCache(capacity=8).load(stale) == 0

    def test_missing_path_starts_cold(self, tmp_path):
        c = ShardedResultCache(capacity=4, path=tmp_path / "absent.json")
        assert len(c) == 0


class TestLock:
    def test_contention_lock_counts_contended_acquisitions(self):
        lock = _ContentionLock()
        with lock:
            assert lock.contended == 0
        in_first, release = threading.Event(), threading.Event()

        def holder():
            with lock:
                in_first.set()
                release.wait(timeout=5)

        t = threading.Thread(target=holder)
        t.start()
        assert in_first.wait(timeout=5)

        def contender():
            with lock:
                pass

        t2 = threading.Thread(target=contender)
        t2.start()
        while not lock.locked():  # pragma: no cover - immediate in practice
            pass
        release.set()
        t.join()
        t2.join()
        assert lock.contended == 1
        assert ShardedResultCache(capacity=8).lock_contentions == 0

    def test_contention_rate_bounds(self):
        c = ShardedResultCache(capacity=16)
        assert c.contention_rate == 0.0
        c.put("a", entry())
        c.get("a")
        assert 0.0 <= c.contention_rate <= 1.0


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        c = ShardedResultCache(capacity=64)
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(300):
                    key = f"k{(base * 7 + i) % 100}"
                    if c.get(key) is None:
                        c.put(key, entry(i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 64
        stats = c.stats
        assert stats.lookups == 8 * 300
        assert stats.hits + stats.misses == stats.lookups


class TestStats:
    def test_json_shape(self):
        s = CacheStats(hits=3, misses=1, evictions=2, puts=4)
        data = s.to_json()
        assert data == {
            "hits": 3, "misses": 1, "evictions": 2, "puts": 4,
            "lookups": 4, "hit_rate": 0.75,
        }

    def test_zero_lookups(self):
        assert CacheStats().hit_rate == 0.0

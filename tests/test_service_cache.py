"""LRU result cache (single shard): stats, eviction, persistence, threads."""

import threading

import pytest

from repro.errors import ReproError
from repro.service.cache import CachedSolve, CacheStats
from repro.service.shard import ShardedResultCache


def entry(span: int) -> CachedSolve:
    return CachedSolve(labels=(0, span), span=span, engine="lk", exact=False)


class TestLruBehavior:
    def test_hit_miss_counting(self):
        c = ShardedResultCache(shards=1, capacity=4)
        assert c.get("a") is None
        c.put("a", entry(2))
        assert c.get("a").span == 2
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_eviction_is_lru(self):
        c = ShardedResultCache(shards=1, capacity=2)
        c.put("a", entry(1))
        c.put("b", entry(2))
        c.get("a")                      # refresh a; b is now LRU
        c.put("c", entry(3))
        assert "b" not in c and "a" in c and "c" in c
        assert c.stats.evictions == 1

    def test_put_refreshes_recency(self):
        c = ShardedResultCache(shards=1, capacity=2)
        c.put("a", entry(1))
        c.put("b", entry(2))
        c.put("a", entry(9))            # re-put refreshes, evicting b next
        c.put("c", entry(3))
        assert "a" in c and "b" not in c
        assert c.peek("a").span == 9

    def test_peek_does_not_count(self):
        c = ShardedResultCache(shards=1, capacity=2)
        c.put("a", entry(1))
        c.peek("a")
        c.peek("zzz")
        assert c.stats.lookups == 0

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            ShardedResultCache(shards=1, capacity=0)

    def test_len_and_clear(self):
        c = ShardedResultCache(shards=1, capacity=8)
        for i in range(5):
            c.put(str(i), entry(i))
        assert len(c) == 5
        c.clear()
        assert len(c) == 0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        c = ShardedResultCache(shards=1, capacity=8, path=path)
        c.put("k1", CachedSolve((0, 2, 4), 4, "held_karp", True))
        c.put("k2", entry(7))
        c.save()
        warm = ShardedResultCache(shards=1, capacity=8, path=path)
        assert len(warm) == 2
        got = warm.peek("k1")
        assert got == CachedSolve((0, 2, 4), 4, "held_karp", True)

    def test_save_requires_path(self):
        with pytest.raises(ReproError):
            ShardedResultCache(shards=1).save()

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "cache.json"
        big = ShardedResultCache(shards=1, capacity=16, path=path)
        for i in range(10):
            big.put(f"k{i}", entry(i))
        big.save()
        small = ShardedResultCache(shards=1, capacity=3, path=path)
        assert len(small) == 3

    def test_unknown_version_starts_cold(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 999, "entries": {"x": {}}}')
        c = ShardedResultCache(shards=1, capacity=4, path=path)
        assert len(c) == 0

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("not json{")
        with pytest.raises(ReproError):
            ShardedResultCache(shards=1, capacity=4, path=path)

    def test_malformed_entries_raise(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1, "entries": {"k": {}}}')
        with pytest.raises(ReproError):
            ShardedResultCache(shards=1, capacity=4, path=path)

    def test_missing_path_starts_cold(self, tmp_path):
        c = ShardedResultCache(shards=1, capacity=4, path=tmp_path / "absent.json")
        assert len(c) == 0


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        c = ShardedResultCache(shards=1, capacity=64)
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

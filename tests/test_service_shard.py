"""Tests for the sharded result cache (`repro.service.shard`)."""

import json
import threading
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.service.cache import CachedSolve
from repro.service.shard import ShardedResultCache, _ContentionLock

#: A version-1 cache file written by the former single-lock cache class.
V1_FIXTURE = Path(__file__).parent / "data" / "cache_v1.json"


def entry(span: int = 2) -> CachedSolve:
    return CachedSolve(labels=(0, span), span=span, engine="lk", exact=False)


def test_basic_get_put_contains_len():
    c = ShardedResultCache(capacity=64, shards=4)
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


def test_routing_is_deterministic_and_spread():
    c = ShardedResultCache(capacity=256, shards=8)
    keys = [f"{i:x}" * 4 for i in range(200)]
    for k in keys:
        assert c._shard_for(k) is c._shard_for(k)
    occupied = set()
    for k in keys:
        c.put(k, entry())
    for i, s in enumerate(c.shard_stats()):
        if s.puts:
            occupied.add(i)
    assert len(occupied) >= 6, "200 keys should land on nearly every shard"


def test_stats_aggregate_over_shards():
    c = ShardedResultCache(capacity=64, shards=4)
    for i in range(12):
        c.put(f"k{i}", entry())
    hits = sum(c.get(f"k{i}") is not None for i in range(12))
    misses = sum(c.get(f"m{i}") is None for i in range(5))
    agg = c.stats
    assert (agg.hits, agg.misses, agg.puts) == (hits, misses, 12)
    assert agg.lookups == agg.hits + agg.misses
    per_shard = c.shard_stats()
    assert sum(s.hits for s in per_shard) == agg.hits
    assert sum(s.misses for s in per_shard) == agg.misses
    assert sum(s.puts for s in per_shard) == agg.puts
    for s in per_shard:
        assert s.hits + s.misses == s.lookups


def test_eviction_is_per_shard():
    c = ShardedResultCache(capacity=4, shards=2)
    for i in range(40):
        c.put(f"key-{i}", entry(i))
    # per-shard capacity is 2, so at most 4 entries survive in total
    assert len(c) <= 4
    assert c.stats.evictions == 40 - len(c)


def test_shards_capped_by_capacity_and_validation():
    assert ShardedResultCache(capacity=2, shards=16).shards == 2
    with pytest.raises(ReproError):
        ShardedResultCache(capacity=0)
    with pytest.raises(ReproError):
        ShardedResultCache(shards=0)


def test_clear_keeps_lifetime_stats():
    c = ShardedResultCache(capacity=16, shards=2)
    c.put("a", entry())
    assert c.get("a") is not None
    c.clear()
    assert len(c) == 0
    assert c.get("a") is None
    assert c.stats.puts == 1 and c.stats.hits == 1 and c.stats.misses == 1


@pytest.mark.parametrize("capacity,shards", [(10, 4), (100, 16)])
def test_overfilled_cache_holds_exactly_capacity(capacity, shards):
    c = ShardedResultCache(capacity=capacity, shards=shards)
    for i in range(50 * capacity):
        c.put(f"key-{i}", entry(i))
    assert len(c) == capacity
    assert c.stats.evictions == 50 * capacity - capacity


def test_loads_v1_file_written_by_single_lock_cache():
    raw = json.loads(V1_FIXTURE.read_text())["entries"]
    for shards in (1, 4, 16):
        c = ShardedResultCache(shards=shards, path=V1_FIXTURE)
        assert len(c) == len(raw)
        for key, data in raw.items():
            assert c.peek(key) == CachedSolve.from_json(data)


def test_save_load_roundtrip_across_shard_counts(tmp_path):
    four = ShardedResultCache(capacity=32, shards=4)
    for i in range(10):
        four.put(f"k{i}", entry(i))
    out = four.save(tmp_path / "four.json")
    one = ShardedResultCache(capacity=32, shards=1, path=out)
    assert len(one) == 10
    assert one.peek("k7").span == 7


def test_save_requires_path():
    with pytest.raises(ReproError):
        ShardedResultCache().save()


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ReproError):
        ShardedResultCache(capacity=8).load(bad)
    stale = tmp_path / "stale.json"
    stale.write_text('{"version": 999, "entries": {}}')
    assert ShardedResultCache(capacity=8).load(stale) == 0


def test_contention_lock_counts_contended_acquisitions():
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


def test_contention_rate_bounds():
    c = ShardedResultCache(capacity=16, shards=2)
    assert c.contention_rate == 0.0
    c.put("a", entry())
    c.get("a")
    assert 0.0 <= c.contention_rate <= 1.0

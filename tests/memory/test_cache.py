"""Set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.memory import Cache, line_addresses


def small_cache(ways=2, size=1024, line=64):
    return Cache(CacheConfig("test", size, line_bytes=line, ways=ways))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access_run([0, 0]).tolist() == [True, False]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_distinct_sets_do_not_conflict(self):
        cache = small_cache()
        # Lines 0 and 1 map to different sets.
        assert cache.access_run([0, 1, 0, 1]).tolist() == [
            True, True, False, False,
        ]

    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2)
        sets = cache.num_sets
        # Three lines mapping to set 0.
        a, b, c = 0, sets, 2 * sets
        # a, b, a (refresh a; b becomes LRU), c (evicts b), a, b
        missed = cache.access_run([a, b, a, c, a, b])
        assert missed.tolist() == [True, True, False, True, False, True]

    def test_access_many_returns_miss_count(self):
        cache = small_cache()
        misses = cache.access_many([0, 1, 0, 2, 1])
        assert misses == 3

    @given(st.lists(st.integers(0, 500), max_size=200))
    def test_capacity_bound_holds(self, addrs):
        # A second pass touching each distinct line once hits only lines
        # still resident after the first, so its hits bound the contents.
        cache = small_cache(ways=2, size=512)
        distinct = sorted(set(addrs))
        missed = cache.access_run(addrs + distinct)
        second_pass_hits = len(distinct) - int(missed[len(addrs):].sum())
        assert second_pass_hits <= cache.config.ways * cache.num_sets

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    def test_second_pass_over_small_set_hits(self, addrs):
        # Any working set smaller than capacity fully hits on re-access
        # when it fits in every set it maps to.
        unique = sorted(set(addrs))[:4]
        cache = Cache(CacheConfig("big", 64 * 1024, ways=8))
        missed = cache.access_run(unique + unique)
        assert not missed[len(unique):].any()
        assert cache.stats.hits == len(unique)


class TestCacheCheckpoint:
    def test_round_trip(self):
        cache = small_cache()
        cache.access_run([0, 0, 1])
        restored = small_cache()
        restored.load_state_dict(cache.state_dict())
        assert restored.stats == cache.stats

    def test_state_with_writebacks_still_loads(self):
        # Checkpoints from before the write path was removed carry a
        # writebacks count; it fed no statistic and is dropped.
        cache = small_cache()
        cache.load_state_dict({"stats": {
            "accesses": 5, "hits": 2, "misses": 3, "writebacks": 4,
        }})
        assert cache.state_dict() == {
            "stats": {"accesses": 5, "hits": 2, "misses": 3},
        }


class TestCacheConfigValidation:
    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1000, line_bytes=64, ways=3)


class TestLineAddresses:
    def test_collapses_runs_and_duplicates(self):
        addrs = np.array([0, 4, 8, 64, 65, 0, 128])
        lines = line_addresses(addrs, 64)
        assert lines.tolist() == [0, 1, 2]

    def test_preserves_first_occurrence_order(self):
        addrs = np.array([640, 0, 320, 640])
        lines = line_addresses(addrs, 64)
        assert lines.tolist() == [10, 0, 5]

    def test_empty_stream(self):
        assert line_addresses(np.array([]), 64).size == 0

"""Unit tests for the generic cache machinery."""

import pytest

from oracle import TagOnlyCache
from repro.core.exceptions import ConfigurationError
from repro.core.line_formats import LINE_SIZE, SentinelLine
from repro.memory.cache import CacheGeometry, make_sentinel_cache
from repro.memory.dram import Dram


def tiny_geometry(sets=2, ways=2):
    return CacheGeometry(size_bytes=LINE_SIZE * sets * ways, associativity=ways)


def line_with(value):
    return SentinelLine(bytes([value]) + bytes(LINE_SIZE - 1), False)


class TestGeometry:
    def test_num_sets(self):
        geometry = CacheGeometry(32 * 1024, 8)
        assert geometry.num_sets == 64

    def test_locate_maps_consecutive_lines_to_consecutive_sets(self):
        geometry = tiny_geometry(sets=4)
        assert geometry.locate(0)[0] == 0
        assert geometry.locate(LINE_SIZE)[0] == 1
        assert geometry.locate(4 * LINE_SIZE) == (0, 1)

    def test_rejects_non_divisible_sizes(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(100, 2)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(LINE_SIZE * 4, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(0, 1)


class TestCacheLevelBasics:
    def test_miss_then_hit(self):
        cache = make_sentinel_cache("t", tiny_geometry(), Dram())
        cache.access_line(0, for_write=False)
        cache.access_line(0, for_write=False)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_miss_fetches_from_backing(self):
        dram = Dram()
        dram.write_line(0, line_with(0xAB))
        cache = make_sentinel_cache("t", tiny_geometry(), dram)
        line = cache.access_line(0, for_write=False)
        assert line.raw[0] == 0xAB

    def test_lru_eviction_order(self):
        # 2-way set: touch A, B (same set), then C evicts A (the LRU way).
        geometry = tiny_geometry(sets=1, ways=2)
        cache = make_sentinel_cache("t", geometry, Dram())
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        cache.access_line(a, for_write=False)
        cache.access_line(b, for_write=False)
        cache.access_line(c, for_write=False)
        assert not cache.contains(a)
        assert cache.contains(b) and cache.contains(c)

    def test_touch_refreshes_lru(self):
        geometry = tiny_geometry(sets=1, ways=2)
        cache = make_sentinel_cache("t", geometry, Dram())
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        cache.access_line(a, for_write=False)
        cache.access_line(b, for_write=False)
        cache.access_line(a, for_write=False)  # A becomes MRU
        cache.access_line(c, for_write=False)  # evicts B
        assert cache.contains(a)
        assert not cache.contains(b)


class TestWriteBack:
    def test_clean_eviction_writes_nothing(self):
        dram = Dram()
        geometry = tiny_geometry(sets=1, ways=1)
        cache = make_sentinel_cache("t", geometry, dram)
        cache.access_line(0, for_write=False)
        cache.access_line(LINE_SIZE, for_write=False)  # evicts clean line 0
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        dram = Dram()
        geometry = tiny_geometry(sets=1, ways=1)
        cache = make_sentinel_cache("t", geometry, dram)
        cache.write_line(0, line_with(0x5A))
        cache.access_line(LINE_SIZE, for_write=False)  # evicts dirty line 0
        assert cache.stats.writebacks == 1
        assert dram.read_line(0).raw[0] == 0x5A

    def test_flush_writes_all_dirty(self):
        dram = Dram()
        cache = make_sentinel_cache("t", tiny_geometry(), dram)
        cache.write_line(0, line_with(1))
        cache.write_line(LINE_SIZE, line_with(2))
        cache.flush()
        assert cache.resident_line_count() == 0
        assert dram.read_line(0).raw[0] == 1
        assert dram.read_line(LINE_SIZE).raw[0] == 2

    def test_eviction_address_reconstruction(self):
        # A line far into the address space must write back to the right
        # place (tag/set reconstruction).
        dram = Dram()
        geometry = tiny_geometry(sets=2, ways=1)
        cache = make_sentinel_cache("t", geometry, dram)
        far = 1000 * LINE_SIZE * geometry.num_sets
        cache.write_line(far, line_with(0x77))
        cache.flush()
        assert dram.read_line(far).raw[0] == 0x77


class TestLevelStacking:
    def test_two_level_read_through(self):
        dram = Dram()
        dram.write_line(0, line_with(0xCD))
        l3 = make_sentinel_cache("L3", tiny_geometry(4, 4), dram)
        l2 = make_sentinel_cache("L2", tiny_geometry(2, 2), l3)
        assert l2.read_line(0).raw[0] == 0xCD
        assert l3.stats.misses == 1
        assert l2.read_line(0).raw[0] == 0xCD
        assert l3.stats.accesses == 1  # second read hits in L2


class TestTagOnlyCache:
    def test_counts_match_functional_cache(self):
        geometry = tiny_geometry(sets=2, ways=2)
        functional = make_sentinel_cache("f", geometry, Dram())
        tag_only = TagOnlyCache(geometry)
        addresses = [0, 64, 128, 0, 4096, 64, 8192, 12288, 0, 64]
        for address in addresses:
            functional.access_line(address, for_write=False)
            tag_only.access(address)
        assert tag_only.hits == functional.stats.hits
        assert tag_only.misses == functional.stats.misses

    def test_miss_rate(self):
        cache = TagOnlyCache(tiny_geometry())
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5

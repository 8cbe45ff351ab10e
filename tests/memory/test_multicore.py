"""Tests for the per-record multi-core oracle (private ladders + shared
L3), the reference the shared-L3 kernel and multi-core replay are
checked against."""

import pytest

from oracle import MultiCoreHierarchy, SharedL3, TagOnlyCache
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE, HierarchyConfig, amat_cycles

#: A tiny geometry so eviction pressure is cheap to provoke.
TINY = HierarchyConfig(
    l1_geometry=CacheGeometry(4 * 64, 2),
    l2_geometry=CacheGeometry(8 * 64, 2),
    l3_geometry=CacheGeometry(16 * 64, 4),
)


def test_one_core_equals_single_ladder():
    """A 1-core hierarchy is the plain L1→L2→L3 ladder."""
    multi = MultiCoreHierarchy(TINY, cores=1)
    l1 = TagOnlyCache(TINY.l1_geometry)
    l2 = TagOnlyCache(TINY.l2_geometry)
    l3 = TagOnlyCache(TINY.l3_geometry)
    addresses = [(i * 37 % 64) * 64 for i in range(500)]
    for address in addresses:
        multi.access(0, address)
        if not l1.access(address):
            if not l2.access(address):
                l3.access(address)
    events = multi.core_events(0)
    assert events.l1_accesses == l1.accesses
    assert events.l1_misses == l1.misses
    assert events.l2_misses == l2.misses
    assert events.l3_misses == l3.misses
    assert multi.core_cycles(0) == amat_cycles(
        TINY, l1.accesses, l1.misses, l2.misses, l3.misses
    )


def test_private_levels_are_isolated_but_l3_is_shared():
    multi = MultiCoreHierarchy(TINY, cores=2)
    # Core 0 touches a line twice: second touch is a private L1 hit.
    multi.access(0, 0x1000)
    multi.access(0, 0x1000)
    # Core 1 touching the same address misses privately (its own L1/L2
    # are cold) but hits the shared L3, which core 0 already filled.
    multi.access(1, 0x1000)
    assert multi.core_events(0).l1_misses == 1
    assert multi.core_events(1).l1_misses == 1  # not filtered by core 0
    assert multi.core_events(0).l3_misses == 1  # core 0 paid the fill
    assert multi.core_events(1).l3_misses == 0  # core 1 rode the share


def test_shared_l3_attribution_sums_to_cache_totals():
    multi = MultiCoreHierarchy(TINY, cores=3)
    for i in range(300):
        multi.access(i % 3, (i * 7919) % (64 * 64) * 64)
    shared = multi.shared_l3
    assert sum(shared.accesses) == shared.cache.accesses
    assert sum(shared.misses) == shared.cache.misses
    merged = multi.merged_events()
    assert merged.l2_misses == shared.cache.accesses
    assert merged.l3_misses == shared.cache.misses


def test_reset_core_counters_keeps_contents_warm():
    multi = MultiCoreHierarchy(TINY, cores=2)
    multi.access(0, 0x2000)
    multi.reset_core_counters(0)
    assert multi.core_events(0).l1_accesses == 0
    assert multi.core_events(0).l3_misses == 0
    # Contents stayed warm: the line is still an L1 hit.
    multi.access(0, 0x2000)
    events = multi.core_events(0)
    assert events.l1_accesses == 1
    assert events.l1_misses == 0


def test_total_cycles_is_sum_of_core_cycles():
    multi = MultiCoreHierarchy(WESTMERE, cores=2)
    for i in range(100):
        multi.access(i % 2, i * 64)
    assert multi.total_cycles() == multi.core_cycles(0) + multi.core_cycles(1)


def test_invalid_core_counts_rejected():
    with pytest.raises(ValueError):
        MultiCoreHierarchy(TINY, cores=0)
    with pytest.raises(ValueError):
        SharedL3(TINY, cores=-1)

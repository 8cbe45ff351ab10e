"""Integration tests for the full memory hierarchy with Califorms lines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitvector as bv
from repro.core.cform import CformRequest
from repro.core.exceptions import SecurityByteAccess
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE, HierarchyConfig, MemoryHierarchy
from repro.memory.kernel import EV_LOAD, EV_STORE


def small_hierarchy():
    """A hierarchy tiny enough to force evictions quickly."""
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(4 * 64, 2),
        l2_geometry=CacheGeometry(8 * 64, 2),
        l3_geometry=CacheGeometry(16 * 64, 4),
    )
    return MemoryHierarchy(config)


class TestTable3Defaults:
    def test_westmere_geometry(self):
        assert WESTMERE.l1_geometry.size_bytes == 32 * 1024
        assert WESTMERE.l1_geometry.associativity == 8
        assert WESTMERE.l2_geometry.size_bytes == 256 * 1024
        assert WESTMERE.l3_geometry.size_bytes == 2 * 1024 * 1024
        assert WESTMERE.l3_geometry.associativity == 16

    def test_westmere_latencies(self):
        assert WESTMERE.l1_latency == 4
        assert WESTMERE.l2_latency == 7
        assert WESTMERE.l3_latency == 27

    def test_extra_latency_knob(self):
        config = WESTMERE.with_extra_latency(1)
        assert config.l2_extra_cycles == 1
        assert config.l3_extra_cycles == 1


class TestPlainDataPath:
    def test_store_load_roundtrip(self):
        hierarchy = MemoryHierarchy()
        hierarchy.store_or_raise(0x1000, b"hello world")
        assert hierarchy.load_or_raise(0x1000, 11) == b"hello world"

    def test_cross_line_access(self):
        hierarchy = MemoryHierarchy()
        data = bytes(range(100))
        hierarchy.store_or_raise(0x1000 + 30, data)  # spans two lines
        assert hierarchy.load_or_raise(0x1000 + 30, 100) == data

    def test_data_survives_full_eviction(self):
        hierarchy = small_hierarchy()
        hierarchy.store_or_raise(0, b"persist")
        # Touch enough distinct lines to evict everything everywhere.
        for i in range(1, 64):
            hierarchy.store_or_raise(i * 64 * 16, bytes([i]))
        assert hierarchy.load_or_raise(0, 7) == b"persist"

    def test_unwritten_memory_reads_zero(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.load_or_raise(0xDEAD00, 8) == bytes(8)


class TestCaliformedDataPath:
    def test_cform_set_then_access_raises(self):
        hierarchy = MemoryHierarchy()
        hierarchy.cform(CformRequest.set_bytes(0x2000, [3, 4]))
        with pytest.raises(SecurityByteAccess):
            hierarchy.load_or_raise(0x2000 + 3, 1)
        with pytest.raises(SecurityByteAccess):
            hierarchy.store_or_raise(0x2000 + 4, b"x")

    def test_adjacent_bytes_still_accessible(self):
        hierarchy = MemoryHierarchy()
        hierarchy.cform(CformRequest.set_bytes(0x2000, [3]))
        hierarchy.store_or_raise(0x2000, b"ab")  # bytes 0-1: fine
        assert hierarchy.load_or_raise(0x2000, 2) == b"ab"

    def test_security_bytes_survive_eviction_to_dram(self):
        hierarchy = small_hierarchy()
        hierarchy.store_or_raise(0, b"AAAA")
        hierarchy.cform(CformRequest.set_bytes(0, [10, 11, 12]))
        hierarchy.flush_all()
        # Line now lives only in DRAM, in sentinel format with ECC bit set.
        assert hierarchy.dram.califormed_line_count() == 1
        # Refetch through the whole hierarchy: mask and data intact.
        assert hierarchy.load_or_raise(0, 4) == b"AAAA"
        with pytest.raises(SecurityByteAccess):
            hierarchy.load_or_raise(10, 1)

    def test_secmask_of_reports_through_hierarchy(self):
        hierarchy = small_hierarchy()
        hierarchy.cform(CformRequest.set_bytes(64, [0, 63]))
        assert hierarchy.secmask_of(64) == bv.bit(0) | bv.bit(63)
        hierarchy.flush_all()
        assert hierarchy.secmask_of(64) == bv.bit(0) | bv.bit(63)

    def test_unset_restores_access(self):
        hierarchy = MemoryHierarchy()
        hierarchy.cform(CformRequest.set_bytes(0, [5]))
        hierarchy.cform(CformRequest.unset_bytes(0, [5]))
        hierarchy.store_or_raise(5, b"z")
        assert hierarchy.load_or_raise(5, 1) == b"z"

    def test_load_returns_zero_for_security_bytes(self):
        hierarchy = MemoryHierarchy()
        hierarchy.store_or_raise(0, bytes([0xFF] * 16))
        hierarchy.cform(
            CformRequest(0, attributes=bv.bit(8), mask=bv.bit(8))
        )
        value, records = hierarchy.load(0, 16)
        assert value[8] == 0  # pre-determined zero, not 0xFF
        assert len(records) == 1


class TestNonTemporalCform:
    def test_does_not_pollute_l1(self):
        hierarchy = MemoryHierarchy()
        hierarchy.cform_non_temporal(CformRequest.set_bytes(0x4000, [1]))
        assert not hierarchy.l1.contains(0x4000)
        with pytest.raises(SecurityByteAccess):
            hierarchy.load_or_raise(0x4001, 1)

    def test_falls_back_when_line_resident(self):
        hierarchy = MemoryHierarchy()
        hierarchy.store_or_raise(0x4000, b"q")  # line now in L1
        hierarchy.cform_non_temporal(CformRequest.set_bytes(0x4000, [9]))
        assert hierarchy.l1.peek_secmask(0x4000) == bv.bit(9)


class TestConversionAccounting:
    def test_califormed_spills_and_fills_are_counted(self):
        hierarchy = small_hierarchy()
        hierarchy.cform(CformRequest.set_bytes(0, [7]))
        hierarchy.l1.flush()  # spill: bitvector -> sentinel
        assert hierarchy.l1.stats.spills_converted == 1
        hierarchy.load(1, 1)  # fill: sentinel -> bitvector
        assert hierarchy.l1.stats.fills_converted == 1

    def test_natural_lines_are_not_counted(self):
        hierarchy = small_hierarchy()
        hierarchy.store_or_raise(0, b"plain")
        hierarchy.l1.flush()
        assert hierarchy.l1.stats.spills_converted == 0


class TestCycleAccounting:
    def test_l1_hit_cost(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0, 1)  # miss everywhere
        base = hierarchy.total_cycles()
        hierarchy.load(0, 1)  # pure L1 hit
        assert hierarchy.total_cycles() - base == WESTMERE.l1_latency

    def test_extra_latency_increases_cycles(self):
        plain = MemoryHierarchy()
        slow = MemoryHierarchy(WESTMERE.with_extra_latency(1))
        for h in (plain, slow):
            for i in range(32):
                h.load(i * 64, 1)
        assert slow.total_cycles() > plain.total_cycles()


class TestReplayTraceEdgeCases:
    """Defined behaviour for degenerate record batches through
    :meth:`MemoryHierarchy.replay_columns` (trace-engine hardening)."""

    @staticmethod
    def _replay(hierarchy, records):
        columns = np.array(records, dtype=np.int64).reshape(-1, 3)
        return hierarchy.replay_columns(
            columns[:, 0].astype(np.uint8), columns[:, 1], columns[:, 2]
        )

    def test_empty_trace_returns_zero_without_touching_caches(self):
        hierarchy = MemoryHierarchy()
        assert self._replay(hierarchy, []) == 0
        assert hierarchy.l1.stats.accesses == 0

    def test_single_load_op(self):
        hierarchy = MemoryHierarchy()
        assert self._replay(hierarchy, [(EV_LOAD, 0x1000, 8)]) == 0
        assert hierarchy.l1.stats.accesses == 1

    def test_single_store_op_on_security_byte_counts_one_violation(self):
        hierarchy = MemoryHierarchy()
        hierarchy.cform(CformRequest.set_bytes(0x2000, [5]))
        assert self._replay(hierarchy, [(EV_STORE, 0x2005, 1)]) == 1

    def test_zero_and_negative_sizes_keep_defined_behaviour(self):
        hierarchy = MemoryHierarchy()
        assert self._replay(hierarchy, [(EV_LOAD, 0x1000, 0)]) == 0
        assert hierarchy.l1.stats.accesses == 0
        with pytest.raises(ValueError):
            self._replay(hierarchy, [(EV_LOAD, 0x1000, -4)])


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4096 - 8),
            st.binary(min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_hierarchy_behaves_like_flat_memory(writes):
    """Without security bytes the hierarchy is just memory, regardless of
    evictions (small caches force plenty)."""
    hierarchy = small_hierarchy()
    reference = bytearray(4096)
    for address, data in writes:
        hierarchy.store_or_raise(address, data)
        reference[address : address + len(data)] = data
    assert hierarchy.load_or_raise(0, 4096) == bytes(reference)

"""The batched tag kernel: exact twin-ship with the per-access oracle.

Property layer under the whole-registry differential suite
(``tests/traces/test_columnar_equivalence.py``): every kernel class is
driven side by side with its per-access twin from ``tests/oracle.py``
over randomized streams and must agree on every counter and on the
residual miss stream — the invariant the kernel's bit-identical claim
rests on.
"""

import random

import numpy as np
import pytest

from oracle import PrivateLadder, SharedL3, TagOnlyCache
from repro.memory import kernel
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE
from repro.memory.kernel import (
    CFORM_LINE_STRIDE,
    LadderKernel,
    LruTagKernel,
    TouchBuffer,
    expand_touches,
)
from repro.memory.multicore import SharedL3Kernel
from repro.workloads.generator import (
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
)

#: Tiny geometry so eviction/LRU paths are exercised by short streams.
SMALL = CacheGeometry(size_bytes=4 * 1024, associativity=2)


def random_addresses(seed: int, count: int = 4000) -> "np.ndarray":
    """A burst/stride-structured address stream (like recorded traces)."""
    rng = random.Random(seed)
    addresses: list[int] = []
    cursor = 0x1000
    while len(addresses) < count:
        if rng.random() < 0.5:  # stride burst (scan / CFORM walk)
            stride = rng.choice((8, 64, 128))
            for index in range(rng.randrange(1, 12)):
                addresses.append(cursor + index * stride)
            cursor += rng.randrange(0, 1 << 14)
        else:  # random jump (pointer chase)
            cursor = rng.randrange(0, 1 << 18)
            addresses.append(cursor)
    return np.array(addresses[:count], dtype=np.int64)


class TestKindConstants:
    def test_pinned_to_the_trace_event_codes(self):
        # The kernel defines its own copies to avoid an import cycle;
        # this is the pin that keeps the two vocabularies identical.
        assert kernel.KIND_LOAD == EV_LOAD
        assert kernel.KIND_STORE == EV_STORE
        assert kernel.KIND_ALLOC == EV_ALLOC
        assert kernel.KIND_FREE == EV_FREE
        assert kernel.KIND_CFORM == EV_CFORM
        assert kernel.KIND_WARM == EV_WARM
        assert kernel.KIND_EPOCH == EV_EPOCH


class TestLruTagKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_tag_only_cache_access_for_access(self, seed):
        reference = TagOnlyCache(SMALL)
        batched = LruTagKernel(SMALL)
        addresses = random_addresses(seed)
        expected_miss = np.array(
            [not reference.access(int(a)) for a in addresses], dtype=bool
        )
        # Drive the kernel in several blocks so the MRU collapse crosses
        # block boundaries too.
        produced = np.concatenate(
            [batched.access_block(block) for block in np.array_split(addresses, 7)]
        )
        assert (produced == expected_miss).all()
        assert batched.accesses == reference.accesses == len(addresses)
        assert batched.hits == reference.hits
        assert batched.misses == reference.misses

    def test_lru_state_matches_after_batches(self):
        # Same follow-up behaviour ⇒ same retained contents and order.
        reference = TagOnlyCache(SMALL)
        batched = LruTagKernel(SMALL)
        first = random_addresses(11)
        batched.access_block(first)
        for address in first.tolist():
            reference.access(address)
        probe = random_addresses(12)
        expected = [not reference.access(int(a)) for a in probe]
        assert batched.access_block(probe).tolist() == expected

    def test_reset_counters_keeps_contents_warm(self):
        batched = LruTagKernel(SMALL)
        warm = np.arange(0, 64 * 16, 64, dtype=np.int64)
        batched.access_block(warm)
        batched.reset_counters()
        assert (batched.accesses, batched.hits, batched.misses) == (0, 0, 0)
        assert not batched.access_block(warm).any()  # still resident

    def test_empty_block(self):
        batched = LruTagKernel(SMALL)
        assert len(batched.access_block(np.empty(0, dtype=np.int64))) == 0
        assert batched.accesses == 0


class TestLadderKernel:
    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError, match="2 or 3"):
            LadderKernel(WESTMERE, levels=1)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_two_level_residue_matches_private_ladder(self, seed):
        reference = PrivateLadder(WESTMERE)
        batched = LadderKernel(WESTMERE, levels=2)
        addresses = random_addresses(seed)
        expected = [
            index
            for index, address in enumerate(addresses.tolist())
            if not reference.access(address)
        ]
        assert batched.touch_block(addresses).tolist() == expected
        assert batched.l1.accesses == reference.l1.accesses
        assert batched.l1.misses == reference.l1.misses
        assert batched.l2.misses == reference.l2.misses

    def test_three_level_counters_match_the_serial_ladder(self):
        l1 = TagOnlyCache(WESTMERE.l1_geometry)
        l2 = TagOnlyCache(WESTMERE.l2_geometry)
        l3 = TagOnlyCache(WESTMERE.l3_geometry)
        batched = LadderKernel(WESTMERE, levels=3)
        addresses = random_addresses(7)
        for address in addresses.tolist():
            if not l1.access(address):
                if not l2.access(address):
                    l3.access(address)
        batched.touch_block(addresses)
        assert (batched.l1.accesses, batched.l1.misses) == (
            l1.accesses, l1.misses
        )
        assert (batched.l2.accesses, batched.l2.misses) == (
            l2.accesses, l2.misses
        )
        assert (batched.l3.accesses, batched.l3.misses) == (
            l3.accesses, l3.misses
        )


class TestTouchBuffer:
    @pytest.mark.parametrize("block", [1, 7, 500, kernel.TOUCH_BLOCK])
    def test_any_flush_block_matches_the_serial_ladder(self, block, monkeypatch):
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
        l1 = TagOnlyCache(WESTMERE.l1_geometry)
        l2 = TagOnlyCache(WESTMERE.l2_geometry)
        l3 = TagOnlyCache(WESTMERE.l3_geometry)
        buffered = TouchBuffer(WESTMERE)
        addresses = random_addresses(9).tolist()
        for index, address in enumerate(addresses):
            if index == 1500:  # a warm boundary mid-stream
                for level in (l1, l2, l3):
                    level.reset_counters()
                buffered.reset_counters()
            if not l1.access(address):
                if not l2.access(address):
                    l3.access(address)
            buffered.touch(address)
            if index % 13 == 0:
                buffered.burst_end()
        events = buffered.events()
        assert (events.l1_accesses, events.l1_misses) == (l1.accesses, l1.misses)
        assert (events.l2_misses, events.l3_misses) == (l2.misses, l3.misses)

    def test_burst_end_flushes_only_full_blocks(self, monkeypatch):
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", 4)
        buffered = TouchBuffer(WESTMERE)
        for address in range(0, 3 * 64, 64):
            buffered.touch(address)
        buffered.burst_end()
        assert buffered.ladder.l1.accesses == 0  # 3 pending < 4
        buffered.touch(3 * 64)
        buffered.burst_end()
        assert buffered.ladder.l1.accesses == 4
        assert buffered.events().l1_misses == 4


class TestExpandTouches:
    def test_mixed_record_batch(self):
        kinds = np.array(
            [EV_LOAD, EV_ALLOC, EV_CFORM, EV_STORE, EV_FREE, EV_WARM, EV_EPOCH],
            dtype=np.uint8,
        )
        addresses = np.array([0x100, 0x200, 0x300, 0x400, 0, 0, 0], np.int64)
        args = np.array([8, 96, 3, 4, 96, 0, 0], dtype=np.int64)
        touches, counts = expand_touches(kinds, addresses, args)
        assert counts.tolist() == [1, 0, 3, 1, 0, 0, 0]
        assert touches.tolist() == [
            0x100,
            0x300,
            0x300 + CFORM_LINE_STRIDE,
            0x300 + 2 * CFORM_LINE_STRIDE,
            0x400,
        ]

    def test_no_cform_fast_path(self):
        kinds = np.array([EV_LOAD, EV_STORE], dtype=np.uint8)
        touches, counts = expand_touches(
            kinds, np.array([1, 2], np.int64), np.array([8, 8], np.int64)
        )
        assert touches.tolist() == [1, 2]
        assert counts.tolist() == [1, 1]

    def test_zero_line_cform_contributes_nothing(self):
        kinds = np.array([EV_CFORM], dtype=np.uint8)
        touches, counts = expand_touches(
            kinds, np.array([0x800], np.int64), np.array([0], np.int64)
        )
        assert len(touches) == 0
        assert counts.tolist() == [0]


class TestSharedL3Kernel:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_matches_shared_l3_attribution(self, seed):
        cores = 3
        reference = SharedL3(WESTMERE, cores)
        batched = SharedL3Kernel(WESTMERE, cores)
        rng = random.Random(seed)
        addresses = random_addresses(seed, count=3000)
        core_column = np.array(
            [rng.randrange(cores) for _ in range(len(addresses))],
            dtype=np.int64,
        )
        for core, address in zip(core_column.tolist(), addresses.tolist()):
            reference.access(core, address)
        for start in range(0, len(addresses), 500):
            batched.replay_columns(
                core_column[start : start + 500],
                addresses[start : start + 500],
            )
        assert batched.accesses == reference.accesses
        assert batched.misses == reference.misses

    def test_reset_core_zeroes_attribution_only(self):
        batched = SharedL3Kernel(WESTMERE, 2)
        addresses = np.arange(0, 64 * 32, 64, dtype=np.int64)
        batched.replay_columns(np.zeros(len(addresses), np.int64), addresses)
        batched.reset_core(0)
        assert batched.accesses == [0, 0]
        assert batched.misses == [0, 0]
        # Contents stayed warm: core 1 re-touching the lines all hits.
        batched.replay_columns(np.ones(len(addresses), np.int64), addresses)
        assert batched.misses[1] == 0

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError, match="positive"):
            SharedL3Kernel(WESTMERE, 0)

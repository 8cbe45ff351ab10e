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
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import PrivateLadder, SharedL3, TagOnlyCache
from repro.memory import kernel
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import WESTMERE
from repro.memory.kernel import (
    CFORM_LINE_STRIDE,
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    LadderKernel,
    LruTagKernel,
    RecordBuffer,
    TimingAccountant,
    expand_touches,
)
from repro.memory.multicore import SharedL3Kernel

#: Tiny geometry so eviction/LRU paths are exercised by short streams.
SMALL = CacheGeometry(size_bytes=4 * 1024, associativity=2)
#: 16 sets of 4 ways: a run shorter than the associativity replaces
#: only part of its set.
FOUR_WAY = CacheGeometry(size_bytes=16 * 4 * 64, associativity=4)
#: More sets than a 16-bit set index can tell apart (the kernel's narrow
#: radix-sort key is int16).
WIDE = CacheGeometry(size_bytes=70_000 * 2 * 64, associativity=2)


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


def line_addresses(lines) -> "np.ndarray":
    """Byte addresses of ``lines``, at varying offsets inside each line."""
    lines = np.asarray(lines, dtype=np.int64)
    return lines * 64 + (np.arange(len(lines)) % 8) * 8


def kernel_sets(batched: LruTagKernel) -> list:
    """Each set's resident lines, least recently used first (a row is
    kept in recency order, its empty ways at the least recent end)."""
    rows = batched._way_lines
    live = rows != kernel._EMPTY_LINE
    for row in live:
        assert not (row[:-1] & ~row[1:]).any()  # no empty way above a line
    return [row[keep].tolist() for row, keep in zip(rows, live)]


def oracle_sets(reference: TagOnlyCache) -> list:
    """The oracle's sets in the same form (its entries are tags, oldest
    first)."""
    sets = reference.geometry.num_sets
    return [
        [tag * sets + index for tag in entries]
        for index, entries in enumerate(reference._sets)
    ]


def drive(geometry, blocks, reset_before=()) -> LruTagKernel:
    """Feed ``blocks`` to a kernel and to the oracle; after every block,
    compare the miss masks, the counters, and every set's contents in
    LRU order.  Both reset their counters before the blocks whose
    indices are in ``reset_before``."""
    reference = TagOnlyCache(geometry)
    batched = LruTagKernel(geometry)
    for index, block in enumerate(blocks):
        if index in reset_before:
            reference.reset_counters()
            batched.reset_counters()
        expected = [not reference.access(address) for address in block.tolist()]
        assert batched.access_block(block).tolist() == expected
        assert (batched.accesses, batched.hits, batched.misses) == (
            reference.accesses, reference.hits, reference.misses
        )
        assert kernel_sets(batched) == oracle_sets(reference)
    return batched


class TestAscendingBlocks:
    """Blocks applied in closed form, checked state-for-state against the
    oracle after every block."""

    @pytest.mark.parametrize("geometry", [SMALL, FOUR_WAY])
    def test_ascending_blocks_into_a_cold_level(self, geometry):
        blocks = [line_addresses(range(start, start + 150))
                  for start in range(1000, 1750, 150)]
        batched = drive(geometry, blocks)
        assert batched.ascending_accesses == 750

    def test_non_decreasing_raw_lines_with_repeats(self):
        rng = np.random.default_rng(3)
        blocks = [
            line_addresses(np.sort(rng.integers(base, base + 90, 200)))
            for base in range(0, 500, 100)
        ]
        batched = drive(SMALL, blocks)
        assert batched.ascending_accesses == 1000
        assert batched.hits > 0  # the repeats

    def test_sets_short_of_the_associativity_evict_their_oldest_ways(self):
        # Random lines below 200 leave every set with ways of mixed ages;
        # each sparse ascending block then gives a set 0 to 3 of its 4
        # ways, which must go to that set's oldest residents.
        rng = np.random.default_rng(4)
        blocks = []
        top = 200
        for _ in range(6):
            blocks.append(line_addresses(rng.integers(0, top, 120)))
            lines = top + 1 + np.sort(
                rng.choice(16 * 3, size=20, replace=False)
            )
            blocks.append(line_addresses(lines))
            top = int(lines[-1])
        batched = drive(FOUR_WAY, blocks)
        assert batched.ascending_accesses == 6 * 20

    def test_ascending_block_after_reset_counters(self):
        blocks = [
            random_addresses(13, count=500),
            line_addresses(range(5000, 5300)),
            line_addresses(range(5300, 5600)),
        ]
        batched = drive(SMALL, blocks, reset_before=(1, 2))
        assert batched.ascending_accesses == 600
        assert (batched.accesses, batched.misses) == (300, 300)

    @pytest.mark.parametrize("first", [99, 50, 0])
    def test_ascending_shape_from_a_resident_line_takes_the_general_path(
        self, first
    ):
        # Line 99 is resident (the last one inserted); so may 50 be.
        blocks = [
            line_addresses(range(0, 100)),
            line_addresses(range(first, first + 60)),
        ]
        batched = drive(SMALL, blocks)
        assert batched.ascending_accesses == 100
        assert batched.hits >= (first == 99)

    def test_more_sets_than_an_int16_key(self):
        rng = np.random.default_rng(5)
        top = 150_000
        blocks = [
            line_addresses(range(0, 100_000)),
            line_addresses(rng.integers(0, top, 20_000)),
            line_addresses(np.arange(top + 1, top + 30_000, 3)),
            line_addresses(rng.integers(0, top, 20_000)),
        ]
        batched = drive(WIDE, blocks)
        assert batched.ascending_accesses == 100_000 + 10_000

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from([SMALL, FOUR_WAY]),
        plan=st.lists(
            st.one_of(
                st.tuples(
                    st.just("ascending"),
                    st.integers(-8, 40),
                    st.lists(st.integers(0, 3), min_size=1, max_size=120),
                ),
                st.tuples(
                    st.just("random"),
                    st.just(0),
                    st.lists(st.integers(0, 300), min_size=1, max_size=120),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_mixed_ascending_and_random_blocks(self, geometry, plan):
        # ``top`` is the highest line fed so far, so an ascending block
        # that starts above it must take the closed form; one starting
        # at or below it may take either path.
        blocks = []
        top = 0
        sure = 0
        for kind, delta, steps in plan:
            if kind == "ascending":
                lines = top + delta + np.cumsum(steps) - steps[0]
                sure += len(lines) if delta > 0 else 0
            else:
                lines = np.maximum(top - np.array(steps), 0)
            blocks.append(line_addresses(lines))
            top = max(top, int(lines.max()))
        batched = drive(geometry, blocks)
        assert batched.ascending_accesses >= sure


def set_lines(geometry, set_index, tags) -> "np.ndarray":
    """Addresses of the lines with ``tags`` in one set of ``geometry``."""
    return line_addresses(
        np.asarray(tags, dtype=np.int64) * geometry.num_sets + set_index
    )


#: Direct-mapped: every repeat with anything between misses.
DIRECT = CacheGeometry(size_bytes=8 * 64, associativity=1)
#: Eight ways in three sets (a set count that is no power of two).
EIGHT_WAY = CacheGeometry(size_bytes=3 * 8 * 64, associativity=8)
#: One set of two-byte lines: tags reach 2**62 within int64 addresses.
ONE_SET_TWO_BYTE_LINES = CacheGeometry(
    size_bytes=4 * 2, associativity=4, line_size=2
)


class TestStackDistance:
    """The general path: every access decided by its LRU stack distance,
    checked state-for-state against the oracle after every block."""

    @pytest.mark.parametrize("set_index", [0, 5])
    def test_retouched_residents_straddling_the_associativity(
        self, set_index
    ):
        # Set residents 0..3 (0 least recent).  Each block re-touches
        # some of them after some new lines, so a first touch of a
        # resident has q + f >= assoc and only the count c of residents
        # above it re-touched earlier in the block decides it.
        def block(*tags):
            return set_lines(FOUR_WAY, set_index, tags)

        fill = block(0, 1, 2, 3)
        blocks = [
            fill, block(2, 3, 1),  # q=2, f=2, c=2: hit
            fill, block(3, 10, 1),  # q=2, f=2, c=1: hit
            fill, block(10, 11, 1),  # q=2, f=2, c=0: miss
            fill, block(3, 10, 1, 0),  # 0: q=3, f=3, c=2: miss
            fill, block(3, 2, 1, 0),  # 0: q=3, f=3, c=3: hit
            fill, block(2, 10, 0),  # 0: q=3, f=2, c=1: miss
            fill, block(1, 2, 3, 0, 12, 13, 14, 1),  # a repeat too
        ]
        drive(FOUR_WAY, blocks)

    def test_long_windows_with_few_distinct_lines(self):
        # Eight lines, then three with windows of 1,500 accesses over
        # three hot lines: five distinct lines, so hits, and no bound
        # decides them (eight lines were seen before each window), so
        # the walk runs and its reduceat finishes them.
        tags = list(range(8)) + [20, 21, 22] + [0, 1, 2] * 500 + [20, 21, 22]
        batched = drive(EIGHT_WAY, [set_lines(EIGHT_WAY, 1, tags)])
        assert batched.walk_accesses >= 3
        assert batched.hits >= 3 + 1497

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_windows_around_the_associativity(self, seed):
        # Hot lines with rare others, in one set: many overlapping long
        # windows whose distinct count lands near eight, so the walk
        # takes several steps before its reduceat.
        rng = np.random.default_rng(seed)
        tags = np.where(
            rng.random(3_000) < 0.03,
            rng.integers(5, 12, 3_000),
            rng.integers(0, 5, 3_000),
        )
        blocks = [set_lines(EIGHT_WAY, 0, range(12))]
        blocks += [set_lines(EIGHT_WAY, 0, tags)]
        assert drive(EIGHT_WAY, blocks).walk_accesses > 20

    def test_cyclic_sweeps_one_line_past_the_associativity(self):
        # Nine lines cycled through an eight-way set: every repeat's
        # window holds exactly eight distinct lines, so each misses, and
        # the walk decides each at its first step.
        cycle = set_lines(EIGHT_WAY, 2, np.resize(np.arange(9), 900))
        near = set_lines(EIGHT_WAY, 0, np.resize(np.arange(8), 800))
        batched = drive(EIGHT_WAY, [cycle[:300], np.concatenate([cycle, near])])
        assert batched.walk_accesses > 0
        assert batched.hits >= 800 - 8

    @pytest.mark.parametrize("geometry", [DIRECT, SMALL])
    def test_one_and_two_ways(self, geometry):
        rng = np.random.default_rng(geometry.associativity)
        blocks = [
            line_addresses(rng.integers(0, geometry.num_sets * 3, size))
            for size in (1, 2, 40, 300, 7, 500)
        ]
        drive(geometry, blocks)

    def test_more_sets_than_an_int16_key(self):
        rng = np.random.default_rng(6)
        hot = rng.integers(0, 200_000, 3_000)
        blocks = [
            line_addresses(rng.integers(0, 200_000, 30_000)),
            line_addresses(rng.choice(hot, 20_000)),
            line_addresses(np.concatenate([hot, hot[::-1], hot])),
        ]
        drive(WIDE, blocks)

    @pytest.mark.parametrize("far", [1 << 40, 1 << 56])
    def test_lines_far_apart(self, far):
        # Tags 2**36 and 2**52 apart: the tag sort takes three and four
        # radix passes.
        rng = np.random.default_rng(9)
        lines = rng.integers(0, 40, 600) + far * rng.integers(0, 2, 600)
        drive(FOUR_WAY, [line_addresses(lines[:100]), line_addresses(lines)])

    @pytest.mark.parametrize(
        "geometry, bits",
        [(FOUR_WAY, 1), (FOUR_WAY, 16), (FOUR_WAY, 17), (FOUR_WAY, 33),
         (ONE_SET_TWO_BYTE_LINES, 62)],
    )
    def test_tag_spans_of_one_to_four_radix_digits(self, geometry, bits):
        # Hot tags at both ends of a span of ``bits`` bits: a tag near
        # the top shares its low digits with one near the bottom, so
        # only the last radix pass tells them apart.
        rng = np.random.default_rng(bits)
        base = 3 << 20 if bits < 62 else 0
        low = rng.integers(0, min(6, 1 << (bits - 1)), 2_000)
        offsets = low + (1 << (bits - 1)) * rng.integers(0, 2, 2_000)
        tags = base + offsets
        tags[0], tags[-1] = base, base + (1 << bits) - 1
        sets = rng.integers(0, geometry.num_sets, 2_000)
        lines = tags * geometry.num_sets + sets
        addresses = lines * geometry.line_size
        drive(geometry, [addresses[:300], addresses])

    def test_an_ascending_tail_that_fills_every_set(self):
        # 200 lines ascending from above the residents: the last 64 give
        # each of the 16 sets its 4 ways, so the tail alone is applied.
        rng = np.random.default_rng(10)
        warm = line_addresses(rng.integers(0, 500, 400))
        batched = drive(FOUR_WAY, [warm, line_addresses(range(600, 800))])
        assert batched.ascending_accesses == 200

    def test_an_ascending_tail_that_starves_one_set(self):
        # Set 3 takes lines only in the first half of the block, so the
        # last 64 lines give it none and its row must come from earlier
        # in the block.
        rng = np.random.default_rng(11)
        lines = np.arange(600, 900)
        lines = lines[(lines % 16 != 3) | (lines < 750)]
        warm = line_addresses(rng.integers(0, 500, 400))
        batched = drive(FOUR_WAY, [warm, line_addresses(lines)])
        assert batched.ascending_accesses == lines.size

    @pytest.mark.parametrize("geometry", [SMALL, FOUR_WAY, EIGHT_WAY])
    def test_an_ascending_prefix_then_bursts(self, geometry):
        # The block starts like a pre-warm sweep, so it is not ascending
        # as a whole: the general path sees a run of absent lines, then
        # re-touches of them and of older residents.
        rng = np.random.default_rng(8)
        warm = line_addresses(rng.integers(0, 400, 300))
        sweep = np.arange(1_000, 1_200)
        bursts = np.concatenate([
            rng.choice(sweep, 150), rng.integers(0, 400, 100), sweep[-20:]
        ])
        drive(geometry, [warm, line_addresses(np.concatenate([sweep, bursts]))])

    @settings(max_examples=60, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 3, 16]),
        associativity=st.sampled_from([1, 2, 3, 4, 8]),
        data=st.data(),
    )
    def test_random_geometries_and_blocks(self, sets, associativity, data):
        geometry = CacheGeometry(
            size_bytes=sets * associativity * 64, associativity=associativity
        )
        # A universe a little larger than the cache, so blocks mix hits,
        # misses and evictions of every kind.
        universe = sets * associativity + data.draw(st.integers(0, 24))
        blocks = data.draw(
            st.lists(
                st.lists(st.integers(0, universe), max_size=150),
                min_size=1,
                max_size=6,
            )
        )
        drive(geometry, [line_addresses(block) for block in blocks])


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
        batched.flush()
        assert (batched.l1.accesses, batched.l1.misses) == (
            l1.accesses, l1.misses
        )
        assert (batched.l2.accesses, batched.l2.misses) == (
            l2.accesses, l2.misses
        )
        assert (batched.l3.accesses, batched.l3.misses) == (
            l3.accesses, l3.misses
        )


    @pytest.mark.parametrize(
        "block", [1, 7, 4096, kernel.TOUCH_BLOCK - 1, kernel.TOUCH_BLOCK + 1]
    )
    def test_deferred_levels_match_the_serial_ladder(self, block, monkeypatch):
        # Mostly L1 misses, so the pending block fills and flushes many
        # times; warm resets fall mid-block, at a block edge and near
        # the end.  A block of one touch is fed a shorter prefix.
        count = 3_000 if block == 1 else 60_000
        rng = np.random.default_rng(block)
        addresses = line_addresses(rng.integers(0, 200_000, count))
        resets = {5, count // 3, (count // 3) // block * block, count - 2}
        ladder = LadderKernel(WESTMERE, levels=3)
        # The pending block never holds more than TOUCH_BLOCK touches
        # but for one L1 miss column (at most ``block`` touches).
        run_pending = LadderKernel._run_pending
        held = []

        def recorded(owner):
            held.append(owner._pending_count)
            run_pending(owner)

        monkeypatch.setattr(LadderKernel, "_run_pending", recorded)
        reference = [TagOnlyCache(level.geometry) for _, level in ladder.levels]
        cuts = sorted(set(range(0, count, block)) | resets | {count})
        for start, stop in zip(cuts, cuts[1:]):
            if start in resets:
                ladder.reset_counters()
                for level in reference:
                    level.reset_counters()
                self.assert_levels_match(ladder, reference)
            for address in addresses[start:stop].tolist():
                for level in reference:
                    if level.access(address):
                        break
            assert len(ladder.touch_block(addresses[start:stop])) == 0
            assert ladder._pending_count <= kernel.TOUCH_BLOCK
        ladder.flush()
        self.assert_levels_match(ladder, reference)
        assert ladder.events().l3_misses == reference[2].misses
        assert 0 < max(held) <= max(kernel.TOUCH_BLOCK, block)

    def test_a_miss_column_longer_than_a_block_reaches_l2_in_blocks(
        self, monkeypatch
    ):
        # 40,000 distinct ascending lines in one call: every touch misses
        # L1, so one miss column holds more than TOUCH_BLOCK touches.
        access_block = LruTagKernel.access_block
        sizes = []

        def recorded(level, addresses):
            if level is not ladder.l1:
                sizes.append(len(addresses))
            return access_block(level, addresses)

        monkeypatch.setattr(LruTagKernel, "access_block", recorded)
        ladder = LadderKernel(WESTMERE, levels=3)
        reference = [TagOnlyCache(level.geometry) for _, level in ladder.levels]
        rng = np.random.default_rng(12)
        addresses = np.concatenate([
            line_addresses(rng.integers(0, 50_000, 3_000)),
            line_addresses(np.arange(60_000, 100_000)),
        ])
        for address in addresses.tolist():
            for level in reference:
                if level.access(address):
                    break
        ladder.touch_block(addresses[:3_000])
        ladder.touch_block(addresses[3_000:])
        ladder.flush()
        self.assert_levels_match(ladder, reference)
        assert max(sizes) == kernel.TOUCH_BLOCK

    @staticmethod
    def assert_levels_match(ladder, reference):
        for (_, level), expected in zip(ladder.levels, reference):
            assert (level.accesses, level.hits, level.misses) == (
                expected.accesses, expected.hits, expected.misses
            )
            assert kernel_sets(level) == oracle_sets(expected)

    def test_two_level_blocks_return_their_misses_at_once(self):
        reference = PrivateLadder(WESTMERE)
        batched = LadderKernel(WESTMERE, levels=2)
        addresses = random_addresses(8, count=20_000)
        for block in np.array_split(addresses, 9):
            expected = [
                index
                for index, address in enumerate(block.tolist())
                if not reference.access(address)
            ]
            assert batched.touch_block(block).tolist() == expected
            assert batched.l2.misses == reference.l2.misses
            assert batched.l2.accesses == reference.l2.accesses


class _Collect:
    """A consumer keeping every block it is handed."""

    def __init__(self):
        self.blocks = []

    def consume(self, kinds, addresses, args):
        self.blocks.append((kinds, addresses, args))

    def records(self):
        return [
            row
            for kinds, addresses, args in self.blocks
            for row in zip(kinds.tolist(), addresses.tolist(), args.tolist())
        ]


class TestRecordBuffer:
    @pytest.mark.parametrize("block", [1, 7, 500, kernel.TOUCH_BLOCK])
    def test_any_flush_block_matches_the_serial_ladder(self, block, monkeypatch):
        # A 600-touch sweep straddles the block boundaries of every size
        # but the default, CFORM records expand inside blocks, and the
        # warm boundary lands in the middle of a burst of 13 same-kind
        # touches (so mid-block for every size but 1).
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
        monkeypatch.setattr(kernel, "SWEEP_BLOCK", block)
        l1 = TagOnlyCache(WESTMERE.l1_geometry)
        l2 = TagOnlyCache(WESTMERE.l2_geometry)
        l3 = TagOnlyCache(WESTMERE.l3_geometry)

        def touch(address):
            if not l1.access(address):
                if not l2.access(address):
                    l3.access(address)

        accountant = TimingAccountant(WESTMERE)
        records = RecordBuffer(accountant)
        addresses = random_addresses(9).tolist()
        for address in addresses[:600]:
            touch(address)
        records.sweep(EV_LOAD, iter(addresses[:600]), 8)
        addresses = addresses[600:]
        cform_lines = alloc_events = 0
        for burst, start in enumerate(range(0, len(addresses), 13)):
            run = addresses[start : start + 13]
            if burst == 80:  # the warm boundary, six touches in
                for address in run[:6]:
                    touch(address)
                records.run(EV_STORE, run[:6], 8)
                records.append(EV_WARM, 0, 0)
                for level in (l1, l2, l3):
                    level.reset_counters()
                cform_lines = alloc_events = 0
                run = run[6:]
            for address in run:
                touch(address)
            records.run(EV_LOAD, run, 8)
            if burst % 10 == 0:
                records.append(EV_FREE, run[0], 96)
                records.append(EV_ALLOC, run[0], 96)
                records.append(EV_CFORM, run[0], 3)
                for line in range(3):
                    touch(run[0] + line * CFORM_LINE_STRIDE)
                cform_lines += 3
                alloc_events += 1
            records.burst_end()
        records.flush()
        events = accountant.events()
        assert (events.l1_accesses, events.l1_misses) == (l1.accesses, l1.misses)
        assert (events.l2_misses, events.l3_misses) == (l2.misses, l3.misses)
        assert accountant.touches == l1.accesses
        assert accountant.cform_lines == cform_lines > 0
        assert accountant.alloc_events == alloc_events > 0

    def test_burst_end_flushes_only_full_blocks(self, monkeypatch):
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", 4)
        collect = _Collect()
        records = RecordBuffer(collect)
        records.run(EV_LOAD, range(0, 3 * 64, 64), 8)
        records.burst_end()
        assert collect.blocks == [] and records.count == 3  # 3 pending < 4
        records.append(EV_STORE, 3 * 64, 8)
        records.burst_end()
        assert records.flushed == 4
        assert collect.records() == [
            (EV_LOAD, 0, 8), (EV_LOAD, 64, 8), (EV_LOAD, 128, 8),
            (EV_STORE, 192, 8),
        ]

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_carry_the_appended_records_in_order(
        self, block, monkeypatch
    ):
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
        monkeypatch.setattr(kernel, "SWEEP_BLOCK", block)
        collect = _Collect()
        records = RecordBuffer(collect)
        records.sweep(EV_LOAD, iter(range(0x100, 0x100 + 10 * 8, 8)), 8)
        records.append(EV_CFORM, 0x800, 2)
        records.extend(
            np.array([EV_FREE, EV_ALLOC], dtype=np.uint8),
            np.array([0x900, 0xA00], dtype=np.int64),
            np.array([96, 96], dtype=np.int64),
        )
        records.run(EV_STORE, [], 8)  # an empty burst adds nothing
        records.flush()
        # The sweep flushes each full block; flush() takes the rest.
        assert [len(kinds) for kinds, _, _ in collect.blocks] == (
            [1] * 10 + [3] if block == 1 else [7, 6]
        )
        kinds, addresses, args = collect.blocks[0]
        assert (kinds.dtype, addresses.dtype, args.dtype) == (
            np.uint8, np.int64, np.int64
        )
        assert collect.records() == [
            (EV_LOAD, 0x100 + index * 8, 8) for index in range(10)
        ] + [(EV_CFORM, 0x800, 2), (EV_FREE, 0x900, 96), (EV_ALLOC, 0xA00, 96)]

    def test_burst_hooks_run_before_the_block_check(self, monkeypatch):
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", 2)
        collect = _Collect()

        class Marker:
            def __init__(self):
                self.seen = []

            def consume(self, kinds, addresses, args):
                pass

            def bursts(self, ends):
                self.seen.extend(ends.tolist())
                marker = np.array([len(self.seen)])
                return [0], np.array([EV_EPOCH]), marker, np.array([0])

        marker = Marker()
        records = RecordBuffer(collect, marker)
        records.append(EV_LOAD, 0x40, 8)
        records.burst_end()  # LOAD + EPOCH reach the block size
        records.append(EV_LOAD, 0x80, 8)
        records.burst_end()
        assert marker.seen == [1, 3]
        assert collect.records() == [
            (EV_LOAD, 0x40, 8), (EV_EPOCH, 1, 0),
            (EV_LOAD, 0x80, 8), (EV_EPOCH, 2, 0),
        ]


class TestRecordAccountant:
    def test_segments_are_cut_at_warm_records_and_touch_blocks(
        self, monkeypatch
    ):
        # Warm records at 0, 17 and 21: nothing comes before the first,
        # the 16 records after it are cut 4-4-4-4, the 3 after the
        # second stay whole, and a last 7, 8, 9 or 11 records make one
        # segment or two, the last segment taking the rest.
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", 4)

        class Segments(kernel.RecordAccountant):
            def __init__(self):
                super().__init__()
                self.cuts = []

            def segment(self, start, kinds, addresses, args):
                self.cuts.append((start, len(kinds)))

            def warm(self, position):
                self.cuts.append(("warm", position))

        for tail, pieces in ((7, [7]), (8, [4, 4]), (9, [4, 5]), (11, [4, 7])):
            kinds = np.full(22 + tail, EV_LOAD, dtype=np.uint8)
            kinds[[0, 17, 21]] = EV_WARM
            zeros = np.zeros(kinds.size, dtype=np.int64)
            accountant = Segments()
            accountant.consume(kinds, zeros, zeros)
            starts = 22 + np.cumsum([0] + pieces[:-1])
            assert accountant.cuts == [
                ("warm", 0), (1, 4), (5, 4), (9, 4), (13, 4), ("warm", 17),
                (18, 3), ("warm", 21),
            ] + list(zip(starts.tolist(), pieces))


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

"""Differential tests: fast paths vs. retained pure-reference code.

The perf engine rewrote the codec and line-format hot paths to operate on
whole-line integers, translation tables and a memoized per-mask plan.
Correctness is defined as *bit-identical behaviour* to the original
loop-per-byte implementations, which are retained as
``encode_reference`` / ``decode_reference`` / ``find_sentinel_reference``
/ ``normalize_security_bytes_reference``.  These tests drive both sides
with the same randomized and adversarial inputs and demand equality.
"""

import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitvector as bv
from repro.core.exceptions import SentinelNotFoundError
from repro.core.line_formats import (
    LINE_SIZE,
    BitvectorLine,
    SentinelLine,
    normalize_security_bytes,
    normalize_security_bytes_reference,
    security_bytes_clean,
)
from repro.core.sentinel import (
    decode,
    decode_reference,
    encode,
    encode_reference,
    find_sentinel,
    find_sentinel_reference,
)


def random_line(rng: random.Random, security_bytes: int) -> BitvectorLine:
    data = bytearray(rng.randrange(256) for _ in range(LINE_SIZE))
    indices = rng.sample(range(LINE_SIZE), security_bytes)
    return BitvectorLine(data, bv.mask_from_indices(indices))


def assert_encode_matches(line: BitvectorLine) -> None:
    fast = encode(line)
    reference = encode_reference(line.copy())
    assert fast.raw == reference.raw
    assert fast.califormed == reference.califormed


def assert_decode_matches(encoded: SentinelLine) -> None:
    fast = decode(encoded)
    reference = decode_reference(encoded)
    assert bytes(fast.data) == bytes(reference.data)
    assert fast.secmask == reference.secmask
    assert isinstance(fast.data, bytearray)


class TestCodecEquivalence:
    @pytest.mark.parametrize("security_bytes", [1, 2, 3, 4, 5, 6, 8, 16])
    def test_randomized_sparse_and_mid(self, security_bytes):
        rng = random.Random(security_bytes)
        for _ in range(60):
            line = random_line(rng, security_bytes)
            assert_encode_matches(line)
            assert_decode_matches(encode(line))

    @pytest.mark.parametrize("security_bytes", [24, 32, 48, 60, 63, 64])
    def test_randomized_dense(self, security_bytes):
        """Dense lines: the sentinel path marks many extra slots."""
        rng = random.Random(100 + security_bytes)
        for _ in range(40):
            line = random_line(rng, security_bytes)
            assert_encode_matches(line)
            assert_decode_matches(encode(line))

    def test_header_region_security(self):
        """Security bytes inside the header region force crossbar parking."""
        rng = random.Random(7)
        header_sets = [
            [0], [1], [2], [3], [0, 1], [0, 3], [1, 2, 3], [0, 1, 2, 3],
            [0, 1, 2, 3, 4], [0, 2, 40], [3, 10, 20, 30, 40],
            [0, 1, 2, 3, 60, 61, 62, 63],
        ]
        for indices in header_sets:
            for _ in range(10):
                data = bytearray(rng.randrange(256) for _ in range(LINE_SIZE))
                line = BitvectorLine(data, bv.mask_from_indices(indices))
                assert_encode_matches(line)
                assert_decode_matches(encode(line))

    def test_natural_lines_pass_through(self):
        rng = random.Random(11)
        for _ in range(20):
            line = BitvectorLine.natural(
                bytes(rng.randrange(256) for _ in range(LINE_SIZE))
            )
            assert_encode_matches(line)
            assert_decode_matches(encode(line))
        garbage = SentinelLine(bytes([0xFF] * LINE_SIZE), False)
        assert_decode_matches(garbage)

    def test_constant_fill_sentinel_stress(self):
        """Constant lines exhaust low-6 patterns the fastest."""
        for pattern in (0, 1, 63, 64, 128, 255):
            for indices in ([4, 5, 6, 7], [0, 1, 2, 3, 4], list(range(8))):
                line = BitvectorLine(
                    bytearray([pattern] * LINE_SIZE), bv.mask_from_indices(indices)
                )
                assert_encode_matches(line)
                assert_decode_matches(encode(line))

    @settings(max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        indices=st.sets(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=64
        ),
    )
    def test_property_roundtrip_equivalence(self, seed, indices):
        rng = random.Random(seed)
        data = bytearray(rng.randrange(256) for _ in range(LINE_SIZE))
        line = BitvectorLine(data, bv.mask_from_indices(sorted(indices)))
        assert_encode_matches(line)
        assert_decode_matches(encode(line))


class TestFindSentinelEquivalence:
    def test_normalized_random(self):
        rng = random.Random(13)
        for count in (1, 4, 8, 24, 63):
            for _ in range(30):
                line = random_line(rng, count)
                data = bytes(line.data)
                assert find_sentinel(data, line.secmask) == \
                    find_sentinel_reference(data, line.secmask)

    def test_unnormalized_data_takes_reference_path(self):
        """Non-zero security bytes must not influence the choice."""
        rng = random.Random(17)
        for _ in range(50):
            data = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
            mask = bv.mask_from_indices(rng.sample(range(LINE_SIZE), 8))
            assert find_sentinel(data, mask) == find_sentinel_reference(data, mask)

    def test_zero_mask_raises(self):
        with pytest.raises(SentinelNotFoundError):
            find_sentinel(bytes(LINE_SIZE), 0)

    def test_single_free_pattern(self):
        data = bytes(range(63)) + b"\x00"
        mask = bv.bit(63)
        assert find_sentinel(data, mask) == 63
        assert find_sentinel_reference(data, mask) == 63

    def test_zero_pattern_free_only_via_security_bytes(self):
        """All low6==0 bytes are security bytes → pattern 0 is free."""
        data = bytearray(range(1, 64)) + bytearray(1)
        mask = bv.bit(63)
        assert find_sentinel(bytes(data), mask) == 0
        assert find_sentinel_reference(bytes(data), mask) == 0


class TestNormalizeEquivalence:
    @settings(max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        mask=st.integers(min_value=0, max_value=bv.FULL_MASK),
    )
    def test_random_data_and_masks(self, seed, mask):
        rng = random.Random(seed)
        data = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        assert normalize_security_bytes(data, mask) == \
            normalize_security_bytes_reference(data, mask)

    def test_already_clean_returns_equal_bytes(self):
        data = bytes(LINE_SIZE)
        mask = bv.mask_from_indices([0, 63])
        assert normalize_security_bytes(data, mask) == data
        assert security_bytes_clean(data, mask)

    def test_clean_check_detects_dirt(self):
        data = bytearray(LINE_SIZE)
        data[63] = 1
        assert not security_bytes_clean(data, bv.bit(63))
        assert security_bytes_clean(data, bv.bit(0))


class TestBitvectorHelpers:
    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=bv.FULL_MASK))
    def test_indices_from_mask_matches_iter(self, mask):
        assert bv.indices_from_mask(mask) == list(bv.iter_set_bits(mask))

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=bv.FULL_MASK))
    def test_expand_mask_to_bytes(self, mask):
        expanded = bv.expand_mask_to_bytes(mask)
        as_bytes = expanded.to_bytes(LINE_SIZE, "little")
        for index in range(LINE_SIZE):
            expected = 0xFF if (mask >> index) & 1 else 0x00
            assert as_bytes[index] == expected


class TestConstructorFastPaths:
    def test_dirty_data_still_normalized(self):
        """The already-clean skip must not break the normalisation contract."""
        data = bytearray([0xAA] * LINE_SIZE)
        mask = bv.mask_from_indices([3, 40])
        line = BitvectorLine(data, mask)
        assert line.data[3] == 0
        assert line.data[40] == 0

    def test_trusted_equals_checked(self):
        data = bytearray(range(64))
        mask = bv.mask_from_indices([10])
        data[10] = 0
        assert BitvectorLine.trusted(bytearray(data), mask) == \
            BitvectorLine(bytearray(data), mask)
        raw = bytes(range(64))
        assert SentinelLine.trusted(raw, True) == SentinelLine(raw, True)


class TestHierarchyBatchedEquivalence:
    def _fresh_pair(self):
        from repro.core.cform import CformRequest
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchies = []
        for _ in range(2):
            hierarchy = MemoryHierarchy()
            for line in range(0, 64, 9):
                hierarchy.cform(CformRequest.set_bytes(line * 64, [60, 61]))
            hierarchies.append(hierarchy)
        return hierarchies

    def _trace(self):
        rng = random.Random(23)
        ops = []
        for _ in range(400):
            address = rng.randrange(64 * 64 - 8)
            if rng.random() < 0.5:
                ops.append(("L", address, rng.choice((1, 2, 4, 8, 70))))
            else:
                ops.append(("S", address, bytes([rng.randrange(256)] *
                                                rng.choice((1, 4, 70)))))
        return ops

    def test_replay_trace_matches_per_op(self):
        batched, serial = self._fresh_pair()
        trace = self._trace()
        violations = 0
        for op in trace:
            if op[0] == "L":
                violations += len(serial.load(op[1], op[2])[1])
            else:
                violations += len(serial.store(op[1], op[2]))
        assert batched.replay_trace(trace) == violations
        assert violations > 0
        assert batched.l1.stats.accesses == serial.l1.stats.accesses
        assert batched.l1.stats.misses == serial.l1.stats.misses
        batched.flush_all()
        serial.flush_all()
        assert batched.dram._lines == serial.dram._lines
        with pytest.raises(ValueError):
            batched.replay_trace([("X", 0, 1)])


#: The optimized codec must keep at least this edge over the reference.
#: Measured headroom is ~6-9x; 2x trips only on a genuine regression.
MIN_SPEEDUP = 2.0


def _best_of(func, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        func()
        best = min(best, perf_counter() - started)
    return best


def test_codec_fast_path_keeps_its_speedup():
    """The gate is relative (same machine, same process, same workload),
    so it does not flake with host speed; a reverted or pessimised fast
    path collapses the ratio to ~1x and fails here."""
    rng = random.Random(5)
    lines = [random_line(rng, 6) for _ in range(96)]
    encoded = [encode(line) for line in lines]

    def optimized():
        for line in lines:
            encode(line)
        for enc in encoded:
            decode(enc)

    def reference():
        for line in lines:
            encode_reference(line)
        for enc in encoded:
            decode_reference(enc)

    optimized()  # warm the codec-plan cache before timing
    fast = _best_of(optimized)
    slow = _best_of(reference)
    speedup = slow / fast
    assert speedup >= MIN_SPEEDUP, (
        f"codec fast path only {speedup:.2f}x the reference "
        f"(needs >= {MIN_SPEEDUP}x); a hot-path regression slipped in"
    )

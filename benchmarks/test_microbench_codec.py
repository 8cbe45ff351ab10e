"""Microbenchmarks: the sentinel codec and CFORM hot paths.

These are not paper figures, but they quantify the simulator's own spill
and fill costs — the software analogue of Table 2's fill/spill columns —
and guard against performance regressions in the core library.
"""

import random

from repro.core import bitvector as bv
from repro.core.cform import CformRequest, apply_cform_mask
from repro.core.line_formats import (
    BitvectorLine,
    normalize_security_bytes,
    security_bytes_clean,
)
from repro.core.sentinel import decode, encode


def _random_lines(count: int, security_bytes: int, seed: int = 0):
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        data = bytearray(rng.randrange(256) for _ in range(64))
        indices = rng.sample(range(64), security_bytes)
        lines.append(BitvectorLine(data, bv.mask_from_indices(indices)))
    return lines


def test_encode_throughput(benchmark):
    """Spill-path (Algorithm 1) conversions per second."""
    lines = _random_lines(256, security_bytes=6)

    def spill_all():
        for line in lines:
            encode(line)

    benchmark(spill_all)


def test_decode_throughput(benchmark):
    """Fill-path (Algorithm 2) conversions per second."""
    encoded = [encode(line) for line in _random_lines(256, security_bytes=6)]

    def fill_all():
        for line in encoded:
            decode(line)

    benchmark(fill_all)


def test_roundtrip_dense_lines(benchmark):
    """Worst case: heavily califormed lines (sentinel path exercised)."""
    lines = _random_lines(128, security_bytes=24, seed=1)

    def roundtrip_all():
        for line in lines:
            decode(encode(line))

    benchmark(roundtrip_all)


def test_normalize_throughput(benchmark):
    """Security-byte zeroing (the L1-side canonicalisation) over random
    64-bit masks."""
    rng = random.Random(3)
    pairs = []
    for _ in range(256):
        data = bytes(rng.randrange(256) for _ in range(64))
        pairs.append((data, rng.getrandbits(64) & bv.FULL_MASK))

    def normalize_all():
        for data, mask in pairs:
            normalized = normalize_security_bytes(data, mask)
        return normalized

    assert security_bytes_clean(benchmark(normalize_all), pairs[-1][1])


def test_cform_kmap_throughput(benchmark):
    """CFORM mask applications per second (Table 1 semantics)."""
    rng = random.Random(2)
    requests = []
    state = 0
    for _ in range(512):
        mask = rng.getrandbits(64) & ~state & bv.FULL_MASK
        requests.append(CformRequest(0, attributes=mask, mask=mask))

    def apply_all():
        for request in requests:
            apply_cform_mask(0, request)

    benchmark(apply_all)

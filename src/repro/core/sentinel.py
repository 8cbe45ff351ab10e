"""The califorms-sentinel codec: Algorithms 1 and 2 of the paper.

This module converts between the L1 *califorms-bitvector* view of a line
(64 data bytes + 64-bit security mask) and the L2+ *califorms-sentinel*
physical format (64 stored bytes + one metadata bit), exactly as the spill
and fill modules of Figures 8 and 9 do in hardware.

Encoding (Figure 7).  A califormed line repurposes its first up-to-four
bytes as a header:

======  ==============================================================
code    header layout (bits, least-significant first)
======  ==============================================================
``00``  1 security byte:   code(2) addr0(6)                — 1 byte
``01``  2 security bytes:  code(2) addr0(6) addr1(6)       — 2 bytes
``10``  3 security bytes:  code(2) addr0..addr2(6 each)    — 3 bytes
``11``  4+ security bytes: code(2) addr0..addr3(6 each)
        sentinel(6)                                        — 4 bytes
======  ==============================================================

The data bytes displaced by the header are parked inside security-byte
slots (which carry no data), and for the ``11`` case every security byte
beyond the fourth is marked by writing the *sentinel* — a six-bit pattern
chosen to differ from the low six bits of every regular byte on the line
(at most 63 regular bytes exist, so one of the 64 patterns is always free;
Section 5.2).

Header-displacement disambiguation.  Algorithm 1's prose ("store data of
1st 4 bytes in locations obtained in 8") under-specifies the case where
security bytes sit *inside* the header region: parking a regular byte there
would be overwritten by the header itself.  The number of regular bytes in
the header region always equals the number of listed security slots beyond
it, so this codec parks the i-th regular header byte in the i-th listed
security slot at-or-after the header (the assignment Figure 8's "Cross Bar"
must realise), and the fill path inverts the same mapping.  See DESIGN.md
"Spec-level disambiguations"; the property tests in
``tests/core/test_sentinel.py`` verify the round-trip for arbitrary lines.

Fast paths.  The production :func:`encode`/:func:`decode` mirror the
hardware's *fixed-function* fill/spill modules: all per-mask decisions
(header layout, crossbar parking assignment, zeroing masks) are
precomputed once per distinct ``secmask`` into an LRU-memoized
:class:`_CodecPlan`, so converting a line with a previously seen layout
is one table lookup plus whole-line integer operations — no per-byte
Python loops.  The original loop-per-byte implementations are retained
verbatim as :func:`encode_reference` / :func:`decode_reference` /
:func:`find_sentinel_reference`; ``tests/core/test_fastpath_equivalence.py``
differentially verifies the fast paths are bit-identical to them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core import bitvector as bv
from repro.core.exceptions import SentinelNotFoundError
from repro.core.line_formats import (
    LINE_SIZE,
    BitvectorLine,
    SentinelLine,
    normalize_security_bytes,
    security_bytes_clean,
)

#: Number of header bytes used for each count code (code = index).
HEADER_BYTES_FOR_CODE = (1, 2, 3, 4)

#: Security-byte counts above this use the sentinel ("4 or more").
MAX_LISTED = 4

#: Bit offset of the sentinel field within the 32-bit ``11`` header.
_SENTINEL_SHIFT = 2 + bv.ADDR_BITS * MAX_LISTED

#: Translation table mapping every byte value to its low six bits — the
#: portion Figure 9's comparators inspect.  ``data.translate(_LOW6_TABLE)``
#: is the software analogue of wiring the low-6 lines to the comparator
#: array: one C-speed pass over the line.
_LOW6_TABLE = bytes(value & bv.LOW6_MASK for value in range(256))


# ---------------------------------------------------------------------------
# Reference implementations (Algorithms 1 and 2, loop-per-byte).
#
# These are the retained ground truth for the differential tests; they are
# deliberately untouched by the fast-path work below.
# ---------------------------------------------------------------------------


def find_sentinel_reference(data: bytes, secmask: int) -> int:
    """Choose a sentinel by scanning every regular byte (line 7, Algorithm 1)."""
    if secmask == 0:
        raise SentinelNotFoundError(
            "a line with no security bytes may have no free 6-bit pattern; "
            "sentinels are only defined for califormed lines"
        )
    used = 0
    for index in range(LINE_SIZE):
        if not bv.test_bit(secmask, index):
            used |= 1 << bv.low6(data[index])
    for pattern in range(1 << bv.ADDR_BITS):
        if not (used >> pattern) & 1:
            return pattern
    raise SentinelNotFoundError(
        "no free 6-bit pattern among regular bytes; "
        "this is impossible for a califormed line"
    )  # pragma: no cover - unreachable by the counting argument


def _header_fields(secmask: int) -> tuple[int, list[int], int]:
    """Return ``(code, listed_addresses, header_len)`` for a mask."""
    indices = bv.indices_from_mask(secmask)
    count = len(indices)
    code = min(count, MAX_LISTED) - 1
    header_len = HEADER_BYTES_FOR_CODE[code]
    return code, indices[:MAX_LISTED], header_len


def _pack_header(code: int, listed: list[int], sentinel: int | None) -> bytes:
    """Pack the Figure 7 header into ``len(listed)`` little-endian bytes."""
    value = code
    for position, address in enumerate(listed):
        value |= address << (2 + bv.ADDR_BITS * position)
    if code == MAX_LISTED - 1:
        assert sentinel is not None
        value |= sentinel << _SENTINEL_SHIFT
    return value.to_bytes(HEADER_BYTES_FOR_CODE[code], "little")


def _unpack_header(raw: bytes) -> tuple[int, list[int], int | None, int]:
    """Inverse of :func:`_pack_header`; returns (code, listed, sentinel, len)."""
    code = raw[0] & 0b11
    header_len = HEADER_BYTES_FOR_CODE[code]
    value = int.from_bytes(raw[:header_len], "little")
    listed = [
        (value >> (2 + bv.ADDR_BITS * position)) & bv.LOW6_MASK
        for position in range(code + 1)
    ]
    sentinel = None
    if code == MAX_LISTED - 1:
        sentinel = (value >> _SENTINEL_SHIFT) & bv.LOW6_MASK
    return code, listed, sentinel, header_len


def _parking_assignment(
    listed: list[int], header_len: int, secmask: int
) -> list[tuple[int, int]]:
    """Pair each regular header byte with the security slot that parks it.

    Returns ``[(header_index, slot_index), ...]``.  Regular header bytes are
    taken in ascending order; parking slots are the listed security
    addresses at-or-after the header, also ascending.  The two lists always
    have equal length: every security byte inside the header region is
    necessarily among the listed (smallest) addresses.
    """
    regular_header = [
        index for index in range(header_len) if not bv.test_bit(secmask, index)
    ]
    parking_slots = [address for address in listed if address >= header_len]
    assert len(regular_header) == len(parking_slots), (
        "header displacement invariant broken: "
        f"{regular_header} vs {parking_slots}"
    )
    return list(zip(regular_header, parking_slots))


def encode_reference(line: BitvectorLine) -> SentinelLine:
    """Reference spill path (Algorithm 1 / Figure 8), loop-per-byte."""
    if line.secmask == 0:
        return SentinelLine(bytes(line.data), califormed=False)

    data = normalize_security_bytes(bytes(line.data), line.secmask)
    code, listed, header_len = _header_fields(line.secmask)
    indices = bv.indices_from_mask(line.secmask)

    sentinel = None
    if code == MAX_LISTED - 1:
        sentinel = find_sentinel_reference(data, line.secmask)

    out = bytearray(data)
    # Park the regular data displaced by the header inside security slots.
    for header_index, slot in _parking_assignment(listed, header_len, line.secmask):
        out[slot] = data[header_index]
    # Mark every security byte beyond the fourth with the sentinel.  Those
    # are all at index > listed[3] >= 3, i.e. outside the header.
    if sentinel is not None:
        for extra in indices[MAX_LISTED:]:
            out[extra] = sentinel
    out[:header_len] = _pack_header(code, listed, sentinel)
    return SentinelLine(bytes(out), califormed=True)


def decode_reference(line: SentinelLine) -> BitvectorLine:
    """Reference fill path (Algorithm 2 / Figure 9), loop-per-byte."""
    if not line.califormed:
        return BitvectorLine(bytearray(line.raw), 0)

    raw = line.raw
    code, listed, sentinel, header_len = _unpack_header(raw)
    secmask = bv.mask_from_indices(listed)
    if sentinel is not None:
        listed_set = set(listed)
        # Figure 9: only bytes 4..63 feed the sentinel comparators.
        for index in range(MAX_LISTED, LINE_SIZE):
            if index not in listed_set and bv.low6(raw[index]) == sentinel:
                secmask = bv.set_bit(secmask, index)

    out = bytearray(raw)
    for header_index, slot in _parking_assignment(listed, header_len, secmask):
        out[header_index] = raw[slot]
    # Any header byte that is itself a security byte carries no data.
    for index in range(header_len):
        if bv.test_bit(secmask, index):
            out[index] = 0
    return BitvectorLine(out, secmask)


# ---------------------------------------------------------------------------
# Fast paths: memoized codec plan + whole-line integer operations.
# ---------------------------------------------------------------------------


class _CodecPlan:
    """Everything the fill/spill modules need for one security mask.

    The hardware's conversion logic is fixed-function: for a given set of
    security-byte locations the header layout, crossbar routing and
    zeroing behaviour are pure combinational functions of the mask.  This
    class is the software analogue — computed once per distinct
    ``secmask`` and memoized, so repeated layouts (the common case: a few
    struct shapes dominate any workload) pay one dict lookup.
    """

    __slots__ = (
        "secmask",
        "count",
        "code",
        "header_len",
        "listed",
        "parking",
        "extras",
        "header_base",
        "needs_sentinel",
        "zeroing",
        "keep",
    )

    def __init__(self, secmask: int):
        indices = bv.indices_from_mask(secmask)
        self.secmask = secmask
        self.count = len(indices)
        self.code = min(self.count, MAX_LISTED) - 1
        self.header_len = HEADER_BYTES_FOR_CODE[self.code]
        self.listed = indices[:MAX_LISTED]
        self.parking = tuple(
            _parking_assignment(self.listed, self.header_len, secmask)
        )
        self.extras = tuple(indices[MAX_LISTED:])
        header_base = self.code
        for position, address in enumerate(self.listed):
            header_base |= address << (2 + bv.ADDR_BITS * position)
        self.header_base = header_base
        self.needs_sentinel = self.code == MAX_LISTED - 1
        self.zeroing = bv.expand_mask_to_bytes(secmask)
        self.keep = ~self.zeroing


@lru_cache(maxsize=4096)
def _plan_for_mask(secmask: int) -> _CodecPlan:
    return _CodecPlan(secmask)


def _find_sentinel_normalized(data: bytes, security_count: int) -> int:
    """Sentinel search for a line whose security bytes are already zero.

    One ``translate`` pass folds every byte to its low six bits, a set
    over the result collects the used patterns, and the only correction
    needed is for pattern 0: the ``security_count`` zeroed security bytes
    contribute it spuriously, so it stays available unless some *regular*
    byte also maps to 0.  The free pattern chosen is the smallest, matching
    :func:`find_sentinel_reference`.
    """
    low6 = data.translate(_LOW6_TABLE)
    # Pattern 0 is spuriously "used" by the zeroed security bytes; it is
    # genuinely free when no regular byte also maps to 0.
    if low6.count(0) == security_count:
        return 0
    used = set(low6)
    for pattern in range(1, 1 << bv.ADDR_BITS):
        if pattern not in used:
            return pattern
    raise SentinelNotFoundError(
        "no free 6-bit pattern among regular bytes; "
        "this is impossible for a califormed line"
    )  # pragma: no cover - unreachable by the counting argument


def find_sentinel(data: bytes, secmask: int) -> int:
    """Choose a sentinel: a 6-bit pattern unused by any regular byte.

    Implements line 7 of Algorithm 1 ("scan least 6-bit of every byte to
    determine sentinel").  Only *regular* bytes constrain the choice — the
    paper's existence argument ("at most 63 unique values that non-security
    bytes can have") relies on excluding the security bytes, whose stored
    values are meaningless.

    Raises :class:`SentinelNotFoundError` if ``secmask`` is zero, because a
    line of 64 regular bytes can exhaust all 64 patterns.
    """
    if secmask == 0:
        raise SentinelNotFoundError(
            "a line with no security bytes may have no free 6-bit pattern; "
            "sentinels are only defined for califormed lines"
        )
    if not security_bytes_clean(data, secmask):
        # Non-canonical security bytes would pollute the single-pass scan;
        # take the reference path that skips them index by index.
        return find_sentinel_reference(data, secmask)
    return _find_sentinel_normalized(bytes(data), secmask.bit_count())


def encode(line: BitvectorLine) -> SentinelLine:
    """Spill a line from L1 to L2 format (Algorithm 1 / Figure 8).

    Lines with no security bytes pass through unchanged with the metadata
    bit clear (lines 1–3 of the algorithm).  Califormed lines take the
    memoized-plan fast path; see the module docstring.
    """
    secmask = line.secmask
    if secmask == 0:
        return SentinelLine.trusted(bytes(line.data), False)

    plan = _plan_for_mask(secmask)
    value = int.from_bytes(line.data, "little")
    if value & plan.zeroing:
        out = bytearray((value & plan.keep).to_bytes(LINE_SIZE, "little"))
    else:
        out = bytearray(line.data)

    header = plan.header_base
    if plan.needs_sentinel:
        # Scan before the crossbar writes below disturb the security slots
        # the zero-count correction relies on.
        sentinel = _find_sentinel_normalized(out, plan.count)
        header |= sentinel << _SENTINEL_SHIFT
    # The crossbar: park the regular data displaced by the header inside
    # security slots, per the precomputed assignment.  Reads are from
    # header positions (< header_len), writes to listed slots beyond the
    # header and to the extras — disjoint ranges, so in-place is safe.
    for header_index, slot in plan.parking:
        out[slot] = out[header_index]
    if plan.needs_sentinel:
        for extra in plan.extras:
            out[extra] = sentinel
    out[: plan.header_len] = header.to_bytes(plan.header_len, "little")
    return SentinelLine.trusted(bytes(out), True)


def decode(line: SentinelLine) -> BitvectorLine:
    """Fill a line from L2 format into L1 format (Algorithm 2 / Figure 9).

    Un-califormed lines pass through with an all-zero bit vector (lines
    1–3).  For califormed lines the security mask is reconstructed from the
    header (and, for the ``11`` code, the 60-comparator sentinel scan over
    bytes 4..63), parked data is restored to its natural position, and every
    security slot is zeroed (line 10: "set the new locations of
    byte[Addr[0-3]] to zero").
    """
    if not line.califormed:
        return BitvectorLine.trusted(bytearray(line.raw), 0)

    raw = line.raw
    code = raw[0] & 0b11
    header_len = code + 1
    value = int.from_bytes(raw[:header_len], "little")
    listed = [
        (value >> (2 + bv.ADDR_BITS * position)) & bv.LOW6_MASK
        for position in range(header_len)
    ]
    secmask = 0
    for address in listed:
        secmask |= 1 << address

    if code == MAX_LISTED - 1:
        sentinel = (value >> _SENTINEL_SHIFT) & bv.LOW6_MASK
        # Figure 9: only bytes 4..63 feed the sentinel comparators.  The
        # translate pass is the comparator array; ``find`` hops between
        # matches at C speed.
        low6 = raw.translate(_LOW6_TABLE)
        listed_mask = secmask
        position = low6.find(sentinel, MAX_LISTED)
        while position != -1:
            if not (listed_mask >> position) & 1:
                secmask |= 1 << position
            position = low6.find(sentinel, position + 1)

    plan = _plan_for_mask(secmask)
    out = bytearray(raw)
    # Invert the crossbar: restore the parked header data.  Well-formed
    # lines always match the plan's precomputed assignment; a malformed
    # header (unsorted or duplicate addresses) gets the reference pairing.
    if listed == plan.listed and header_len == plan.header_len:
        parking = plan.parking
    else:
        parking = _parking_assignment(listed, header_len, secmask)
    for header_index, slot in parking:
        out[header_index] = raw[slot]
    # Zero every security slot in one whole-line mask operation (the
    # reference delegates this to the BitvectorLine constructor).
    line_value = int.from_bytes(out, "little")
    if line_value & plan.zeroing:
        out = bytearray((line_value & plan.keep).to_bytes(LINE_SIZE, "little"))
    return BitvectorLine.trusted(out, secmask)


def roundtrip(line: BitvectorLine) -> BitvectorLine:
    """Encode then decode a line; used by tests and sanity checks."""
    return decode(encode(line))

"""CALTRC02: the epoch-framed compressed trace format.

``CALTRC01`` (:mod:`repro.traces.format`) persists one fixed 13-byte
struct per record — simple, seekable, but cold traces are highly
redundant: addresses walk in small strides, ``arg`` is almost always the
access width, and scans/pre-warm loops emit thousands of constant-stride
touches.  ``CALTRC02`` keeps the container shape (magic, JSON header,
record stream, JSON footer) but stores the record stream as a sequence of
independently decodable *frames*:

* one frame per recorded **epoch** (the sink's shard split points), so
  frame boundaries coincide with the only legal shard boundaries and
  sharded/multi-core replay stream frame-by-frame exactly as before;
* inside a frame, records are byte-tokenised: **delta-encoded addresses**
  (zigzag varints against the previous record's address), **varint args**
  and **run tokens** that collapse a monotone constant-stride burst
  (scans, the pre-warm sweep, CFORM line walks) into one token;
* the token stream is then **zlib-deflated**, frame by frame.

Frame wire format (after the v1-shaped ``magic + u32 header-length +
header JSON`` preamble, all integers little-endian)::

    0x01  u32 record_count  u32 payload_length  <deflate(tokens)>   * N
    0xFF  u32 footer_length  <footer JSON>

Tokens (``kind`` is the ``EV_*`` record kind, 0..6)::

    kind                 zigzag-varint Δaddress  varint arg
    kind | 0x08 (run)    varint count  zigzag-varint Δstart
                         zigzag-varint stride    varint arg

A run token expands to ``count`` records of the same kind and arg whose
addresses step by ``stride``; the delta base resets to 0 at every frame
boundary so frames decode independently.  Encode and decode are both
fully streaming: the writer buffers at most one frame of records, the
reader inflates one frame at a time — compression never changes what the
replayers see, only how many bytes hold it.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from repro.telemetry.runtime import active as telemetry_active
from repro.traces.format import (
    EV_EPOCH,
    MAGIC,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
    TraceWriterBase,
)

#: The compressed container's magic (same family, next version digit).
MAGIC_V2 = b"CALTRC02"

#: Frame type bytes.
FRAME_RECORDS = 0x01
FRAME_END = 0xFF

#: zlib level: 6 is the sweet spot for these token streams (9 buys a few
#: percent for a multiple of the encode time).
COMPRESSION_LEVEL = 6

#: Frames are cut at EPOCH records; epoch-less traces (foreign writers,
#: tests) still flush after this many records so memory stays bounded.
MAX_FRAME_RECORDS = 1 << 16

#: A constant-stride same-kind/same-arg run must be at least this long
#: before the encoder emits a run token (shorter runs compress fine as
#: plain delta tokens).
MIN_RUN = 4

#: Run flag on the token's kind byte.  EV_* kinds occupy 3 bits.
_RUN_FLAG = 0x08

_FRAME_RECORDS_HEAD = struct.Struct("<BII")
_FRAME_END_HEAD = struct.Struct("<BI")


# -- varint primitives --------------------------------------------------------


def _append_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_signed(out: bytearray, value: int) -> None:
    _append_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    value = 0
    shift = 0
    try:
        while True:
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, offset
            shift += 7
    except IndexError:
        raise TraceFormatError("corrupt frame: truncated varint") from None


def _read_signed(data: bytes, offset: int) -> tuple[int, int]:
    zigzag, offset = _read_varint(data, offset)
    return ((zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1)), offset


# -- frame codec --------------------------------------------------------------


def encode_frame(records: list[tuple[int, int, int]]) -> bytes:
    """Tokenise + deflate one frame's records (delta base starts at 0)."""
    tokens = bytearray()
    previous = 0
    count = len(records)
    index = 0
    while index < count:
        kind, address, arg = records[index]
        # Probe for a constant-stride run of the same kind and arg.
        run = index + 1
        if run < count and records[run][0] == kind and records[run][2] == arg:
            stride = records[run][1] - address
            expected = records[run][1]
            while run < count:
                candidate = records[run]
                if (
                    candidate[0] != kind
                    or candidate[2] != arg
                    or candidate[1] != expected
                ):
                    break
                expected += stride
                run += 1
        length = run - index
        if length >= MIN_RUN:
            tokens.append(kind | _RUN_FLAG)
            _append_varint(tokens, length)
            _append_signed(tokens, address - previous)
            _append_signed(tokens, records[run - 1][1] - records[run - 2][1])
            _append_varint(tokens, arg)
            previous = records[run - 1][1]
            index = run
        else:
            tokens.append(kind)
            _append_signed(tokens, address - previous)
            _append_varint(tokens, arg)
            previous = address
            index += 1
    return zlib.compress(bytes(tokens), COMPRESSION_LEVEL)


def decode_frame(
    payload: bytes, record_count: int
) -> Iterator[tuple[int, int, int]]:
    """Inflate + de-tokenise one frame; yields exactly ``record_count``."""
    try:
        tokens = zlib.decompress(payload)
    except zlib.error as error:
        raise TraceFormatError(f"corrupt frame: {error}") from None
    offset = 0
    end = len(tokens)
    previous = 0
    produced = 0
    while offset < end:
        token = tokens[offset]
        offset += 1
        kind = token & ~_RUN_FLAG
        if kind > EV_EPOCH:
            # Fail before yielding anything downstream: a corrupt kind
            # byte must not be masked into a plausible record.
            raise TraceFormatError(
                f"corrupt frame: invalid record kind byte 0x{token:02X}"
            )
        if token & _RUN_FLAG:
            length, offset = _read_varint(tokens, offset)
            delta, offset = _read_signed(tokens, offset)
            stride, offset = _read_signed(tokens, offset)
            arg, offset = _read_varint(tokens, offset)
            produced += length
            if produced > record_count:
                raise TraceFormatError(
                    f"corrupt frame: decodes past the {record_count} "
                    "records its header promised"
                )
            address = previous + delta
            for _ in range(length):
                yield kind, address, arg
                address += stride
            previous = address - stride
        else:
            delta, offset = _read_signed(tokens, offset)
            arg, offset = _read_varint(tokens, offset)
            produced += 1
            if produced > record_count:
                raise TraceFormatError(
                    f"corrupt frame: decodes past the {record_count} "
                    "records its header promised"
                )
            previous += delta
            yield kind, previous, arg
    if produced != record_count:
        raise TraceFormatError(
            f"corrupt frame: decoded {produced} records, "
            f"frame header promised {record_count}"
        )


def decode_frame_columns(payload: bytes, record_count: int):
    """Inflate + de-tokenise one frame into column arrays.

    The columnar twin of :func:`decode_frame`: returns a
    :class:`~repro.traces.format.RecordColumns` with exactly
    ``record_count`` rows instead of yielding per-record tuples.  Well-
    formed frames decode on the vectorized path of
    :func:`_decode_frames_fast`; anything it declines falls back to the
    per-token walk of :func:`_decode_frame_columns_tokens`, which raises
    the same :class:`TraceFormatError` diagnostics as the per-record
    decoder on corrupt payloads.
    """
    try:
        tokens = zlib.decompress(payload)
    except zlib.error as error:
        raise TraceFormatError(f"corrupt frame: {error}") from None
    columns = _decode_frames_fast([tokens], [record_count])
    if columns is not None:
        return columns
    return _decode_frame_columns_tokens(tokens, record_count)


def _decode_frame_columns_tokens(tokens: bytes, record_count: int):
    """Per-token fallback decoder (also the corrupt-frame diagnoser).

    One Python step per token; exactly the validation order of
    :func:`decode_frame`, so every corrupt payload raises the identical
    :class:`TraceFormatError` message whichever engine hits it first.
    """
    offset = 0
    end = len(tokens)
    kinds: list[int] = []
    counts: list[int] = []
    args: list[int] = []
    first_deltas: list[int] = []
    strides: list[int] = []
    produced = 0
    while offset < end:
        token = tokens[offset]
        offset += 1
        kind = token & ~_RUN_FLAG
        if kind > EV_EPOCH:
            raise TraceFormatError(
                f"corrupt frame: invalid record kind byte 0x{token:02X}"
            )
        if token & _RUN_FLAG:
            length, offset = _read_varint(tokens, offset)
            delta, offset = _read_signed(tokens, offset)
            stride, offset = _read_signed(tokens, offset)
            arg, offset = _read_varint(tokens, offset)
        else:
            length = 1
            delta, offset = _read_signed(tokens, offset)
            stride = 0
            arg, offset = _read_varint(tokens, offset)
        produced += length
        if produced > record_count:
            raise TraceFormatError(
                f"corrupt frame: decodes past the {record_count} "
                "records its header promised"
            )
        kinds.append(kind)
        counts.append(length)
        args.append(arg)
        first_deltas.append(delta)
        strides.append(stride)
    if produced != record_count:
        raise TraceFormatError(
            f"corrupt frame: decoded {produced} records, "
            f"frame header promised {record_count}"
        )
    try:
        count_column = np.array(counts, dtype=np.int64)
        kind_column = np.repeat(np.array(kinds, dtype=np.uint8), count_column)
        arg_column = np.repeat(np.array(args, dtype=np.int64), count_column)
        increments = np.repeat(np.array(strides, dtype=np.int64), count_column)
        if counts:
            starts = np.cumsum(count_column) - count_column
            increments[starts] = np.array(first_deltas, dtype=np.int64)
        address_column = np.cumsum(increments)
    except OverflowError:
        raise TraceFormatError(
            "corrupt frame: address delta exceeds the columnar engine's "
            "int64 range"
        ) from None
    from repro.traces.format import RecordColumns

    return RecordColumns(
        kind=kind_column, address=address_column, arg=arg_column
    )


def _decode_frames_fast(streams, record_counts):
    """Vectorized decode of one or more inflated token streams.

    Returns the concatenated :class:`RecordColumns` of every frame, or
    ``None`` for anything irregular — truncated or over-long varints,
    token/frame misalignment, invalid kind bytes, record-count
    mismatches — so the caller can re-run the per-token walk and raise
    its exact diagnostics.  The trick is that *every* unit of the token
    stream — a kind byte (always ``< 0x80``) or a varint — ends at the
    first byte with the continuation bit clear, so one vectorized scan
    splits the whole stream into units and decodes every varint at once;
    only the token-boundary walk (3 or 5 units per token) stays a Python
    loop, one cheap step per token.
    """
    from repro.traces.format import RecordColumns

    data = streams[0] if len(streams) == 1 else b"".join(streams)
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0 or (raw[-1] & 0x80):
        return None
    # Unit split: every byte with bit 7 clear terminates a unit.
    unit_ends = np.flatnonzero((raw & 0x80) == 0)
    unit_total = unit_ends.size
    unit_starts = np.empty(unit_total, dtype=np.int64)
    unit_starts[0] = 0
    unit_starts[1:] = unit_ends[:-1] + 1
    unit_lengths = unit_ends + 1 - unit_starts
    max_length = int(unit_lengths.max())
    if max_length > 9:
        return None  # a 10+-byte varint would overflow the int64 shifts
    # Varint values: 7-bit groups, little-endian.  Most units are one
    # byte, so start from the lead byte and accumulate the longer units
    # column by column over a rapidly shrinking index set.
    values = (raw[unit_starts] & 0x7F).astype(np.int64)
    if max_length > 1:
        longer = np.flatnonzero(unit_lengths > 1)
        for column in range(1, max_length):
            if column > 1:
                longer = longer[unit_lengths[longer] > column]
            values[longer] |= (
                raw[unit_starts[longer] + column] & 0x7F
            ).astype(np.int64) << (7 * column)
    # Frame boundaries must coincide with unit boundaries.
    if any(len(stream) == 0 for stream in streams):
        return None
    frame_byte_starts = np.zeros(len(streams), dtype=np.int64)
    frame_byte_starts[1:] = np.cumsum(
        [len(stream) for stream in streams[:-1]]
    )
    frame_units = np.searchsorted(unit_starts, frame_byte_starts)
    if (frame_units >= unit_total).any() or (
        unit_starts[frame_units] != frame_byte_starts
    ).any():
        return None
    # Token walk: per frame, tokens span 3 units (plain) or 5 (run).
    # Only the (rare) run tokens are collected; every start position is
    # then reconstructed with one cumulative sum over the step widths.
    values_list = values.tolist()
    run_token_list: list[int] = []
    append = run_token_list.append
    frame_token_counts: list[int] = []
    unit = 0
    token_total = 0
    for limit in frame_units[1:].tolist() + [unit_total]:
        token_count = 0
        while unit < limit:
            if values_list[unit] & _RUN_FLAG:
                append(token_total + token_count)
                unit += 5
            else:
                unit += 3
            token_count += 1
        if unit != limit or token_count == 0:
            return None
        frame_token_counts.append(token_count)
        token_total += token_count
    run_tokens = np.array(run_token_list, dtype=np.int64)
    steps = np.full(token_total, 3, dtype=np.int64)
    steps[run_tokens] = 5
    starts = np.cumsum(steps) - steps
    # The walk's step decisions used decoded unit values; they match the
    # scalar decoder's raw kind bytes only where the kind unit really is
    # a single byte, so multi-byte "kind" units force the fallback.
    kind_bytes = values[starts]
    if ((kind_bytes & ~_RUN_FLAG) > EV_EPOCH).any() or (
        unit_lengths[starts] != 1
    ).any():
        return None
    run_starts = starts[run_tokens]
    counts = np.ones(token_total, dtype=np.int64)
    counts[run_tokens] = values[run_starts + 1]
    if (counts[run_tokens] <= 0).any():
        return None  # zero-length runs shift the delta base: fall back
    run_offset = np.zeros(token_total, dtype=np.int64)
    run_offset[run_tokens] = 1
    zigzag = values[starts + 1 + run_offset]
    first_deltas = (zigzag >> 1) ^ -(zigzag & 1)
    strides = np.zeros(token_total, dtype=np.int64)
    zigzag_strides = values[run_starts + 3]
    strides[run_tokens] = (zigzag_strides >> 1) ^ -(zigzag_strides & 1)
    args = values[starts + 2 + 2 * run_offset]
    frame_token_starts = np.zeros(len(streams), dtype=np.int64)
    frame_token_starts[1:] = np.cumsum(frame_token_counts[:-1])
    produced = np.add.reduceat(counts, frame_token_starts)
    if (produced != np.asarray(record_counts, dtype=np.int64)).any():
        return None
    # Expansion: per-record address increments are a token's delta on
    # its first record and the run stride afterwards; the cumulative sum
    # re-bases at every frame boundary (the encoder resets the delta
    # base to 0 per frame).
    kind_column = np.repeat((kind_bytes & ~_RUN_FLAG).astype(np.uint8), counts)
    arg_column = np.repeat(args, counts)
    increments = np.repeat(strides, counts)
    record_starts = np.cumsum(counts) - counts
    increments[record_starts] = first_deltas
    address_column = np.cumsum(increments)
    if len(streams) > 1:
        frame_record_starts = np.cumsum(produced) - produced
        bases = np.zeros(len(streams), dtype=np.int64)
        bases[1:] = address_column[frame_record_starts[1:] - 1]
        address_column = address_column - np.repeat(bases, produced)
    return RecordColumns(
        kind=kind_column, address=address_column, arg=arg_column
    )


# -- streaming writer ---------------------------------------------------------


class CompressedTraceWriter(TraceWriterBase):
    """Streaming CALTRC02 writer; drop-in for :class:`TraceWriter`.

    Identical interface (``append`` / ``set_footer`` / ``close`` /
    ``abort`` / context manager / ``record_count``): the recorder, the
    sharder and :func:`transcode` pick their writer by format version and
    never look inside.  The target/preamble/abort plumbing is the shared
    :class:`~repro.traces.format.TraceWriterBase`; this class only owns
    the frame buffer.
    """

    MAGIC_BYTES = MAGIC_V2

    def __init__(self, target: str | BinaryIO, header: dict):
        super().__init__(target, header)
        self.frame_count = 0
        self._buffer: list[tuple[int, int, int]] = []

    def append(self, kind: int, address: int, arg: int) -> None:
        """Append one record; flushes a frame at epoch boundaries."""
        self._buffer.append((kind, address, arg))
        self.record_count += 1
        if kind == EV_EPOCH or len(self._buffer) >= MAX_FRAME_RECORDS:
            self._flush_frame()

    def _flush_frame(self) -> None:
        if not self._buffer:
            return
        payload = encode_frame(self._buffer)
        self._file.write(
            _FRAME_RECORDS_HEAD.pack(
                FRAME_RECORDS, len(self._buffer), len(payload)
            )
        )
        self._file.write(payload)
        self.frame_count += 1
        self._buffer.clear()

    def _discard_buffer(self) -> None:
        self._buffer.clear()

    def close(self) -> None:
        self._flush_frame()
        footer_bytes = self._footer_bytes()
        self._file.write(_FRAME_END_HEAD.pack(FRAME_END, len(footer_bytes)))
        self._file.write(footer_bytes)
        self._finish()


# -- streaming reader side (driven by TraceReader) ----------------------------


def _read_exact(
    file: BinaryIO,
    size: int,
    what: str,
    path: str | None = None,
    offset: int | None = None,
) -> bytes:
    data = file.read(size)
    if len(data) != size:
        raise TraceFormatError(
            f"truncated compressed trace: {what}", path=path, offset=offset
        )
    return data


def _iter_frames(reader: TraceReader) -> Iterator[tuple[int, int, bytes]]:
    """Walk a CALTRC02 reader's frames: ``(frame_offset, records, payload)``.

    The shared stream layer under both record-tuple and columnar
    iteration: reads each record frame's header + compressed payload,
    parses the terminator frame's footer into ``reader.footer``, and
    attributes truncation/corruption to the offending frame's byte
    offset.  Payload decoding is the caller's business.
    """
    import json

    file = reader._file
    path = reader.path
    position = reader.data_offset  # offset of the next frame's type byte
    while True:
        frame_start = position
        type_byte = file.read(1)
        if not type_byte:
            raise reader.error(
                "compressed trace ends without a terminator frame",
                offset=frame_start,
            )
        frame_type = type_byte[0]
        if frame_type == FRAME_RECORDS:
            head = _read_exact(
                file, _FRAME_RECORDS_HEAD.size - 1, "frame header",
                path=path, offset=frame_start,
            )
            record_count, payload_length = struct.unpack("<II", head)
            payload = _read_exact(
                file, payload_length, "frame payload",
                path=path, offset=frame_start,
            )
            position = frame_start + _FRAME_RECORDS_HEAD.size + payload_length
            yield frame_start, record_count, payload
        elif frame_type == FRAME_END:
            head = _read_exact(
                file, _FRAME_END_HEAD.size - 1, "footer length",
                path=path, offset=frame_start,
            )
            (footer_length,) = struct.unpack("<I", head)
            footer_bytes = _read_exact(
                file, footer_length, "footer", path=path, offset=frame_start
            )
            try:
                reader.footer = json.loads(footer_bytes)
            except ValueError as error:
                raise reader.error(
                    f"corrupt trace footer JSON: {error}", offset=frame_start
                ) from None
            return
        else:
            raise reader.error(
                f"corrupt compressed trace: unknown frame type "
                f"0x{frame_type:02X}",
                offset=frame_start,
            )


def iter_compressed_records(reader: TraceReader) -> Iterator[tuple[int, int, int]]:
    """Record iterator for a :class:`TraceReader` positioned after the
    header of a CALTRC02 file.  Populates ``reader.footer`` when the end
    frame is reached, mirroring the v1 iterator's contract.  Errors —
    including frame-payload corruption detected inside
    :func:`decode_frame` — are located at the offending frame's byte
    offset in the reader's file."""
    path = reader.path
    for frame_start, record_count, payload in _iter_frames(reader):
        try:
            yield from decode_frame(payload, record_count)
        except TraceFormatError as error:
            raise error.located(path, frame_start) from None


#: Records accumulated before one grouped columnar decode.  Epoch frames
#: are a few hundred records each; decoding a group of them as one
#: vectorized pass amortises the array-op overhead that would otherwise
#: dominate per-frame columns.
FRAME_GROUP_RECORDS = 1 << 18


def _decode_group(reader, group):
    """Decode a list of ``(frame_start, record_count, payload)`` frames
    into one concatenated :class:`RecordColumns`, or — when the fast
    path declines — per-frame token-walk columns with the standard
    located errors."""
    from repro.traces.format import RecordColumns

    path = reader.path
    streams = []
    for frame_start, _, payload in group:
        try:
            streams.append(zlib.decompress(payload))
        except zlib.error as error:
            raise TraceFormatError(f"corrupt frame: {error}").located(
                path, frame_start
            ) from None
    columns = _decode_frames_fast(
        streams, [record_count for _, record_count, _ in group]
    )
    tel = telemetry_active()
    if tel is not None:
        tel.inc("decode_frames_total", len(group))
        tel.inc(
            "decode_records_total",
            sum(record_count for _, record_count, _ in group),
        )
        if columns is None:
            tel.inc("decode_scalar_fallback_total", len(group))
    if columns is not None:
        return columns
    parts = []
    for (frame_start, record_count, _), tokens in zip(group, streams):
        try:
            parts.append(
                _decode_frame_columns_tokens(tokens, record_count)
            )
        except TraceFormatError as error:
            raise error.located(path, frame_start) from None
    return RecordColumns(
        kind=np.concatenate([part.kind for part in parts]),
        address=np.concatenate([part.address for part in parts]),
        arg=np.concatenate([part.arg for part in parts]),
    )


def iter_compressed_columns(reader: TraceReader):
    """Columnar frame iterator: one
    :class:`~repro.traces.format.RecordColumns` per *group* of record
    frames (up to :data:`FRAME_GROUP_RECORDS` records).

    The array-native side of :meth:`TraceReader.column_batches` for
    CALTRC02 files; same footer and error-location contract as
    :func:`iter_compressed_records`.  Batch boundaries are a decoding
    artifact — consumers see the identical concatenated record stream
    whatever the grouping.
    """
    group: list[tuple[int, int, bytes]] = []
    pending = 0
    for frame_start, record_count, payload in _iter_frames(reader):
        group.append((frame_start, record_count, payload))
        pending += record_count
        if pending >= FRAME_GROUP_RECORDS:
            yield _decode_group(reader, group)
            group = []
            pending = 0
    if group:
        yield _decode_group(reader, group)


# -- frame statistics (no decompression) --------------------------------------


def frame_stats(path: str) -> list[tuple[int, int]]:
    """Per-frame ``(records, compressed_payload_bytes)`` of a CALTRC02
    file, by scanning frame headers and seeking past payloads — no
    decompression, so ``trace info`` stays cheap on big traces."""
    with TraceReader(path) as reader:
        if reader.version != 2:
            raise TraceFormatError(
                f"{path} is not a compressed (CALTRC02) trace"
            )
        file = reader._file
        frames: list[tuple[int, int]] = []
        position = reader.data_offset
        while True:
            frame_start = position
            type_byte = file.read(1)
            if not type_byte:
                raise reader.error(
                    "compressed trace ends without a terminator frame",
                    offset=frame_start,
                )
            frame_type = type_byte[0]
            if frame_type == FRAME_RECORDS:
                head = _read_exact(
                    file, _FRAME_RECORDS_HEAD.size - 1, "frame header",
                    path=path, offset=frame_start,
                )
                record_count, payload_length = struct.unpack("<II", head)
                file.seek(payload_length, 1)
                position = (
                    frame_start + _FRAME_RECORDS_HEAD.size + payload_length
                )
                frames.append((record_count, payload_length))
            elif frame_type == FRAME_END:
                return frames
            else:
                raise reader.error(
                    "corrupt compressed trace: unknown frame type "
                    f"0x{frame_type:02X}",
                    offset=frame_start,
                )


def compression_summary(path: str, records: int) -> dict:
    """Ratio + frame aggregates for ``trace info`` (CALTRC02 only)."""
    frames = frame_stats(path)
    payload_bytes = sum(size for _, size in frames)
    raw_bytes = records * RECORD_SIZE
    per_frame = [count for count, _ in frames]
    return {
        "frames": len(frames),
        "payload_bytes": payload_bytes,
        "raw_record_bytes": raw_bytes,
        "ratio": (raw_bytes / payload_bytes) if payload_bytes else float("inf"),
        "records_per_frame_min": min(per_frame) if per_frame else 0,
        "records_per_frame_max": max(per_frame) if per_frame else 0,
        "records_per_frame_avg": (records / len(frames)) if frames else 0.0,
        "frame_detail": frames,
    }


# -- transcoding --------------------------------------------------------------


def transcode(source, target, version: int) -> int:
    """Stream any-version ``source`` into ``target`` at ``version``.

    Preserves the header (with ``format`` updated), every record, and the
    footer byte-for-byte in JSON terms, so the canonical identity — and
    every replay statistic — is unchanged.  Returns the record count.
    """
    from repro.traces.format import trace_writer

    magic = {1: MAGIC, 2: MAGIC_V2}.get(version)
    if magic is None:
        raise ValueError(f"unknown trace format version {version}")
    with TraceReader(source) as reader:
        header = dict(reader.header)
        if "format" in header:
            header["format"] = magic.decode("ascii")
        with trace_writer(target, header, version=version) as writer:
            append = writer.append
            for kind, address, arg in reader.records():
                append(kind, address, arg)
            writer.set_footer(reader.read_footer())
    return writer.record_count

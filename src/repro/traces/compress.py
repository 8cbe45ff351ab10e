"""CALTRC02: the epoch-framed compressed trace format.

Cold traces are highly redundant: addresses walk in small strides,
``arg`` is almost always the access width, and scans/pre-warm loops emit
thousands of constant-stride touches.  ``CALTRC02`` (the container of
:mod:`repro.traces.format`: magic, JSON header, record stream, JSON
footer) stores the record stream as a sequence of independently
decodable *frames*:

* one frame per recorded **epoch** (the sink's shard split points), so
  frame boundaries coincide with the only legal shard boundaries and
  sharded/multi-core replay stream frame-by-frame exactly as before;
* inside a frame, records are byte-tokenised: **delta-encoded addresses**
  (zigzag varints against the previous record's address), **varint args**
  and **run tokens** that collapse a monotone constant-stride burst
  (scans, the pre-warm sweep, CFORM line walks) into one token;
* the token stream is then **zlib-deflated**, frame by frame.

Frame wire format (after the ``magic + u32 header-length + header
JSON`` preamble, all integers little-endian)::

    0x01  u32 record_count  u32 payload_length  <deflate(tokens)>   * N
    0xFF  u32 footer_length  <footer JSON>

Tokens (``kind`` is the ``EV_*`` record kind, 0..6)::

    kind                 zigzag-varint Δaddress  varint arg
    kind | 0x08 (run)    varint count  zigzag-varint Δstart
                         zigzag-varint stride    varint arg

A run token expands to ``count`` records of the same kind and arg whose
addresses step by ``stride``; the delta base resets to 0 at every frame
boundary so frames decode independently.  Encode and decode are both
fully streaming and columnar: the writer buffers at most one frame of
records and encodes the frames each record block completes in one
vectorized pass (:func:`_encode_frames`), the reader
(:meth:`~repro.traces.format.TraceReader.column_batches`) decodes a
bounded group of frames at a time into record columns — compression
never changes what the replayers see, only how many bytes hold it.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from repro.memory.kernel import check_kinds
from repro.telemetry.runtime import active as telemetry_active
from repro.traces.format import (
    _HEADER_LEN,
    EV_EPOCH,
    MAGIC,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
)

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


def _leb128(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LEB128 varint bytes of a uint64 column, value after value,
    and the byte offset where each value starts.

    Most values fit one byte, so the longer ones are filled in byte
    column by byte column over a shrinking index set; every byte but
    the last of each value then gets the continuation bit.
    """
    sizes = np.ones(len(values), dtype=np.int64)
    wide = np.flatnonzero(values > 0x7F)
    shift = 7
    while wide.size:
        sizes[wide] += 1
        shift += 7
        if shift > 63:
            break
        wide = wide[(values[wide] >> shift) != 0]
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[offsets] = values & 0x7F
    longer = np.flatnonzero(sizes > 1)
    for byte in range(1, 10):
        if not longer.size:
            break
        out[offsets[longer] + byte] = (values[longer] >> (7 * byte)) & 0x7F
        longer = longer[sizes[longer] > byte + 1]
    out |= 0x80
    out[ends - 1] &= 0x7F
    return out, offsets


# -- frame decoding -----------------------------------------------------------


def _int64_field(values: list[int], field: str) -> np.ndarray:
    """One decoded token field as an int64 column, or a diagnosis
    naming the field whose value the columnar engine cannot hold."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise TraceFormatError(
            f"corrupt frame: {field} exceeds the columnar engine's int64 "
            "range"
        ) from None


def _decode_frame_tokens(tokens: bytes, record_count: int):
    """Per-token fallback decoder (also the corrupt-frame diagnoser).

    One Python step per token, validating as it goes: an invalid kind
    byte, a truncated varint or a record count that disagrees with the
    frame header raises a precise :class:`TraceFormatError` for frames
    the vectorized :func:`_decode_frames_fast` declines.
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
    count_column = _int64_field(counts, "run length")
    kind_column = np.repeat(np.array(kinds, dtype=np.uint8), count_column)
    arg_column = np.repeat(_int64_field(args, "arg"), count_column)
    increments = np.repeat(_int64_field(strides, "run stride"), count_column)
    if counts:
        starts = np.cumsum(count_column) - count_column
        increments[starts] = _int64_field(first_deltas, "address delta")
    address_column = np.cumsum(increments)
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


# -- columnar frame encoder ---------------------------------------------------


def _encode_frames(kinds, addresses, args, lengths: list[int]) -> bytes:
    """The wire bytes (heads + deflated tokens) of consecutive frames.

    ``lengths`` cuts the record columns into frames.  Tokenising runs
    once over all of them: pair ``j`` joins records ``j`` and ``j + 1``
    of one frame when they share kind and arg, and maximal stretches of
    pairs with one address step are the constant-stride segments.  A
    greedy walk takes a run token wherever one reaches :data:`MIN_RUN`
    records — a run starting at record ``i`` covers ``1 +`` the segment
    pairs from ``i`` on, and a run ending on a segment's last record
    leaves the next segment one record shorter — and every record no run
    covers is a plain token.  All token fields are then varint-encoded
    in one pass; only zlib runs per frame.
    """
    count = len(kinds)
    frame_ends = np.cumsum(lengths)
    frame_starts = frame_ends - lengths
    steps = addresses[1:] - addresses[:-1]  # wraps where it overflows
    inner = np.ones(count - 1, dtype=bool)
    inner[frame_ends[:-1] - 1] = False
    wrapped = ((addresses[1:] ^ addresses[:-1]) & (addresses[1:] ^ steps)) < 0
    if (wrapped & inner).any():
        row = int(np.flatnonzero(wrapped & inner)[0])
        raise TraceFormatError(
            f"address column: consecutive addresses {int(addresses[row])} "
            f"and {int(addresses[row + 1])} of one frame are further apart "
            "than a CALTRC02 address delta can hold"
        )
    paired = inner & (kinds[1:] == kinds[:-1]) & (args[1:] == args[:-1])
    continues = paired[1:] & paired[:-1] & (steps[1:] == steps[:-1])
    firsts = paired.copy()
    firsts[1:] &= ~continues
    lasts = paired.copy()
    lasts[:-1] &= ~continues
    segment_starts = np.flatnonzero(firsts)
    segment_ends = np.flatnonzero(lasts) + 1  # the segment's last record
    long = segment_ends - segment_starts + 1 >= MIN_RUN
    run_starts: list[int] = []
    run_stops: list[int] = []
    free = 0  # the first record no run has taken yet
    for start, end in zip(
        segment_starts[long].tolist(), segment_ends[long].tolist()
    ):
        start = max(start, free)
        if end - start + 1 >= MIN_RUN:
            run_starts.append(start)
            run_stops.append(end + 1)
            free = end + 1
    runs = np.array(run_starts, dtype=np.int64)
    stops = np.array(run_stops, dtype=np.int64)
    # Token starts: every record but the second-and-later of a run.
    inside = np.zeros(count + 1, dtype=np.int64)
    inside[runs + 1] += 1
    inside[stops] -= 1
    tokens = np.flatnonzero(np.cumsum(inside[:count]) == 0)
    is_run = np.zeros(count, dtype=bool)
    is_run[runs] = True
    token_is_run = is_run[tokens]
    deltas = np.empty(count, dtype=np.int64)
    deltas[1:] = steps
    deltas[frame_starts] = addresses[frame_starts]  # base 0 per frame
    # Units: kind byte, then (plain) Δaddress, arg or (run) count,
    # Δstart, stride, arg; zigzag makes the signed fields unsigned.
    widths = 3 + 2 * token_is_run.astype(np.int64)
    unit_starts = np.cumsum(widths) - widths
    units = np.empty(int(widths.sum()), dtype=np.int64)
    units[unit_starts] = kinds[tokens] | (token_is_run * _RUN_FLAG)
    token_deltas = deltas[tokens]
    units[unit_starts + 1 + token_is_run] = (token_deltas << 1) ^ (
        token_deltas >> 63
    )
    units[unit_starts + widths - 1] = args[tokens]
    run_units = unit_starts[token_is_run]
    units[run_units + 1] = stops - runs
    strides = steps[runs]
    units[run_units + 3] = (strides << 1) ^ (strides >> 63)
    encoded, unit_offsets = _leb128(units.view(np.uint64))
    # A frame's first record starts a token (no run crosses frames).
    frame_bytes = unit_offsets[
        unit_starts[np.searchsorted(tokens, frame_starts)]
    ].tolist()
    frame_bytes.append(len(encoded))
    view = memoryview(encoded)
    pieces = []
    for index, length in enumerate(lengths):
        payload = zlib.compress(
            view[frame_bytes[index] : frame_bytes[index + 1]],
            COMPRESSION_LEVEL,
        )
        pieces.append(
            _FRAME_RECORDS_HEAD.pack(FRAME_RECORDS, length, len(payload))
        )
        pieces.append(payload)
    return b"".join(pieces)


# -- streaming writer ---------------------------------------------------------


def _int64_column(values, column: str) -> np.ndarray:
    """``values`` as an int64 column, refusing what int64 cannot hold."""
    try:
        result = np.asarray(values, dtype=np.int64)
    except OverflowError:
        result = None
    if result is None or (
        getattr(values, "dtype", None) == np.uint64 and (result < 0).any()
    ):
        raise TraceFormatError(
            f"{column} column holds a value outside the int64 range"
        )
    return result


class CompressedTraceWriter:
    """Streaming CALTRC02 writer: header first, frames, footer last.

    ``target`` is a path or a binary file object (e.g. ``io.BytesIO``).
    Use as a context manager, or call :meth:`close` after the footer::

        with CompressedTraceWriter("x.trace", header) as writer:
            writer.append_columns(kinds, addresses, args)
            ...
            writer.set_footer({"records": writer.record_count})

    The header is serialised *before* the target is opened, so a
    non-JSON-able header never leaves an empty file or a leaked
    descriptor behind.  The writer holds the unfinished frame as the
    column blocks it arrived in.  Each block is checked, cut into frames
    (after every EPOCH record, and wherever a frame reaches
    :data:`MAX_FRAME_RECORDS`), and the frames it completes are encoded
    together by :func:`_encode_frames`.
    """

    def __init__(self, target: str | BinaryIO, header: dict):
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.record_count = 0
        self._footer: dict | None = None
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending_records = 0
        try:
            self._file.write(MAGIC)
            self._file.write(_HEADER_LEN.pack(len(header_bytes)))
            self._file.write(header_bytes)
        except BaseException:
            if self._owns_file:
                self._file.close()
            raise

    def append(self, kind: int, address: int, arg: int) -> None:
        """Append one record: the one-row case of :meth:`append_columns`."""
        self.append_columns((kind,), (address,), (arg,))

    def append_columns(self, kinds, addresses, args) -> None:
        """Append a block of records; writes every frame it completes.

        Refuses, naming the column, a record no CALTRC02 reader can
        decode: an unknown kind, an address outside int64, an arg that
        is negative or 2**63 or more, or (at encode time) two addresses
        of one frame further apart than an int64 delta.
        """
        kinds = np.asarray(kinds, dtype=np.uint8)
        check_kinds(kinds)
        addresses = _int64_column(addresses, "address")
        args = _int64_column(args, "arg")
        if (args < 0).any():
            raise TraceFormatError("arg column holds a negative value")
        # Block-relative ends of the frames this block completes.
        ends = []
        start = -self._pending_records
        cap = MAX_FRAME_RECORDS
        for epoch_end in (np.flatnonzero(kinds == EV_EPOCH) + 1).tolist():
            ends.extend(range(start + cap, epoch_end, cap))
            ends.append(epoch_end)
            start = epoch_end
        ends.extend(range(start + cap, len(kinds) + 1, cap))
        self.record_count += len(kinds)
        if ends:
            cut = ends[-1]
            self._pending.append((kinds[:cut], addresses[:cut], args[:cut]))
            self._write_frames(
                np.diff([-self._pending_records, *ends]).tolist()
            )
            kinds, addresses, args = kinds[cut:], addresses[cut:], args[cut:]
        if len(kinds):
            self._pending.append((kinds.copy(), addresses.copy(), args.copy()))
            self._pending_records += len(kinds)

    def _write_frames(self, lengths: list[int]) -> None:
        """Encode the pending blocks as frames of ``lengths`` records."""
        kinds, addresses, args = (
            np.concatenate(column) for column in zip(*self._pending)
        )
        self._file.write(_encode_frames(kinds, addresses, args, lengths))
        self._discard_buffer()

    def _discard_buffer(self) -> None:
        self._pending.clear()
        self._pending_records = 0

    def set_footer(self, footer: dict) -> None:
        """Provide the summary written after the terminator."""
        self._footer = dict(footer)

    def close(self) -> None:
        if self._pending_records:
            self._write_frames([self._pending_records])
        footer_bytes = json.dumps(self._footer or {}, sort_keys=True).encode(
            "utf-8"
        )
        self._file.write(_FRAME_END_HEAD.pack(FRAME_END, len(footer_bytes)))
        self._file.write(footer_bytes)
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def abort(self) -> None:
        """Close without writing a terminator/footer (error cleanup).

        The file is left deliberately invalid-on-read; callers should
        unlink it.
        """
        self._discard_buffer()
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


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
    """Walk a reader's frames: ``(frame_offset, records, payload)``.

    The stream layer under columnar iteration: reads each record frame's
    header + compressed payload, parses the terminator frame's footer
    into ``reader.footer``, and attributes truncation/corruption to the
    offending frame's byte offset.  Payload decoding is the caller's
    business.
    """
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


def tail_footer(reader: TraceReader) -> dict:
    """A CALTRC02 trace's footer, found from the end of its bytes.

    No frame is walked.  The footer is ``json.dumps`` output with
    ``ensure_ascii`` on, so it holds no 0xFF byte: the terminator
    frame's type byte (``FRAME_END``) is the last 0xFF before the
    footer, and only the four bytes of its length field can hold a
    later one.  So of the last five 0xFF bytes, the type byte is the one
    whose ``<BI`` head's length equals the bytes after the head; if none
    is, the tail is damaged and :class:`TraceFormatError` is raised.
    """
    data = reader._file.read()
    position = len(data)
    for _ in range(_FRAME_END_HEAD.size):
        position = data.rfind(bytes((FRAME_END,)), 0, position)
        if position < 0:
            break
        head_end = position + _FRAME_END_HEAD.size
        if head_end <= len(data) and (
            _FRAME_END_HEAD.unpack_from(data, position)[1]
            == len(data) - head_end
        ):
            try:
                return json.loads(data[head_end:])
            except ValueError as error:
                raise reader.error(
                    f"corrupt trace footer JSON: {error}",
                    offset=reader.data_offset + position,
                ) from None
    raise reader.error(
        "compressed trace ends without a terminator frame",
        offset=reader.data_offset + len(data),
    )


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
            parts.append(_decode_frame_tokens(tokens, record_count))
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

    The CALTRC02 side of :meth:`TraceReader.column_batches`: populates
    ``reader.footer`` when the end frame is reached, and locates every
    error — including frame-payload corruption — at the offending
    frame's byte offset in the reader's file.  Batch boundaries are a
    decoding artifact — consumers see the identical concatenated record
    stream whatever the grouping.
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
    """Ratio + frame aggregates for ``trace info``; the raw size is the
    canonical stream's 13 bytes per record."""
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

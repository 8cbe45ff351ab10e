"""The Califorms trace format: compact, versioned, streamable.

A trace file is a persisted workload — the exact event stream one
:func:`repro.workloads.generator.run_trace` run pushed through the cache
ladder, plus enough metadata to rebuild the run and verify the replay.

Layout (all integers little-endian)::

    magic    8 bytes   b"CALTRC01" (version is part of the magic)
    u32      header length in bytes
    JSON     header: scenario spec, cache geometry, format constants
    records  13-byte packed records, ``<BQI`` = (kind, address, arg)
    record   terminator: kind=0xFF, address=0, arg=<footer length>
    JSON     footer: summary statistics of the recorded run

Record kinds are the generator's ``EV_*`` event stream (re-exported
here): LOAD/STORE are single cache touches (``arg`` = access size in
bytes, informational for timing replay, load/store width for hierarchy
replay); CFORM is one (de)allocation-side califorming that expands to
``arg`` line touches at ``address + i*64``; ALLOC/FREE carry the carved
object size and touch nothing; WARM marks the end-of-warmup counter
reset; EPOCH markers sit between bursts and are the only legal shard
split points.

Both :class:`TraceWriter` and :class:`TraceReader` stream: the writer
buffers a bounded number of packed records before flushing, the reader
iterates the file in fixed-size chunks — neither ever holds a full trace
in memory, so traces are bounded by disk, not by RAM.

Two container versions share this module's reader:

* ``CALTRC01`` — the layout above (one fixed 13-byte struct per record);
* ``CALTRC02`` — the same preamble and footer semantics, but the record
  stream is stored as per-epoch compressed frames (delta/run-length
  tokens + zlib; see :mod:`repro.traces.compress`).

:class:`TraceReader` detects the version from the magic and yields the
identical ``(kind, address, arg)`` stream either way, so every consumer
(replay, shard, multi-core, info) is version-agnostic; writers are
chosen per version through :func:`trace_writer`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from repro.telemetry.runtime import active as telemetry_active
from repro.workloads.generator import (  # noqa: F401  (re-exported)
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
)

#: Bump the trailing digits when the binary layout changes shape.
MAGIC = b"CALTRC01"

#: The compressed container's magic; canonical home is
#: :data:`repro.traces.compress.MAGIC_V2` (kept as a private alias here
#: so version sniffing needs no import of the codec module).
_MAGIC_V2 = b"CALTRC02"

#: Terminator record kind; its ``arg`` is the footer's byte length.
EV_END = 0xFF

#: One record: kind (u8), address (u64), arg (u32).
RECORD = struct.Struct("<BQI")
RECORD_SIZE = RECORD.size

#: Human-readable names, for ``info`` output and error messages.
KIND_NAMES = {
    EV_LOAD: "load",
    EV_STORE: "store",
    EV_ALLOC: "alloc",
    EV_FREE: "free",
    EV_CFORM: "cform",
    EV_WARM: "warm",
    EV_EPOCH: "epoch",
}

_HEADER_LEN = struct.Struct("<I")


class TraceFormatError(ValueError):
    """Raised for malformed trace files (bad magic, truncation, ...).

    Carries the offending file's ``path`` and the byte ``offset`` where
    parsing stopped whenever the raiser knows them, so a failure inside
    a multi-shard or multi-object replay is attributable to one file and
    one position instead of only a frame/record index.  ``detail`` is
    the undecorated message (used when re-raising with added context).
    """

    def __init__(
        self,
        detail: str,
        *,
        path: str | None = None,
        offset: int | None = None,
    ):
        self.detail = detail
        self.path = path
        self.offset = offset
        message = detail
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)

    def located(
        self, path: str | None, offset: int | None = None
    ) -> "TraceFormatError":
        """This error re-decorated with location context (if missing)."""
        if self.path is not None:
            return self
        return TraceFormatError(
            self.detail, path=path, offset=self.offset if offset is None else offset
        )


class TraceIntegrityError(ValueError):
    """Raised when a replay's recomputed statistics contradict the footer."""


@dataclass(frozen=True)
class RecordColumns:
    """One decoded batch of records as parallel columns.

    The array-native equivalent of a run of ``(kind, address, arg)``
    tuples: ``kind`` is uint8, ``address`` and ``arg`` are int64 (record
    addresses are far below 2**63; signed width keeps delta/cumsum
    arithmetic and Python-int round-trips exact).  Row ``i`` of the three
    arrays is record ``i`` of the batch, in stream order — a batch holds
    one CALTRC02 frame or one CALTRC01 read chunk, so iterating batches
    yields the identical record stream :meth:`TraceReader.records` would.
    """

    kind: np.ndarray
    address: np.ndarray
    arg: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


class TraceWriterBase:
    """Shared plumbing of the streaming trace writers.

    Handles everything that is identical across container versions —
    path-vs-file-object ownership, the ``magic + header-length + header
    JSON`` preamble (serialised *before* opening, so a non-JSON-able
    header never leaves an empty file or a leaked descriptor behind),
    footer stashing, :meth:`abort` and the context-manager protocol.
    Subclasses define :attr:`MAGIC_BYTES`, the record buffer
    (:meth:`append` / :meth:`_discard_buffer`) and :meth:`close`.
    """

    MAGIC_BYTES: bytes

    def __init__(self, target: str | BinaryIO, header: dict):
        self.header = dict(header)
        header_bytes = json.dumps(self.header, sort_keys=True).encode("utf-8")
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.record_count = 0
        self._footer: dict | None = None
        try:
            self._file.write(self.MAGIC_BYTES)
            self._file.write(_HEADER_LEN.pack(len(header_bytes)))
            self._file.write(header_bytes)
        except BaseException:
            if self._owns_file:
                self._file.close()
            raise

    def set_footer(self, footer: dict) -> None:
        """Provide the summary written after the terminator."""
        self._footer = dict(footer)

    def _footer_bytes(self) -> bytes:
        return json.dumps(self._footer or {}, sort_keys=True).encode("utf-8")

    def _discard_buffer(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        """Close without writing a terminator/footer (error cleanup).

        The file is left deliberately invalid-on-read; callers should
        unlink it.
        """
        self._discard_buffer()
        if self._owns_file:
            self._file.close()

    def _finish(self) -> None:
        """Flush and release the target (the tail of every close())."""
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class TraceWriter(TraceWriterBase):
    """Streaming CALTRC01 writer: header, packed records, footer last.

    ``target`` is a path or a binary file object (e.g. ``io.BytesIO``).
    Use as a context manager, or call :meth:`close` with the footer::

        with TraceWriter("x.trace", header) as writer:
            writer.append(EV_LOAD, 0x1000, 8)
            ...
            writer.set_footer({"records": writer.record_count})
    """

    MAGIC_BYTES = MAGIC

    #: Packed records buffered before a file write (~64 KB).
    FLUSH_RECORDS = 5000

    def __init__(self, target: str | BinaryIO, header: dict):
        super().__init__(target, header)
        self._buffer: list[bytes] = []
        self._pack = RECORD.pack

    def append(self, kind: int, address: int, arg: int) -> None:
        """Append one record.  This is the generator sink's hot call."""
        self._buffer.append(self._pack(kind, address, arg))
        self.record_count += 1
        if len(self._buffer) >= self.FLUSH_RECORDS:
            self._file.write(b"".join(self._buffer))
            self._buffer.clear()

    def _discard_buffer(self) -> None:
        self._buffer.clear()

    def close(self) -> None:
        footer_bytes = self._footer_bytes()
        self._buffer.append(self._pack(EV_END, 0, len(footer_bytes)))
        self._file.write(b"".join(self._buffer))
        self._buffer.clear()
        self._file.write(footer_bytes)
        self._finish()


class TraceReader:
    """Streaming reader over a trace file or binary file object.

    ``header`` is available immediately; :meth:`records` yields
    ``(kind, address, arg)`` tuples without materialising the trace;
    ``footer`` is populated once iteration reaches the terminator (or by
    :meth:`read_footer`, which drains the stream).
    """

    #: Bytes per read; chosen as a multiple of the record size so chunk
    #: boundaries never split a record.
    CHUNK_RECORDS = 8192

    def __init__(self, source: str | BinaryIO):
        if isinstance(source, str):
            self._file: BinaryIO = open(source, "rb")
            self._owns_file = True
            self.path: str | None = source
        else:
            self._file = source
            self._owns_file = False
            name = getattr(source, "name", None)
            self.path = name if isinstance(name, str) else None
        try:
            magic = self._file.read(len(MAGIC))
            if magic == MAGIC:
                self.version = 1
            elif magic == _MAGIC_V2:
                self.version = 2
            elif len(magic) < len(MAGIC):
                raise self.error(
                    f"truncated trace: file ends inside the magic "
                    f"({len(magic)} bytes)",
                    offset=0,
                )
            else:
                raise self.error(
                    f"not a Califorms trace (magic {magic!r}, wanted "
                    f"{MAGIC!r} or {_MAGIC_V2!r})",
                    offset=0,
                )
            try:
                (header_len,) = _HEADER_LEN.unpack(
                    self._file.read(_HEADER_LEN.size)
                )
            except struct.error:
                raise self.error(
                    "truncated trace header length", offset=len(MAGIC)
                ) from None
            header_bytes = self._file.read(header_len)
            if len(header_bytes) != header_len:
                raise self.error(
                    "truncated trace header",
                    offset=len(MAGIC) + _HEADER_LEN.size,
                )
            try:
                self.header: dict = json.loads(header_bytes)
            except ValueError as error:  # bad JSON or bad UTF-8
                raise self.error(
                    f"corrupt trace header JSON: {error}",
                    offset=len(MAGIC) + _HEADER_LEN.size,
                ) from None
        except BaseException:
            # Malformed input must not leak the descriptor we opened.
            if self._owns_file:
                self._file.close()
            raise
        #: Byte offset of the first record/frame (end of the preamble);
        #: record iterators count from here so errors are attributable.
        self.data_offset = len(MAGIC) + _HEADER_LEN.size + header_len
        self.footer: dict | None = None
        self._records_iter: Iterator[tuple[int, int, int]] | None = None

    def error(self, detail: str, offset: int | None = None) -> TraceFormatError:
        """A :class:`TraceFormatError` located in this reader's file."""
        return TraceFormatError(detail, path=self.path, offset=offset)

    def records(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(kind, address, arg)`` until the terminator record.

        Leaves :attr:`footer` populated.  Raises
        :class:`TraceFormatError` if the file ends without a terminator
        (a crashed or still-recording writer).

        The stream is single-pass: repeated calls return the *same*
        iterator (so a partially consumed iteration can be resumed, and
        :meth:`read_footer` drains from wherever iteration stopped
        without losing the chunk buffered by the suspended generator).
        """
        if self._records_iter is None:
            if self.version == 2:
                from repro.traces.compress import iter_compressed_records

                self._records_iter = iter_compressed_records(self)
            else:
                self._records_iter = self._iter_records()
        return self._records_iter

    def _iter_records(self) -> Iterator[tuple[int, int, int]]:
        chunk_bytes = self.CHUNK_RECORDS * RECORD_SIZE
        unpack_from = RECORD.unpack_from
        pending = b""
        position = self.data_offset  # file offset of the next record
        while True:
            chunk = pending + self._file.read(chunk_bytes)
            if not chunk:
                raise self.error(
                    "trace ends without a terminator record", offset=position
                )
            usable = len(chunk) - (len(chunk) % RECORD_SIZE)
            for offset in range(0, usable, RECORD_SIZE):
                kind, address, arg = unpack_from(chunk, offset)
                if kind == EV_END:
                    tail = chunk[offset + RECORD_SIZE :]
                    self._read_footer_bytes(
                        arg, tail, position + offset + RECORD_SIZE
                    )
                    return
                yield kind, address, arg
            pending = chunk[usable:]
            position += usable
            if usable == 0:
                raise self.error("truncated trace record", offset=position)

    #: Records per column batch on the v1 path; larger than the tuple
    #: iterator's chunk because one numpy batch amortises per-batch cost
    #: over more records (64 Ki records ≈ 832 KB resident, still bounded).
    COLUMN_CHUNK_RECORDS = 1 << 16

    #: The v1 record as a structured numpy dtype (packed, little-endian).
    _COLUMN_DTYPE = np.dtype([("kind", "u1"), ("address", "<u8"), ("arg", "<u4")])

    def column_batches(self) -> Iterator[RecordColumns]:
        """Yield the record stream as :class:`RecordColumns` batches.

        The columnar twin of :meth:`records`: the concatenation of the
        yielded batches is exactly the ``(kind, address, arg)`` stream,
        and :attr:`footer` is populated once the terminator is reached —
        but no per-record tuples are ever built.  v2 (CALTRC02) batches
        are one epoch frame each, decoded straight from the token stream
        (:func:`repro.traces.compress.iter_compressed_columns`); v1
        batches are fixed-size read chunks lifted via ``np.frombuffer``.

        Like :meth:`records`, the stream is single-pass; mixing the two
        iteration styles on one reader is not supported.
        """
        if self._records_iter is not None:
            raise RuntimeError(
                "column_batches() cannot resume a reader already being "
                "iterated with records()"
            )
        if self.version == 2:
            from repro.traces.compress import iter_compressed_columns

            return iter_compressed_columns(self)
        return self._iter_columns_v1()

    def _iter_columns_v1(self) -> Iterator[RecordColumns]:
        dtype = TraceReader._COLUMN_DTYPE
        chunk_bytes = self.COLUMN_CHUNK_RECORDS * RECORD_SIZE
        pending = b""
        position = self.data_offset  # file offset of the next record
        while True:
            chunk = pending + self._file.read(chunk_bytes)
            if not chunk:
                raise self.error(
                    "trace ends without a terminator record", offset=position
                )
            usable = len(chunk) - (len(chunk) % RECORD_SIZE)
            if usable == 0:
                raise self.error("truncated trace record", offset=position)
            rows = np.frombuffer(chunk, dtype=dtype, count=usable // RECORD_SIZE)
            kinds = rows["kind"]
            terminators = np.flatnonzero(kinds == EV_END)
            stop = int(terminators[0]) if terminators.size else len(rows)
            if stop:
                batch = rows[:stop]
                addresses = batch["address"]
                if bool((addresses >> np.uint64(63)).any()):
                    raise self.error(
                        "record address exceeds the columnar engine's "
                        "int64 range", offset=position,
                    )
                tel = telemetry_active()
                if tel is not None:
                    tel.inc("decode_records_total", stop, format="v1")
                yield RecordColumns(
                    kind=np.ascontiguousarray(batch["kind"]),
                    address=addresses.astype(np.int64),
                    arg=batch["arg"].astype(np.int64),
                )
            if terminators.size:
                footer_length = int(rows["arg"][stop])
                tail = chunk[(stop + 1) * RECORD_SIZE :]
                self._read_footer_bytes(
                    footer_length, tail, position + (stop + 1) * RECORD_SIZE
                )
                return
            pending = chunk[usable:]
            position += usable

    def _read_footer_bytes(
        self, length: int, already_read: bytes, offset: int | None = None
    ) -> None:
        footer_bytes = already_read[:length]
        if len(footer_bytes) < length:
            footer_bytes += self._file.read(length - len(footer_bytes))
        if len(footer_bytes) != length:
            raise self.error("truncated trace footer", offset=offset)
        try:
            self.footer = json.loads(footer_bytes)
        except ValueError as error:  # bad JSON or bad UTF-8
            raise self.error(
                f"corrupt trace footer JSON: {error}", offset=offset
            ) from None

    def read_footer(self) -> dict:
        """Drain remaining records and return the footer summary.

        Safe mid-iteration: it continues the shared :meth:`records`
        iterator rather than re-reading the file.
        """
        if self.footer is None:
            for _ in self.records():
                pass
        if self.footer is None:
            raise TraceFormatError("trace ends without a terminator record")
        return self.footer

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def trace_writer(target: str | BinaryIO, header: dict, version: int = 1):
    """Open a streaming writer for the requested container version.

    Version 1 is the fixed-record :class:`TraceWriter`; version 2 the
    frame-compressed :class:`~repro.traces.compress.CompressedTraceWriter`.
    Both expose the same interface, so callers (recorder, sharder,
    transcoder) stay version-agnostic.
    """
    if version == 1:
        return TraceWriter(target, header)
    if version == 2:
        from repro.traces.compress import CompressedTraceWriter

        return CompressedTraceWriter(target, header)
    raise ValueError(f"unknown trace format version {version}")


def read_header(path: str) -> dict:
    """Cheaply read just the header of a trace file."""
    with TraceReader(path) as reader:
        return reader.header

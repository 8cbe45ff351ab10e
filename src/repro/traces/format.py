"""The Califorms trace format: one container, one canonical stream.

A trace file is a persisted workload — the exact event stream one
:func:`repro.workloads.generator.run_trace` run pushed through the cache
ladder, plus enough metadata to rebuild the run and verify the replay.

The container is ``CALTRC02`` (all integers little-endian)::

    magic    8 bytes   b"CALTRC02" (version is part of the magic)
    u32      header length in bytes
    JSON     header: scenario spec, cache geometry, format constants
    frames   compressed record frames of a fixed record count
             (delta/run-length tokens + zlib; see
             :mod:`repro.traces.compress`)
    frame    terminator: 0xFF, u32 footer length
    JSON     footer: summary statistics of the recorded run

Record kinds are the ``EV_*`` record stream of
:mod:`repro.memory.kernel` (re-exported here): LOAD/STORE are single
cache touches (``arg`` = access size in bytes, informational for timing
replay, load/store width for hierarchy replay); CFORM is one
(de)allocation-side califorming that expands to ``arg`` line touches at
``address + i*64``; ALLOC/FREE carry the carved object size and touch
nothing; WARM marks the end-of-warmup counter reset; EPOCH markers sit
between bursts and are the only legal shard split points.

A trace's identity is the sha256 of its **canonical stream**
(:class:`CanonicalHash`), a fixed-record serialisation that production
hashes but never writes::

    magic    b"CALTRC01"
    u32      header length, then the header JSON (``format`` normalised
             to ``"CALTRC01"``)
    records  13-byte packed records, ``<BQI`` = (kind, address, arg)
    record   terminator: kind=0xFF, address=0, arg=<footer length>
    JSON     footer

It is the layout of the retired CALTRC01 container, so the digest of a
CALTRC02 trace equals the sha256 of its CALTRC01 twin; the per-record
reference in ``tests/oracle.py`` reads and writes that layout, and
``python -m oracle transcode`` turns an old CALTRC01 file into CALTRC02.

:class:`TraceReader` streams: it decodes the file one column batch per
frame (:meth:`TraceReader.column_batches`, its one record decoder),
and the writer (:class:`~repro.traces.compress.CompressedTraceWriter`)
holds at most one unfinished frame, so traces are bounded by disk, not
by RAM.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from repro.memory.kernel import (  # noqa: F401  (re-exported)
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
)

#: The container's magic; bump the trailing digits when the binary
#: layout changes shape.
MAGIC = b"CALTRC02"

#: The canonical stream's magic (the retired fixed-record container's).
CANONICAL_MAGIC = b"CALTRC01"

#: Terminator record kind; its ``arg`` is the footer's byte length.
EV_END = 0xFF

#: One record: kind (u8), address (u64), arg (u32).
RECORD = struct.Struct("<BQI")
RECORD_SIZE = RECORD.size

#: The same record as a packed little-endian numpy structured dtype.
RECORD_DTYPE = np.dtype([("kind", "u1"), ("address", "<u8"), ("arg", "<u4")])

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
    one frame, and batch boundaries never change the concatenated record
    stream.
    """

    kind: np.ndarray
    address: np.ndarray
    arg: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


def pack_records(kinds, addresses, args, first: int = 0) -> bytes:
    """Record columns as packed ``<BQI`` rows: the canonical record bytes.

    Raises :class:`TraceFormatError` for a record the layout cannot
    hold — a negative address, or an ``arg`` outside ``[0, 2**32)`` —
    naming its stream index (``first`` is the index of the block's
    first record).
    """
    addresses = np.asarray(addresses)
    args = np.asarray(args)
    bad = np.flatnonzero((addresses < 0) | (args < 0) | (args > 0xFFFFFFFF))
    if bad.size:
        row = int(bad[0])
        raise TraceFormatError(
            f"record {first + row} (address {int(addresses[row])}, "
            f"arg {int(args[row])}) does not fit the canonical <BQI record "
            "layout"
        )
    rows = np.empty(len(addresses), dtype=RECORD_DTYPE)
    rows["kind"] = kinds
    rows["address"] = addresses
    rows["arg"] = args
    return rows.tobytes()


class CanonicalHash:
    """sha256 and length of a trace's canonical CALTRC01 byte stream.

    Fed in stream order — :meth:`begin` with the header, :meth:`consume`
    with each block of record columns, :meth:`end` with the footer — it
    hashes the canonical stream of the module docstring: the magic, the
    header with ``format`` normalised to ``CALTRC01``, the packed
    ``<BQI`` rows of :func:`pack_records`, the terminator and the
    footer.  A recorder feeds it while writing (its :meth:`consume` is a
    record-stream consumer); :func:`repro.corpus.store.canonical_digest`
    feeds it from a decode of a finished file.  Header and footer go
    through one JSON round trip, so both feeders hash what a reader
    would parse.
    """

    __slots__ = ("_sha", "length", "records", "hexdigest")

    def __init__(self):
        self._sha = hashlib.sha256()
        self.length = 0
        self.records = 0
        #: The digest once :meth:`end` has hashed the footer.
        self.hexdigest: str | None = None

    def _feed(self, data: bytes) -> None:
        self._sha.update(data)
        self.length += len(data)

    def begin(self, header: dict) -> None:
        header = json.loads(json.dumps(header))
        if "format" in header:
            header["format"] = CANONICAL_MAGIC.decode("ascii")
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        self._feed(CANONICAL_MAGIC)
        self._feed(_HEADER_LEN.pack(len(header_bytes)))
        self._feed(header_bytes)

    def consume(self, kinds, addresses, args) -> None:
        """Hash a block of records; raises :class:`TraceFormatError` for
        one the ``<BQI`` layout cannot hold (see :func:`pack_records`)."""
        self._feed(pack_records(kinds, addresses, args, first=self.records))
        self.records += len(kinds)

    def end(self, footer: dict) -> str:
        footer_bytes = json.dumps(
            json.loads(json.dumps(footer)), sort_keys=True
        ).encode("utf-8")
        self._feed(RECORD.pack(EV_END, 0, len(footer_bytes)))
        self._feed(footer_bytes)
        self.hexdigest = self._sha.hexdigest()
        return self.hexdigest


class TraceReader:
    """Streaming reader over a trace file or binary file object.

    ``header`` is available immediately; :meth:`column_batches` yields
    the record stream as :class:`RecordColumns` batches without
    materialising the trace; ``footer`` is populated once iteration
    reaches the terminator (or by :meth:`read_footer`, which drains the
    stream).
    """

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
            if magic == CANONICAL_MAGIC:
                raise self.error(
                    "CALTRC01 trace: only CALTRC02 is read; convert it with "
                    "`PYTHONPATH=src:tests python -m oracle transcode OLD "
                    "--out NEW`",
                    offset=0,
                )
            if len(magic) < len(MAGIC):
                raise self.error(
                    f"truncated trace: file ends inside the magic "
                    f"({len(magic)} bytes)",
                    offset=0,
                )
            if magic != MAGIC:
                raise self.error(
                    f"not a Califorms trace (magic {magic!r}, wanted "
                    f"{MAGIC!r})",
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
        self._batches: Iterator[RecordColumns] | None = None

    def error(self, detail: str, offset: int | None = None) -> TraceFormatError:
        """A :class:`TraceFormatError` located in this reader's file."""
        return TraceFormatError(detail, path=self.path, offset=offset)

    def column_batches(self) -> Iterator[RecordColumns]:
        """Yield the record stream as :class:`RecordColumns` batches.

        The reader's only record decoder: the concatenation of the
        yielded batches is the ``(kind, address, arg)`` stream, and
        :attr:`footer` is populated once the terminator is reached.
        One batch per stored frame, decoded straight from its token
        stream (:func:`repro.traces.compress.iter_compressed_columns`).

        The stream is single-pass: repeated calls return the *same*
        iterator, so a partially consumed iteration can be resumed and
        :meth:`read_footer` drains from wherever iteration stopped.
        """
        if self._batches is None:
            from repro.traces.compress import iter_compressed_columns

            self._batches = iter_compressed_columns(self)
        return self._batches

    def read_footer(self) -> dict:
        """Drain remaining records and return the footer summary.

        Safe mid-iteration: it continues the shared
        :meth:`column_batches` iterator rather than re-reading the file.
        """
        if self.footer is None:
            for _ in self.column_batches():
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


def read_header(path: str) -> dict:
    """Cheaply read just the header of a trace file."""
    with TraceReader(path) as reader:
        return reader.header

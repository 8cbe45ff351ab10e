"""Per-record reference implementations: the differential oracles.

Production decodes traces with one decoder, the columnar
:meth:`TraceReader.column_batches`, and counts cache hits and misses
with one simulator, the batched :class:`~repro.memory.kernel.LadderKernel`
(and its shared-L3 sibling :class:`~repro.memory.multicore.SharedL3Kernel`).
This module keeps the straightforward one-record-at-a-time
implementations they must agree with:

* :func:`records` — the scalar ``(kind, address, arg)`` decoder:
  :func:`decode_frame`'s token walk of CALTRC02 frames (sharing only
  the frame walk and the varint primitives with production), and the
  ``struct`` walk of :class:`FixedRecordReader` for the retired
  CALTRC01 container; :func:`open_trace` opens either;
* :func:`encode_frame`, :class:`FrameWriter` and :class:`RecordWriter`
  — the scalar encoder twin of
  :class:`~repro.traces.compress.CompressedTraceWriter` (one token
  probe per record, one frame cut after every EPOCH record and at
  ``MAX_FRAME_RECORDS``) and the one-``struct``-per-record CALTRC01
  writer, the only CALTRC01 writer; :func:`reencode` rewrites a trace
  through them;
* :func:`write_canonical` — a trace's canonical stream written as a
  CALTRC01 file, :func:`canonical_digest` — the corpus identity hash,
  the sha256 of that stream, and :func:`transcode` — an old CALTRC01
  file rewritten through the production CALTRC02 writer;
* :func:`emit_trace` and :func:`run_trace` — the workload generator with one
  RNG draw and one buffer call per record or burst, with the heap
  simulated for every object and one burst end per burst (the twin of
  :func:`repro.workloads.generator.emit_trace`'s draw and render), and
  :func:`merge_arrivals`, the loadgen merge one arrival at a time;
  :func:`record` records through them;
* :class:`TagOnlyCache` — one LRU tag array, an ``OrderedDict`` per set;
* :class:`PrivateLadder`, :class:`SharedL3`, :class:`MultiCoreHierarchy`
  — per-core L1/L2 pairs in front of one shared L3;
* :func:`replay_timing`, :func:`replay_hierarchy`, :func:`replay_shards`
  and :func:`replay_multicore` — the replay entry points of
  :mod:`repro.traces.replayer`, re-implemented as record-at-a-time loops
  over :func:`records` with the same return types, so a differential
  test compares the two with ``==``.

Run as a script, it is the ``python -m repro.traces`` CLI with these
replayers swapped in, so its summaries can be compared byte for byte
with the production CLI's, plus a ``reencode`` command that rewrites a
trace through the scalar decoder and writers, and a ``record`` command
that records a registry scenario or a composed load scenario through
the per-record generator, so either file can be compared byte for byte
with the production writer's; ``canonical`` writes a trace's CALTRC01
twin and ``transcode`` turns a CALTRC01 file into CALTRC02::

    PYTHONPATH=src:tests python -m oracle replay sc.trace --mode timing
    PYTHONPATH=src:tests python -m oracle reencode sc.trace --out re.trace
    PYTHONPATH=src:tests python -m oracle record --scenario server-churn \
        --out sc.trace
    PYTHONPATH=src:tests python -m oracle record --load uniform-churn \
        --out uc.trace
    PYTHONPATH=src:tests python -m oracle canonical sc.trace --out sc.v1
    PYTHONPATH=src:tests python -m oracle transcode sc.v1 --out sc.trace
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import struct
import sys
import zlib
from collections import OrderedDict
from operator import itemgetter

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import (
    WESTMERE,
    HierarchyConfig,
    MemoryHierarchy,
    amat_cycles,
)
from repro.memory.kernel import RecordBuffer
from repro.traces import compress
from repro.traces.compress import (
    _RUN_FLAG,
    COMPRESSION_LEVEL,
    FRAME_END,
    FRAME_RECORDS,
    MIN_RUN,
    CompressedTraceWriter,
    _iter_frames,
    _read_signed,
    _read_varint,
)
from repro.traces.format import (
    EV_ALLOC,
    EV_CFORM,
    EV_END,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    MAGIC,
    CANONICAL_MAGIC,
    RECORD,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
)
from repro.traces.registry import corpus_spec
from repro.traces.replayer import (
    _CORE_ADDRESS_STRIDE,
    _WARM_RESET,
    CFORM_REPLAY_OFFSETS,
    MergedReplay,
    MulticoreReplay,
    ShardStats,
    _amat_cycles,
    _config_from_header,
    _footer_result,
)
from repro.softstack.ctypes_model import align_up
from repro.workloads import generator
from repro.workloads.generator import (
    ALLOC_HOOK_INSTRUCTIONS,
    CFORM_SETUP_INSTRUCTIONS,
    RunResult,
    Scenario,
    build_type_catalog,
    counted_run,
)
from repro.workloads.specs import BenchmarkProfile

#: Ops accumulated before one ``replay_trace`` batch in hierarchy mode.
HIERARCHY_BATCH_OPS = 2048

#: Records per read on the CALTRC01 walk.
CHUNK_RECORDS = 8192


# -- scalar decoding ------------------------------------------------------------


class FixedRecordReader:
    """The CALTRC01 reader: a ``struct`` walk of the magic, the header,
    the ``<BQI`` records, the terminator and the footer.

    The retired container's only reader.  ``header`` is read on open;
    :meth:`records` yields the record tuples and then sets ``footer``.
    """

    def __init__(self, source):
        if isinstance(source, str):
            self._file = open(source, "rb")
            self._owns_file = True
            self.path = source
        else:
            self._file = source
            self._owns_file = False
            self.path = None
        try:
            magic = self._file.read(len(CANONICAL_MAGIC))
            if magic != CANONICAL_MAGIC:
                raise self.error(f"not a CALTRC01 trace (magic {magic!r})", 0)
            (header_length,) = struct.unpack("<I", self._file.read(4))
            self.header = json.loads(self._file.read(header_length))
        except BaseException:
            self.close()
            raise
        self.data_offset = len(CANONICAL_MAGIC) + 4 + header_length
        self.footer = None

    def error(self, detail: str, offset: int | None = None):
        return TraceFormatError(detail, path=self.path, offset=offset)

    def records(self):
        chunk_bytes = CHUNK_RECORDS * RECORD_SIZE
        unpack_from = RECORD.unpack_from
        pending = b""
        position = self.data_offset  # file offset of the next record
        while True:
            chunk = pending + self._file.read(chunk_bytes)
            if not chunk:
                raise self.error(
                    "trace ends without a terminator record", position
                )
            usable = len(chunk) - (len(chunk) % RECORD_SIZE)
            for offset in range(0, usable, RECORD_SIZE):
                kind, address, arg = unpack_from(chunk, offset)
                if kind == EV_END:
                    footer = chunk[offset + RECORD_SIZE :]
                    footer += self._file.read(max(arg - len(footer), 0))
                    if len(footer) < arg:
                        raise self.error(
                            "truncated trace footer",
                            position + offset + RECORD_SIZE,
                        )
                    self.footer = json.loads(footer[:arg])
                    return
                yield kind, address, arg
            pending = chunk[usable:]
            position += usable
            if usable == 0:
                raise self.error("truncated trace record", position)

    def read_footer(self) -> dict:
        if self.footer is None:
            for _ in self.records():
                pass
        return self.footer

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_trace(source):
    """A reader for either container: the production :class:`TraceReader`
    for CALTRC02, a :class:`FixedRecordReader` for CALTRC01."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            magic = handle.read(len(CANONICAL_MAGIC))
    else:
        start = source.tell()
        magic = source.read(len(CANONICAL_MAGIC))
        source.seek(start)
    if magic == CANONICAL_MAGIC:
        return FixedRecordReader(source)
    return TraceReader(source)


def records(reader):
    """Yield ``(kind, address, arg)`` until the terminator record.

    The scalar twin of :meth:`TraceReader.column_batches` for a reader
    of either container (see :func:`open_trace`); leaves
    ``reader.footer`` populated.  Call it once per reader, on a reader
    nothing else has iterated.
    """
    if isinstance(reader, FixedRecordReader):
        return reader.records()
    return _compressed_records(reader)


def _compressed_records(reader: TraceReader):
    for frame_start, record_count, payload in _iter_frames(reader):
        try:
            yield from decode_frame(payload, record_count)
        except TraceFormatError as error:
            raise error.located(reader.path, frame_start) from None


def decode_frame(payload: bytes, record_count: int):
    """Inflate + de-tokenise one CALTRC02 frame; yields exactly
    ``record_count`` records."""
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


# -- scalar encoding ------------------------------------------------------------


def _append_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_signed(out: bytearray, value: int) -> None:
    _append_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


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


class _ScalarWriter:
    """The scalar writers' shared plumbing: the ``magic + u32 header
    length + header JSON`` preamble, the footer and the context-manager
    protocol (closing writes the terminator, an exception only closes).
    Subclasses define :attr:`MAGIC_BYTES`, :meth:`append` and
    :meth:`_terminate`."""

    MAGIC_BYTES: bytes

    def __init__(self, target, header: dict):
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        self._owns_file = isinstance(target, str)
        self._file = open(target, "wb") if self._owns_file else target
        self._file.write(self.MAGIC_BYTES)
        self._file.write(struct.pack("<I", len(header_bytes)))
        self._file.write(header_bytes)
        self.record_count = 0
        self._footer = {}

    def set_footer(self, footer: dict) -> None:
        self._footer = dict(footer)

    def close(self) -> None:
        footer_bytes = json.dumps(self._footer, sort_keys=True).encode("utf-8")
        self._terminate(len(footer_bytes))
        self._file.write(footer_bytes)
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self._owns_file:
            self._file.close()


class FrameWriter(_ScalarWriter):
    """The per-record CALTRC02 writer: one frame of record tuples is
    buffered, cut after every EPOCH record and whenever it reaches
    ``compress.MAX_FRAME_RECORDS`` (read at each append, so a test may
    monkeypatch it), and encoded by :func:`encode_frame`."""

    MAGIC_BYTES = MAGIC

    def __init__(self, target, header: dict):
        super().__init__(target, header)
        self._frame: list[tuple[int, int, int]] = []

    def append(self, kind: int, address: int, arg: int) -> None:
        self._frame.append((kind, address, arg))
        self.record_count += 1
        if kind == EV_EPOCH or len(self._frame) >= compress.MAX_FRAME_RECORDS:
            self._flush_frame()

    def _flush_frame(self) -> None:
        if not self._frame:
            return
        payload = encode_frame(self._frame)
        self._file.write(
            struct.pack("<BII", FRAME_RECORDS, len(self._frame), len(payload))
        )
        self._file.write(payload)
        self._frame.clear()

    def _terminate(self, footer_length: int) -> None:
        self._flush_frame()
        self._file.write(struct.pack("<BI", FRAME_END, footer_length))


class RecordWriter(_ScalarWriter):
    """The per-record CALTRC01 writer: one ``struct`` pack per record."""

    MAGIC_BYTES = CANONICAL_MAGIC

    def append(self, kind: int, address: int, arg: int) -> None:
        self._file.write(RECORD.pack(kind, address, arg))
        self.record_count += 1

    def _terminate(self, footer_length: int) -> None:
        self._file.write(RECORD.pack(EV_END, 0, footer_length))


def reencode(source, target) -> int:
    """Rewrite ``source`` into ``target`` through :func:`records` and the
    scalar writer of its container; returns the record count.

    The header and footer are carried over, so for a trace a production
    writer wrote, ``target`` must equal ``source`` byte for byte.
    """
    with open_trace(source) as reader:
        if isinstance(reader, FixedRecordReader):
            writer_class = RecordWriter
        else:
            writer_class = FrameWriter
        with writer_class(target, reader.header) as writer:
            for record in records(reader):
                writer.append(*record)
            writer.set_footer(reader.footer)
    return writer.record_count


def _with_format(header: dict, magic: bytes) -> dict:
    header = dict(header)
    if "format" in header:
        header["format"] = magic.decode("ascii")
    return header


def write_canonical(source, target) -> dict:
    """Write a trace's canonical stream to ``target`` through
    :class:`RecordWriter` — the CALTRC01 file the retired container
    held, whose sha256 is the corpus digest; returns the footer."""
    with open_trace(source) as reader:
        header = _with_format(reader.header, CANONICAL_MAGIC)
        with RecordWriter(target, header) as writer:
            for record in records(reader):
                writer.append(*record)
            writer.set_footer(reader.footer)
    return reader.footer


class _HashingSink:
    """A write-only file object that keeps the sha256 and length of what
    it is given."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.length = 0

    def write(self, data: bytes) -> None:
        self.sha.update(data)
        self.length += len(data)

    def flush(self) -> None:
        pass


def canonical_digest(source) -> tuple[str, int, dict]:
    """Per-record twin of :func:`repro.corpus.store.canonical_digest`:
    the sha256 and length of :func:`write_canonical`'s bytes."""
    sink = _HashingSink()
    footer = write_canonical(source, sink)
    return sink.sha.hexdigest(), sink.length, footer


def transcode(source, target) -> int:
    """Rewrite a CALTRC01 file as CALTRC02: :class:`FixedRecordReader`'s
    walk into the production
    :class:`~repro.traces.compress.CompressedTraceWriter`, in blocks of
    :data:`CHUNK_RECORDS` records (the writer's bytes do not depend on
    how its input is cut).  The header's ``format`` becomes
    ``CALTRC02``; records and footer are carried over, so the canonical
    digest and every replay statistic stay what they were.  Returns the
    record count."""
    with FixedRecordReader(source) as reader:
        header = _with_format(reader.header, MAGIC)
        with CompressedTraceWriter(target, header) as writer:
            block: list[tuple[int, int, int]] = []
            for record in reader.records():
                block.append(record)
                if len(block) == CHUNK_RECORDS:
                    writer.append_columns(*zip(*block))
                    block.clear()
            if block:
                writer.append_columns(*zip(*block))
            writer.set_footer(reader.footer)
    return writer.record_count


# -- tag arrays ------------------------------------------------------------------


class TagOnlyCache:
    """Tag array with LRU for miss counting over address traces."""

    __slots__ = (
        "geometry", "_sets", "accesses", "hits", "misses",
        "_line_size", "_num_sets", "_associativity",
    )

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._associativity = geometry.associativity
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch the line containing ``address``; return True on hit."""
        line_number = address // self._line_size
        num_sets = self._num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        entries = self._sets[set_index]
        self.accesses += 1
        if tag in entries:
            self.hits += 1
            entries.move_to_end(tag)
            return True
        self.misses += 1
        if len(entries) >= self._associativity:
            entries.popitem(last=False)
        entries[tag] = None
        return False

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping the cache contents warm."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class PrivateLadder:
    """One core's private L1+L2 tag pair.

    :meth:`access` returns ``True`` when the touch is satisfied
    privately; ``False`` means the access missed both levels and must be
    presented to the shared L3.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, config: HierarchyConfig):
        self.l1 = TagOnlyCache(config.l1_geometry)
        self.l2 = TagOnlyCache(config.l2_geometry)

    def access(self, address: int) -> bool:
        """Touch the ladder; ``True`` iff the L1 or L2 hit."""
        if self.l1.access(address):
            return True
        return self.l2.access(address)

    def reset_counters(self) -> None:
        """Discard statistics, keep tag contents warm (end of warmup)."""
        self.l1.reset_counters()
        self.l2.reset_counters()


class SharedL3:
    """One L3 tag array shared by ``cores`` requesters, per-core counts."""

    __slots__ = ("cache", "accesses", "misses")

    def __init__(self, config: HierarchyConfig, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cache = TagOnlyCache(config.l3_geometry)
        self.accesses = [0] * cores
        self.misses = [0] * cores

    def access(self, core: int, address: int) -> bool:
        """Present one L2 miss from ``core``; ``True`` on L3 hit."""
        self.accesses[core] += 1
        if self.cache.access(address):
            return True
        self.misses[core] += 1
        return False

    def reset_core(self, core: int) -> None:
        """Zero one core's attribution; tag contents stay warm."""
        self.accesses[core] = 0
        self.misses[core] = 0


class MultiCoreHierarchy:
    """``cores`` private L1/L2 ladders in front of one shared L3."""

    def __init__(self, config: HierarchyConfig | None = None, cores: int = 2):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.config = config or WESTMERE
        self.cores = cores
        self.ladders = [PrivateLadder(self.config) for _ in range(cores)]
        self.shared_l3 = SharedL3(self.config, cores)

    def access(self, core: int, address: int) -> None:
        """One cache touch by ``core`` at ``address``."""
        if not self.ladders[core].access(address):
            self.shared_l3.access(core, address)

    def reset_core_counters(self, core: int) -> None:
        """End-of-warmup for one core: statistics out, contents warm."""
        self.ladders[core].reset_counters()
        self.shared_l3.reset_core(core)

    def core_events(self, core: int) -> MemoryEventCounts:
        """One core's event counts, L3 misses attributed to it."""
        ladder = self.ladders[core]
        return MemoryEventCounts(
            l1_accesses=ladder.l1.accesses,
            l1_misses=ladder.l1.misses,
            l2_misses=ladder.l2.misses,
            l3_misses=self.shared_l3.misses[core],
        )

    def merged_events(self) -> MemoryEventCounts:
        """Whole-chip event counts (sum over cores)."""
        per_core = [self.core_events(core) for core in range(self.cores)]
        return MemoryEventCounts(
            l1_accesses=sum(e.l1_accesses for e in per_core),
            l1_misses=sum(e.l1_misses for e in per_core),
            l2_misses=sum(e.l2_misses for e in per_core),
            l3_misses=sum(e.l3_misses for e in per_core),
        )

    def core_cycles(self, core: int) -> int:
        """AMAT-style cycle total for one core's attributed events."""
        events = self.core_events(core)
        return amat_cycles(
            self.config,
            events.l1_accesses,
            events.l1_misses,
            events.l2_misses,
            events.l3_misses,
        )

    def total_cycles(self) -> int:
        """Sum of per-core cycles (the AMAT model is linear)."""
        return sum(self.core_cycles(core) for core in range(self.cores))


# -- record-at-a-time replay ------------------------------------------------------


def replay_timing_stream(reader: TraceReader, honor_warm: bool = True) -> ShardStats:
    """Push one record stream through a cold tag-only ladder."""
    config = _config_from_header(reader.header)
    l1 = TagOnlyCache(config.l1_geometry)
    l2 = TagOnlyCache(config.l2_geometry)
    l3 = TagOnlyCache(config.l3_geometry)
    l1_access, l2_access, l3_access = l1.access, l2.access, l3.access
    touches = 0
    cform_lines = 0
    alloc_events = 0
    for kind, address, arg in records(reader):
        if kind == EV_LOAD or kind == EV_STORE:
            touches += 1
            if not l1_access(address):
                if not l2_access(address):
                    l3_access(address)
        elif kind == EV_CFORM:
            cform_lines += arg
            for line_index in range(arg):
                line_address = address + line_index * 64
                touches += 1
                if not l1_access(line_address):
                    if not l2_access(line_address):
                        l3_access(line_address)
        elif kind == EV_ALLOC:
            alloc_events += 1
        elif kind == EV_FREE or kind == EV_EPOCH:
            pass
        elif kind == EV_WARM:
            if honor_warm:
                l1.reset_counters()
                l2.reset_counters()
                l3.reset_counters()
                touches = 0
                cform_lines = 0
                alloc_events = 0
        else:
            raise TraceFormatError(f"unknown record kind {kind}")
    events = MemoryEventCounts(
        l1_accesses=l1.accesses,
        l1_misses=l1.misses,
        l2_misses=l2.misses,
        l3_misses=l3.misses,
    )
    return ShardStats(
        events=events,
        touches=touches,
        cform_lines=cform_lines,
        alloc_events=alloc_events,
        violations=0,
        amat_cycles=_amat_cycles(config, events),
    )


def replay_hierarchy_stream(
    reader: TraceReader, honor_warm: bool = True
) -> ShardStats:
    """Drive the data-carrying hierarchy via batched ``replay_trace``."""
    from repro.core.cform import CformRequest

    config = _config_from_header(reader.header)
    hierarchy = MemoryHierarchy(config)
    replay_batch = hierarchy.replay_trace
    cform = hierarchy.cform
    ops: list[tuple] = []
    violations = 0
    touches = 0
    cform_lines = 0
    alloc_events = 0
    for kind, address, arg in records(reader):
        if kind == EV_LOAD:
            ops.append(("L", address, arg))
            touches += 1
            if len(ops) >= HIERARCHY_BATCH_OPS:
                violations += replay_batch(ops)
                ops = []
        elif kind == EV_STORE:
            ops.append(("S", address, bytes([address & 0xFF]) * arg))
            touches += 1
            if len(ops) >= HIERARCHY_BATCH_OPS:
                violations += replay_batch(ops)
                ops = []
        elif kind == EV_CFORM:
            if ops:
                violations += replay_batch(ops)
                ops = []
            cform_lines += arg
            for line_index in range(arg):
                line_address = (address + line_index * 64) & ~63
                # Object churn re-califorms reused lines; CFORM-set on an
                # already-set byte is an architectural usage error, so
                # only the still-clear offsets are set.
                current = hierarchy.secmask_of(line_address)
                wanted = [
                    offset
                    for offset in CFORM_REPLAY_OFFSETS
                    if not (current >> offset) & 1
                ]
                if wanted:
                    cform(CformRequest.set_bytes(line_address, wanted))
                touches += 1
        elif kind == EV_ALLOC:
            alloc_events += 1
        elif kind == EV_FREE or kind == EV_EPOCH:
            pass
        elif kind == EV_WARM:
            if honor_warm:
                if ops:
                    violations += replay_batch(ops)
                    ops = []
                hierarchy.reset_stats()
                violations = 0
                touches = 0
                cform_lines = 0
                alloc_events = 0
        else:
            raise TraceFormatError(f"unknown record kind {kind}")
    if ops:
        violations += replay_batch(ops)
    events = MemoryEventCounts(
        l1_accesses=hierarchy.l1.stats.accesses,
        l1_misses=hierarchy.l1.stats.misses,
        l2_misses=hierarchy.l2.stats.misses,
        l3_misses=hierarchy.l3.stats.misses,
    )
    return ShardStats(
        events=events,
        touches=touches,
        cform_lines=cform_lines,
        alloc_events=alloc_events,
        violations=violations,
        amat_cycles=hierarchy.total_cycles(),
    )


def filter_core_stream(
    core: int, cores: int, sources, config: HierarchyConfig | None
) -> tuple:
    """Phase 1 of multi-core replay: one core's private-ladder pass.

    Returns ``(config, ladder, touches, cform_lines, alloc_events,
    entries)`` where ``entries`` is the core's L3 request stream as
    ``(slot, address | _WARM_RESET)`` pairs.
    """
    explicit_config = config
    ladder: PrivateLadder | None = None
    entries: list[tuple[int, int]] = []
    touches = 0
    cform_lines = 0
    alloc_events = 0
    offset = core * _CORE_ADDRESS_STRIDE
    slot = core
    for source in sources:
        with open_trace(source) as reader:
            source_config = _config_from_header(reader.header)
            if config is None:
                config = source_config
            elif explicit_config is None and source_config != config:
                raise TraceFormatError(
                    "trace files of one core stream were recorded under "
                    "different hierarchy configurations"
                )
            if ladder is None:
                ladder = PrivateLadder(config)
            ladder_access = ladder.access
            honor_warm = "shard" not in reader.header
            for kind, address, arg in records(reader):
                if kind == EV_LOAD or kind == EV_STORE:
                    touches += 1
                    if not ladder_access(address):
                        entries.append((slot, address + offset))
                elif kind == EV_CFORM:
                    cform_lines += arg
                    for line_index in range(arg):
                        line_address = address + line_index * 64
                        touches += 1
                        if not ladder_access(line_address):
                            entries.append((slot, line_address + offset))
                elif kind == EV_ALLOC:
                    alloc_events += 1
                elif kind == EV_FREE or kind == EV_EPOCH:
                    pass
                elif kind == EV_WARM:
                    if honor_warm:
                        ladder.reset_counters()
                        touches = 0
                        cform_lines = 0
                        alloc_events = 0
                        entries.append((slot, _WARM_RESET))
                else:
                    raise TraceFormatError(f"unknown record kind {kind}")
                slot += cores
            reader.read_footer()
    if ladder is None:
        raise ValueError(f"core {core} has no trace sources")
    return config, ladder, touches, cform_lines, alloc_events, entries


# -- the replay entry points ----------------------------------------------------


def replay_timing(source, verify: bool = True):
    """Per-record twin of :func:`repro.traces.replayer.replay_timing`."""
    with open_trace(source) as reader:
        stats = replay_timing_stream(reader)
        footer = reader.read_footer()
    return _footer_result(stats, reader.header, footer, verify)


def replay_hierarchy(source) -> ShardStats:
    """Per-record twin of :func:`repro.traces.replayer.replay_hierarchy`."""
    with open_trace(source) as reader:
        stats = replay_hierarchy_stream(reader)
        reader.read_footer()
    return stats


def replay_shards(
    shard_paths: list[str], jobs: int = 1, mode: str = "timing"
) -> MergedReplay:
    """Per-record twin of :func:`repro.traces.replayer.replay_shards`.

    Always serial: ``jobs`` is accepted for signature parity only.
    """
    replay_stream = {
        "timing": replay_timing_stream,
        "hierarchy": replay_hierarchy_stream,
    }[mode]
    merged = None
    for path in shard_paths:
        with open_trace(path) as reader:
            stats = replay_stream(reader, honor_warm=False)
            reader.read_footer()
        merged = stats if merged is None else merged.merged_with(stats)
    return MergedReplay(shards=len(shard_paths), stats=merged)


def replay_multicore(
    core_sources: list, jobs: int = 1, config: HierarchyConfig | None = None
) -> MulticoreReplay:
    """Per-record twin of :func:`repro.traces.replayer.replay_multicore`.

    Phase 2 is a ``heapq`` merge of the per-core ``(slot, address)``
    entries into one :class:`SharedL3`.  Always serial: ``jobs`` is
    accepted for signature parity only.
    """
    normalized = [
        tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
        for entry in core_sources
    ]
    cores = len(normalized)
    filters = [
        filter_core_stream(core, cores, sources, config)
        for core, sources in enumerate(normalized)
    ]
    resolved = filters[0][0]
    shared = SharedL3(resolved, cores)
    for slot, address in heapq.merge(
        *(filtered[5] for filtered in filters), key=itemgetter(0)
    ):
        core = slot % cores
        if address == _WARM_RESET:
            shared.reset_core(core)
        else:
            shared.access(core, address)
    per_core = []
    for core, (_, ladder, touches, cform_lines, alloc_events, _) in enumerate(
        filters
    ):
        events = MemoryEventCounts(
            l1_accesses=ladder.l1.accesses,
            l1_misses=ladder.l1.misses,
            l2_misses=ladder.l2.misses,
            l3_misses=shared.misses[core],
        )
        per_core.append(
            ShardStats(
                events=events,
                touches=touches,
                cform_lines=cform_lines,
                alloc_events=alloc_events,
                violations=0,
                amat_cycles=_amat_cycles(resolved, events),
            )
        )
    merged = per_core[0]
    for stats in per_core[1:]:
        merged = merged.merged_with(stats)
    return MulticoreReplay(cores=cores, per_core=tuple(per_core), merged=merged)


# -- per-record synthesis -------------------------------------------------------


def run_trace(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    config: HierarchyConfig = WESTMERE,
    warmup_fraction: float = 1.0,
    sink=None,
    quarantine_delay: int = 16,
) -> RunResult:
    """:func:`repro.workloads.generator.run_trace` over :func:`emit_trace`."""
    return counted_run(
        profile.name,
        scenario,
        config,
        sink,
        lambda records: emit_trace(
            records, profile, scenario, instructions, seed,
            warmup_fraction, quarantine_delay,
        ),
    )


def emit_trace(
    records: RecordBuffer,
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    warmup_fraction: float = 1.0,
    quarantine_delay: int = 16,
) -> int:
    """Emit one benchmark run's record stream; return its instructions.

    The per-record twin of :func:`repro.workloads.generator.emit_trace`:
    one RNG draw and one buffer call per record or burst, the heap
    simulated for every object, and one :meth:`RecordBuffer.burst_end`
    per burst.
    """
    rng = random.Random(f"{profile.name}:{seed}")
    catalog = build_type_catalog(scenario)
    baseline_catalog = (
        catalog
        if scenario.policy is None
        else build_type_catalog(Scenario.baseline())
    )
    append = records.append
    run = records.run
    burst_end = records.burst_end

    # -- heap population ----------------------------------------------------
    # The live set targets ``heap_kb`` at *baseline* sizes, so every
    # scenario simulates the same logical objects; protected layouts then
    # inflate the same population.
    heap = generator._FastHeap(quarantine_delay=quarantine_delay)
    objects: list[tuple[int, int, int]] = []  # (address, type_index, raw_size)
    baseline_bytes = 0
    target_bytes = profile.heap_kb * 1024
    while baseline_bytes < target_bytes:
        if rng.random() < profile.struct_fraction:
            pool = (
                generator._PTR_ARRAY_TYPE_INDICES
                if rng.random() < profile.ptr_array_fraction
                else generator._PLAIN_TYPE_INDICES
            )
            type_index = pool[rng.randrange(len(pool))]
            objects.append((heap.place(catalog[type_index].carved), type_index, 0))
            baseline_bytes += baseline_catalog[type_index].carved
        else:
            raw = int(profile.raw_buffer_bytes * (0.5 + rng.random()))
            raw = max(raw, 16)
            objects.append((heap.place(align_up(raw, 16)), -1, raw))
            baseline_bytes += align_up(raw, 16)

    # Pre-warm: touch every line of every live object once, so measured
    # misses reflect capacity and conflict behaviour rather than
    # first-touch cold misses (which the paper's 500M-instruction
    # SimPoint windows amortise away, but a short trace would not).
    sizes = [
        raw_size if type_index < 0 else catalog[type_index].size
        for _, type_index, raw_size in objects
    ]
    records.sweep(
        EV_LOAD,
        (
            line
            for (address, _, _), size in zip(objects, sizes)
            for line in range(address, address + max(size, 1), 64)
        ),
        8,
    )

    object_count = len(objects)
    skew_exponent = 1.0 / profile.locality_skew

    # Application instructions are the *fixed logical workload*: every
    # scenario executes the same bursts and allocation events.  CFORM and
    # hook work rides on top as overhead instructions, so slowdowns
    # measure extra work rather than displaced work.
    app_instructions = 0.0
    overhead_instructions = 0.0
    alloc_accumulator = 0.0
    burst_length = profile.burst_length
    burst_instructions = burst_length / profile.mem_ratio

    def cform_object(address: int, lines: int) -> None:
        """Issue the CFORM work for one (de)allocation of an object."""
        nonlocal overhead_instructions
        append(EV_CFORM, address, lines)
        overhead_instructions += lines * (1 + CFORM_SETUP_INSTRUCTIONS)

    warmup_budget = instructions * warmup_fraction
    total_budget = warmup_budget + instructions
    warm = warmup_fraction == 0.0

    # -- main loop --------------------------------------------------------------
    while app_instructions < total_budget:
        if not warm and app_instructions >= warmup_budget:
            # Warmup ends: keep cache contents, discard all statistics.
            warm = True
            app_instructions -= warmup_budget
            total_budget -= warmup_budget
            overhead_instructions = 0.0
            append(EV_WARM, 0, 0)
        app_instructions += burst_instructions

        target = rng.random()
        if target < profile.stack_fraction:
            base = generator._STACK_BASE + int(rng.random() * generator._STACK_HOT_BYTES)
            run(EV_STORE, range(base, base + burst_length * 8, 8), 8)
        else:
            index = int(object_count * rng.random() ** skew_exponent)
            address, type_index, raw_size = objects[
                min(index, object_count - 1)
            ]
            if rng.random() < profile.scan_fraction:
                size = max(
                    raw_size if type_index < 0 else catalog[type_index].size, 8
                )
                run(
                    EV_LOAD,
                    [
                        address + (access * 8) % size
                        for access in range(burst_length)
                    ],
                    8,
                )
            elif type_index < 0:
                span = max(raw_size - 8, 1)
                run(
                    EV_LOAD,
                    [
                        address + int(rng.random() * span)
                        for _ in range(burst_length)
                    ],
                    8,
                )
            else:
                offsets = catalog[type_index].field_offsets
                fields = len(offsets)
                run(
                    EV_LOAD,
                    [
                        address + offsets[rng.randrange(fields)]
                        for _ in range(burst_length)
                    ],
                    8,
                )

        # Allocation/free churn at the profile's rate.
        alloc_accumulator += profile.allocs_per_kinst * burst_instructions / 1000.0
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            victim = rng.randrange(object_count)
            address, type_index, raw_size = objects[victim]
            if type_index < 0:
                carved = align_up(raw_size, 16)
                heap.release(address, carved)
                new_address = heap.place(carved)
                append(EV_FREE, address, carved)
                append(EV_ALLOC, new_address, carved)
                objects[victim] = (new_address, -1, raw_size)
                continue
            info = catalog[type_index]
            run_hook = scenario.with_cform and info.hooked
            if run_hook:
                overhead_instructions += ALLOC_HOOK_INSTRUCTIONS
                cform_object(address, info.cform_lines)  # free side
            append(EV_FREE, address, info.carved)
            heap.release(address, info.carved)
            new_address = heap.place(info.carved)
            append(EV_ALLOC, new_address, info.carved)
            if run_hook:
                cform_object(new_address, info.cform_lines)  # alloc side
            objects[victim] = (new_address, type_index, 0)

        burst_end()

    return int(app_instructions + overhead_instructions)




def merge_arrivals(records: RecordBuffer, load, arrivals, streams) -> int:
    """The per-arrival twin of
    :func:`repro.loadgen.compose.merge_arrivals`: one ``extend`` and one
    :meth:`RecordBuffer.burst_end` per arrival."""
    app_instructions = 0.0
    cform_lines = 0
    cform_records = 0
    warm_pending = load.warmup_s > 0.0
    for time_s, tenant, index in heapq.merge(*arrivals):
        if warm_pending and time_s >= load.warmup_s:
            warm_pending = False
            records.append(EV_WARM, 0, 0)
            app_instructions = 0.0
            cform_lines = cform_records = 0
        kinds, addresses, args, bounds, burst_cost = streams[tenant]
        start, stop = bounds[index], bounds[index + 1]
        chunk_kinds, chunk_args = kinds[start:stop], args[start:stop]
        records.extend(chunk_kinds, addresses[start:stop], chunk_args)
        app_instructions += burst_cost
        cform = chunk_args[chunk_kinds == EV_CFORM]
        cform_lines += int(cform.sum())
        cform_records += len(cform)
        records.burst_end()
    if warm_pending:
        records.append(EV_WARM, 0, 0)
        app_instructions = 0.0
        cform_lines = cform_records = 0
    overhead = (
        cform_lines * (1 + CFORM_SETUP_INSTRUCTIONS)
        + (cform_records // 2) * ALLOC_HOOK_INSTRUCTIONS
    )
    return int(app_instructions + overhead)


def record(spec, target) -> RunResult:
    """:func:`repro.traces.recorder.record_spec` with this module's
    per-record generator (:func:`run_trace`, and :func:`emit_trace` for
    the loadgen composer's tenants) and per-arrival
    :func:`merge_arrivals` in place of the columnar ones."""
    from repro.loadgen import compose
    from repro.traces import recorder

    saved = (
        recorder.run_trace, compose._EMITTERS["generator"],
        compose.merge_arrivals,
    )
    recorder.run_trace = run_trace
    compose._EMITTERS["generator"] = emit_trace
    compose.merge_arrivals = merge_arrivals
    try:
        return recorder.record_spec(spec, target)
    finally:
        (
            recorder.run_trace, compose._EMITTERS["generator"],
            compose.merge_arrivals,
        ) = saved


#: ``python -m oracle NAME SOURCE --out TARGET``: the file conversions.
CONVERSIONS = {
    "reencode": (
        reencode, "rewrite a trace through the scalar decoder and the "
        "per-record writer of its container",
    ),
    "canonical": (
        write_canonical, "write a trace's canonical stream as a CALTRC01 "
        "file through the per-record writer",
    ),
    "transcode": (
        transcode, "rewrite a CALTRC01 file as CALTRC02 through the "
        "production writer",
    ),
}


def main(argv: list[str] | None = None) -> int:
    """The ``python -m repro.traces`` CLI, replaying through this oracle,
    plus the :data:`CONVERSIONS` (``reencode``, ``canonical`` and
    ``transcode``, each ``SOURCE --out TARGET``) and ``record
    (--scenario NAME | --load NAME) --out TARGET`` (:func:`record`)."""
    from repro.traces import __main__ as cli

    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in CONVERSIONS:
        convert, description = CONVERSIONS[argv[0]]
        parser = argparse.ArgumentParser(
            prog=f"python -m oracle {argv[0]}", description=description
        )
        parser.add_argument("source")
        parser.add_argument("--out", required=True)
        arguments = parser.parse_args(argv[1:])
        convert(arguments.source, arguments.out)
        print(f"{argv[0]}: {arguments.source} -> {arguments.out}")
        return 0

    if argv[:1] == ["record"]:
        parser = argparse.ArgumentParser(
            prog="python -m oracle record",
            description="record a registry scenario, or compose and "
            "record a load scenario, through the per-record generator",
        )
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", help="trace registry scenario")
        source.add_argument("--load", help="loadgen scenario to compose")
        parser.add_argument("--instructions", type=int)
        parser.add_argument("--out", required=True)
        arguments = parser.parse_args(argv[1:])
        if arguments.load:
            from repro.loadgen.compose import compose_spec
            from repro.loadgen.sets import load_scenarios

            spec = compose_spec(load_scenarios()[arguments.load])
        else:
            spec = corpus_spec(arguments.scenario)
        if arguments.instructions is not None:
            spec = spec.scaled(arguments.instructions)
        result = record(spec, arguments.out)
        print(
            f"recorded {spec.name} -> {arguments.out} "
            f"({result.instructions} instructions)"
        )
        return 0

    cli.replay_timing = replay_timing
    cli.replay_hierarchy = replay_hierarchy
    cli.replay_shards = replay_shards
    cli.replay_multicore = replay_multicore
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())

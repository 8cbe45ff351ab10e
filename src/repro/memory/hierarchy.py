"""The full memory hierarchy: L1-D → L2 → L3 → DRAM.

Wires the levels together with the paper's evaluated geometry (Table 3):

===========  ======================================
L1-D         32 KB, 8-way, 4-cycle latency
L2           256 KB, 8-way, 7-cycle latency
L3           2 MB, 16-way, 27-cycle latency
DRAM         8 GB DDR3-1333 (modelled as a flat latency)
===========  ======================================

The L1 holds califorms-bitvector lines; L2/L3/DRAM hold sentinel lines, so
a califormed line is converted exactly once per L1 fill or dirty spill —
the property that keeps the common case fast.

Cycle accounting is AMAT-style: every L1 access pays the L1 latency, each
miss at level *k* adds level *k+1*'s latency.  The ``l2_extra_cycles`` /
``l3_extra_cycles`` knobs reproduce the pessimistic +1-cycle experiment of
Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import bitvector as bv
from repro.core.cform import CformRequest
from repro.core.exceptions import ExceptionRecord, SecurityByteAccess
from repro.memory.cache import CacheGeometry, CacheLevel, make_sentinel_cache
from repro.memory.dram import Dram
from repro.memory.l1cache import L1DataCache


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency of the simulated memory system (Table 3)."""

    l1_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8)
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8)
    )
    l3_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(2 * 1024 * 1024, 16)
    )
    l1_latency: int = 4
    l2_latency: int = 7
    l3_latency: int = 27
    dram_latency: int = 120  # ~53 ns DDR3-1333 at the 2.27 GHz core clock
    l2_extra_cycles: int = 0  # Figure 10's pessimistic +1 knob
    l3_extra_cycles: int = 0

    def with_extra_latency(self, cycles: int = 1) -> "HierarchyConfig":
        """The Figure 10 configuration: +``cycles`` on both L2 and L3."""
        return replace(self, l2_extra_cycles=cycles, l3_extra_cycles=cycles)


#: The paper's simulated system (Table 3), for convenience.
WESTMERE = HierarchyConfig()


def amat_cycles(
    config: HierarchyConfig,
    l1_accesses: int,
    l1_misses: int,
    l2_misses: int,
    l3_misses: int,
) -> int:
    """AMAT-style cycle total for a set of cache-event counts.

    The single source of truth for the cycle model: every L1 access pays
    the L1 latency, each miss at level *k* adds level *k+1*'s latency
    (extra-latency knobs included).  Used by
    :meth:`MemoryHierarchy.total_cycles` and by the trace replayer, so
    the two cannot drift apart.
    """
    return (
        l1_accesses * config.l1_latency
        + l1_misses * (config.l2_latency + config.l2_extra_cycles)
        + l2_misses * (config.l3_latency + config.l3_extra_cycles)
        + l3_misses * config.dram_latency
    )


class MemoryHierarchy:
    """Functional L1/L2/L3/DRAM stack with Califorms semantics.

    This is the data-carrying simulator used by the runtime and the
    security experiments.  The timing experiments use the lighter
    :class:`repro.analysis.timing_model` machinery instead.
    """

    def __init__(self, config: HierarchyConfig | None = None):
        self.config = config or WESTMERE
        self.dram = Dram()
        self.l3 = make_sentinel_cache("L3", self.config.l3_geometry, self.dram)
        self.l2 = make_sentinel_cache("L2", self.config.l2_geometry, self.l3)
        self.l1 = L1DataCache(self.config.l1_geometry, self.l2)

    # -- architectural operations -------------------------------------------

    def load(self, address: int, size: int) -> tuple[bytes, list[ExceptionRecord]]:
        """Read ``size`` bytes, splitting across lines as needed.

        Returns the data (zeros in blacklisted positions) and any precise
        exception records the access produced.  Raising is the caller's
        policy decision — the CPU model raises unless the OS whitelist
        suppresses.
        """
        # Common case: the whole access sits inside one line — skip the
        # split bookkeeping and the chunk join.  Zero-size (and negative)
        # requests keep the split path so they never touch the L1.
        if 0 < size and (address & (bv.LINE_SIZE - 1)) + size <= bv.LINE_SIZE:
            value, record = self.l1.load(address, size)
            return value, [] if record is None else [record]
        chunks: list[bytes] = []
        records: list[ExceptionRecord] = []
        for piece_addr, piece_size in _split_by_line(address, size):
            value, record = self.l1.load(piece_addr, piece_size)
            chunks.append(value)
            if record is not None:
                records.append(record)
        return b"".join(chunks), records

    def store(self, address: int, data: bytes) -> list[ExceptionRecord]:
        """Write ``data``, splitting across lines as needed."""
        if 0 < len(data) <= bv.LINE_SIZE - (address & (bv.LINE_SIZE - 1)):
            record = self.l1.store(address, data)
            return [] if record is None else [record]
        records: list[ExceptionRecord] = []
        offset = 0
        for piece_addr, piece_size in _split_by_line(address, len(data)):
            record = self.l1.store(piece_addr, data[offset : offset + piece_size])
            offset += piece_size
            if record is not None:
                records.append(record)
        return records

    # -- batched access API --------------------------------------------------

    def load_many(
        self, requests: list[tuple[int, int]]
    ) -> list[tuple[bytes, list[ExceptionRecord]]]:
        """Perform many loads; one ``(value, records)`` pair per request.

        Semantically identical to calling :meth:`load` per request, with
        the attribute lookups hoisted out of the loop — the fast path for
        trace replay and bulk experiment drivers.
        """
        l1_load = self.l1.load
        line_size = bv.LINE_SIZE
        offset_mask = line_size - 1
        results: list[tuple[bytes, list[ExceptionRecord]]] = []
        append = results.append
        for address, size in requests:
            if 0 < size and (address & offset_mask) + size <= line_size:
                value, record = l1_load(address, size)
                append((value, [] if record is None else [record]))
            else:
                append(self.load(address, size))
        return results

    def store_many(
        self, requests: list[tuple[int, bytes]]
    ) -> list[list[ExceptionRecord]]:
        """Perform many stores; one record list per request."""
        l1_store = self.l1.store
        line_size = bv.LINE_SIZE
        offset_mask = line_size - 1
        results: list[list[ExceptionRecord]] = []
        append = results.append
        for address, data in requests:
            if 0 < len(data) <= line_size - (address & offset_mask):
                record = l1_store(address, data)
                append([] if record is None else [record])
            else:
                append(self.store(address, data))
        return results

    def replay_trace(self, ops: list[tuple]) -> int:
        """Replay a mixed trace of ``("L", addr, size)`` / ``("S", addr, data)``.

        Returns the number of security-byte violations observed.  This is
        the bulk driver for trace-based experiments: per-op results are
        not materialised, attribute lookups are hoisted, and single-line
        accesses (the overwhelming majority in real traces) go straight to
        the L1 entry point.

        Edge cases are defined behaviour: an empty (or single-op) trace
        replays normally — ``[]`` returns 0 without touching any level —
        and a malformed op (unknown kind, or too few fields) raises
        :class:`ValueError` identifying the offending position, leaving
        any earlier ops' effects applied.
        """
        if not ops:
            return 0
        l1_load = self.l1.load
        l1_store = self.l1.store
        line_size = bv.LINE_SIZE
        offset_mask = line_size - 1
        violations = 0
        for index, op in enumerate(ops):
            try:
                kind = op[0]
                address = op[1]
            except (IndexError, TypeError):
                raise ValueError(
                    f"malformed trace op at index {index}: {op!r} "
                    "(need (kind, address, size-or-data))"
                ) from None
            if kind == "L":
                try:
                    size = op[2]
                except IndexError:
                    raise ValueError(
                        f"malformed trace op at index {index}: {op!r} "
                        "(load needs a size)"
                    ) from None
                if 0 < size and (address & offset_mask) + size <= line_size:
                    if l1_load(address, size)[1] is not None:
                        violations += 1
                else:
                    violations += len(self.load(address, size)[1])
            elif kind == "S":
                try:
                    data = op[2]
                except IndexError:
                    raise ValueError(
                        f"malformed trace op at index {index}: {op!r} "
                        "(store needs data)"
                    ) from None
                if 0 < len(data) <= line_size - (address & offset_mask):
                    if l1_store(address, data) is not None:
                        violations += 1
                else:
                    violations += len(self.store(address, data))
            else:
                raise ValueError(
                    f"unknown trace op kind {kind!r} at index {index}"
                )
        return violations

    def replay_columns(
        self, kinds, addresses, args, cform_offsets=(62, 63)
    ) -> int:
        """Replay one decoded record batch (parallel columns) in order.

        The trace replayer's hierarchy-mode entry point: ``kinds``/``addresses``/``args`` are equal-length arrays
        in stream order using the trace event codes (see
        :mod:`repro.memory.kernel`).  LOAD/STORE move data through the
        stack exactly as the equivalent :meth:`replay_trace` ops would
        (a store writes ``arg`` repeats of its address's low byte);
        CFORM records caliform ``arg`` consecutive lines, setting the
        still-clear ``cform_offsets`` bytes of each; every other kind is
        inert here — the replayer accounts for them.  Returns the number
        of security-byte violations, counted as :meth:`replay_trace`
        counts them, and prices every touch through the usual level
        statistics (:meth:`total_cycles` covers the batch with no extra
        work).
        """
        from repro.core.cform import CformRequest
        from repro.memory.kernel import EV_CFORM, EV_LOAD, EV_STORE

        l1_load = self.l1.load
        l1_store = self.l1.store
        l1_cform = self.l1.cform
        secmask_of = self.secmask_of
        line_size = bv.LINE_SIZE
        offset_mask = line_size - 1
        violations = 0
        for kind, address, arg in zip(
            kinds.tolist(), addresses.tolist(), args.tolist()
        ):
            if kind == EV_LOAD:
                if 0 < arg and (address & offset_mask) + arg <= line_size:
                    if l1_load(address, arg)[1] is not None:
                        violations += 1
                else:
                    violations += len(self.load(address, arg)[1])
            elif kind == EV_STORE:
                data = bytes([address & 0xFF]) * arg
                if 0 < arg <= line_size - (address & offset_mask):
                    if l1_store(address, data) is not None:
                        violations += 1
                else:
                    violations += len(self.store(address, data))
            elif kind == EV_CFORM:
                for line_index in range(arg):
                    line_address = (address + line_index * 64) & ~63
                    # Object churn re-califorms reused lines; CFORM-set
                    # on an already-set byte is an architectural usage
                    # error, so only the still-clear offsets are set.
                    current = secmask_of(line_address)
                    wanted = [
                        offset
                        for offset in cform_offsets
                        if not (current >> offset) & 1
                    ]
                    if wanted:
                        l1_cform(CformRequest.set_bytes(line_address, wanted))
        return violations

    def load_or_raise(self, address: int, size: int) -> bytes:
        value, records = self.load(address, size)
        if records:
            raise SecurityByteAccess(records[0])
        return value

    def store_or_raise(self, address: int, data: bytes) -> None:
        records = self.store(address, data)
        if records:
            raise SecurityByteAccess(records[0])

    def cform(self, request: CformRequest) -> None:
        """Execute a (temporal) ``CFORM``: write-allocate into L1, edit."""
        self.l1.cform(request)

    def cform_non_temporal(self, request: CformRequest) -> None:
        """The streaming-store flavour sketched in Section 6.1/footnote 3.

        Applies the metadata edit at the L2 boundary without polluting the
        L1 — used when califorming deallocated regions the program will not
        touch again.
        """
        from repro.core.cform import apply_cform
        from repro.core.sentinel import decode, encode

        if self.l1.contains(request.line_address):
            # Line already resident: fall back to the normal path to keep
            # the L1 copy coherent.
            self.l1.cform(request)
            return
        lower = self.l2.read_line(request.line_address)
        line = decode(lower)
        apply_cform(line, request)
        self.l2.write_line(request.line_address, encode(line))

    # -- bookkeeping ---------------------------------------------------------

    def flush_all(self) -> None:
        """Drain every level down to DRAM (testing/experiment helper)."""
        self.l1.flush()
        self.l2.flush()
        self.l3.flush()

    def secmask_of(self, address: int) -> int:
        """Current security mask of the line holding ``address``.

        Reads through the hierarchy without disturbing simulation results
        more than a normal fill would; used by allocator assertions and
        tests.
        """
        resident = self.l1.peek_secmask(address)
        if resident is not None:
            return resident
        from repro.core.sentinel import decode as _decode

        base = address & ~(bv.LINE_SIZE - 1)
        return _decode(self.l2.read_line(base)).secmask

    def total_cycles(self) -> int:
        """AMAT-style cycle total for all accesses so far."""
        l1, l2, l3 = self.l1.stats, self.l2.stats, self.l3.stats
        return amat_cycles(
            self.config, l1.accesses, l1.misses, l2.misses, l3.misses
        )

    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        self.l3.stats.reset()
        self.dram.stats.reset()


def _split_by_line(address: int, size: int) -> list[tuple[int, int]]:
    """Split a byte range into per-line (address, size) pieces."""
    if size < 0:
        raise ValueError("size must be non-negative")
    pieces: list[tuple[int, int]] = []
    remaining = size
    cursor = address
    while remaining > 0:
        line_end = (cursor & ~(bv.LINE_SIZE - 1)) + bv.LINE_SIZE
        piece = min(remaining, line_end - cursor)
        pieces.append((cursor, piece))
        cursor += piece
        remaining -= piece
    return pieces

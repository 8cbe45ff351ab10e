"""Per-record reference simulator: the differential oracle of the kernel.

Production counts cache hits and misses with one simulator, the batched
:class:`~repro.memory.kernel.LadderKernel` (and its shared-L3 sibling
:class:`~repro.memory.multicore.SharedL3Kernel`).  This module keeps the
straightforward one-access-at-a-time implementation it must agree with:

* :class:`TagOnlyCache` — one LRU tag array, an ``OrderedDict`` per set;
* :class:`PrivateLadder`, :class:`SharedL3`, :class:`MultiCoreHierarchy`
  — per-core L1/L2 pairs in front of one shared L3;
* :func:`replay_timing`, :func:`replay_hierarchy`, :func:`replay_shards`
  and :func:`replay_multicore` — the replay entry points of
  :mod:`repro.traces.replayer`, re-implemented as record-at-a-time loops
  over :meth:`TraceReader.records` with the same return types, so a
  differential test compares the two with ``==``.

Run as a script, it is the ``python -m repro.traces`` CLI with these
replayers swapped in, so its summaries can be compared byte for byte
with the production CLI's::

    PYTHONPATH=src:tests python -m oracle replay sc.trace --mode timing
"""

from __future__ import annotations

import heapq
import sys
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
from repro.traces.format import (
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    TraceFormatError,
    TraceReader,
)
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

#: Ops accumulated before one ``replay_trace`` batch in hierarchy mode.
HIERARCHY_BATCH_OPS = 2048


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
    for kind, address, arg in reader.records():
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
    for kind, address, arg in reader.records():
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
        with TraceReader(source) as reader:
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
            for kind, address, arg in reader.records():
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


def replay_timing(source, verify: bool = True, with_footer: bool = False):
    """Per-record twin of :func:`repro.traces.replayer.replay_timing`."""
    with TraceReader(source) as reader:
        stats = replay_timing_stream(reader)
        footer = reader.read_footer()
    result = _footer_result(stats, reader.header, footer, verify)
    return (result, footer) if with_footer else result


def replay_hierarchy(source) -> ShardStats:
    """Per-record twin of :func:`repro.traces.replayer.replay_hierarchy`."""
    with TraceReader(source) as reader:
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
        with TraceReader(path) as reader:
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


def main(argv: list[str] | None = None) -> int:
    """The ``python -m repro.traces`` CLI, replaying through this oracle."""
    from repro.traces import __main__ as cli

    cli.replay_timing = replay_timing
    cli.replay_hierarchy = replay_hierarchy
    cli.replay_shards = replay_shards
    cli.replay_multicore = replay_multicore
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())

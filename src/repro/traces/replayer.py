"""Replay engines: trace file → statistics, single-process or sharded.

Three consumers of the record stream, all decoding it as
:class:`~repro.traces.format.RecordColumns` batches:

:func:`replay_timing`
    Rebuilds the tag-only cache ladder (a
    :class:`~repro.memory.kernel.LadderKernel`) from the recorded
    geometry and pushes every touch through it — the same work the live
    generator did, minus the RNG and heap bookkeeping.  Returns a
    :class:`~repro.workloads.generator.RunResult` that is bit-identical
    to the live run's (verified against the footer unless disabled), so
    every timing figure can run from a persisted trace.
    :func:`recorded_result` builds the same result from the footer alone,
    for callers that have verified the bytes (corpus hits).

:func:`replay_hierarchy`
    Drives the data-carrying :class:`MemoryHierarchy` through its
    :meth:`replay_columns` entry point, interpreting CFORM records
    as security-byte sets on the touched lines — exception accounting
    (violations) plus AMAT cycles for the same stream.

:func:`shard_trace` / :func:`replay_shards`
    Splits a trace into per-epoch-range shard files (EPOCH markers are
    the only legal split points, so allocation-event clusters are never
    torn) and replays the shards across worker processes with merged
    accounting.  Each shard replays against a cold ladder — the regions
    are independent, SimPoint-style, and warmup markers are ignored so
    the counted records depend only on the trace, not the partition —
    so merged statistics are identical whether the shards run serially
    or in parallel, and the linear AMAT model makes merged cycles equal
    the cycles of the merged counts.

:func:`replay_multicore`
    Feeds one recorded trace (or shard stream) per core through private
    per-core L1/L2 tag ladders into one shared L3, interleaving the
    streams round-robin at record granularity.  The work splits at the
    L2/L3 boundary: each core's private-ladder filtering depends only on
    its own stream (so ``jobs`` fans the cores across worker processes),
    while the shared L3 always consumes the deterministically merged
    per-core miss streams serially — per-core and merged accounting are
    therefore identical at any worker count, and a 1-core run reproduces
    the single-ladder replay exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    amat_cycles,
)
from repro.memory.kernel import (
    LadderKernel,
    RecordAccountant,
    TimingAccountant,
    check_kinds,
    expand_touches,
)
from repro.memory.multicore import SharedL3Kernel
from repro.telemetry.runtime import flush as telemetry_flush
from repro.telemetry.runtime import span as telemetry_span
from repro.traces.compress import CompressedTraceWriter, tail_footer
from repro.traces.format import (
    EV_EPOCH,
    KIND_NAMES,
    TraceFormatError,
    TraceIntegrityError,
    TraceReader,
)
from repro.traces.registry import TraceScenarioSpec
from repro.workloads.generator import RunResult

#: Byte offsets califormed per line when a CFORM record is replayed
#: through the data-carrying hierarchy.  The generator's CFORM events
#: price dummy stores, not a concrete mask; the replayer pins the span
#: to the line tail so violation accounting is deterministic.
CFORM_REPLAY_OFFSETS = (62, 63)


def _config_from_header(header: dict) -> HierarchyConfig:
    try:
        geometry = header["geometry"]
        l1_lat, l2_lat, l3_lat, dram_lat = geometry["latencies"]
        l2_extra, l3_extra = geometry.get("extra_cycles", (0, 0))
        return HierarchyConfig(
            l1_geometry=CacheGeometry(*geometry["l1"]),
            l2_geometry=CacheGeometry(*geometry["l2"]),
            l3_geometry=CacheGeometry(*geometry["l3"]),
            l1_latency=l1_lat,
            l2_latency=l2_lat,
            l3_latency=l3_lat,
            dram_latency=dram_lat,
            l2_extra_cycles=l2_extra,
            l3_extra_cycles=l3_extra,
        )
    except KeyError as missing:
        raise TraceFormatError(
            f"trace header missing {missing} — not a recorder-written trace?"
        ) from None


@dataclass(frozen=True)
class ShardStats:
    """Accounting for one replayed shard (or one whole trace)."""

    events: MemoryEventCounts
    touches: int
    cform_lines: int
    alloc_events: int
    violations: int
    amat_cycles: int

    def merged_with(self, other: "ShardStats") -> "ShardStats":
        return ShardStats(
            events=MemoryEventCounts(
                l1_accesses=self.events.l1_accesses + other.events.l1_accesses,
                l1_misses=self.events.l1_misses + other.events.l1_misses,
                l2_misses=self.events.l2_misses + other.events.l2_misses,
                l3_misses=self.events.l3_misses + other.events.l3_misses,
            ),
            touches=self.touches + other.touches,
            cform_lines=self.cform_lines + other.cform_lines,
            alloc_events=self.alloc_events + other.alloc_events,
            violations=self.violations + other.violations,
            amat_cycles=self.amat_cycles + other.amat_cycles,
        )


@dataclass(frozen=True)
class MergedReplay:
    """Summed accounting of a multi-shard replay."""

    shards: int
    stats: ShardStats


def _amat_cycles(config: HierarchyConfig, events: MemoryEventCounts) -> int:
    return amat_cycles(
        config,
        events.l1_accesses,
        events.l1_misses,
        events.l2_misses,
        events.l3_misses,
    )


def _replay_timing_columns(
    reader: TraceReader, honor_warm: bool = True
) -> ShardStats:
    """Count one record stream with a :class:`TimingAccountant`.

    ``honor_warm`` replays EV_WARM as the live run's counter reset —
    required for bit-identical full-trace replay.  Shard (region) replay
    passes ``False``: a region is self-contained, so every record counts
    and the merged accounting depends only on the record stream, not on
    which shard happens to contain the warmup boundary.
    """
    config = _config_from_header(reader.header)
    accountant = TimingAccountant(config, honor_warm)
    for batch in reader.column_batches():
        accountant.consume(batch.kind, batch.address, batch.arg)
    accountant.ladder.report()
    events = accountant.events()
    return ShardStats(
        events=events,
        touches=accountant.touches,
        cform_lines=accountant.cform_lines,
        alloc_events=accountant.alloc_events,
        violations=0,
        amat_cycles=_amat_cycles(config, events),
    )


def replay_timing(source, verify: bool = True):
    """Replay a full trace through fresh tag caches; return its RunResult.

    With ``verify`` (the default) the recomputed event counts and the
    CFORM/allocation accounting are checked against the footer the
    recorder wrote; any divergence raises :class:`TraceIntegrityError`.
    The returned result is bit-identical to the live run's.

    Only whole recorded traces carry the run summary this reconstructs;
    for shard files use :func:`replay_shards` (region accounting).
    """
    with telemetry_span("replay/timing") as tspan, \
            TraceReader(source) as reader:
        stats = _replay_timing_columns(reader)
        tspan.set("touches", stats.touches)
        footer = reader.read_footer()
    return _footer_result(stats, reader.header, footer, verify)


def _footer_result(
    stats: ShardStats | None, header: dict, footer: dict, verify: bool = True
) -> RunResult:
    """The :class:`RunResult` a whole recorded trace describes.

    The benchmark, instructions and scenario come from the recorded
    footer and header.  The counts come from a replay's ``stats`` or,
    with ``stats`` None, from the footer itself.  With ``verify`` the
    replayed event counts and the CFORM/allocation accounting must match
    the footer, or :class:`TraceIntegrityError` is raised.
    """
    if "benchmark" not in footer:
        kind = footer.get("kind", "unknown")
        raise TraceFormatError(
            f"not a whole recorded trace (footer kind {kind!r}): "
            "no run summary to reconstruct — replay shard files with "
            "replay-shards / replay_shards()"
        )
    try:
        spec_document = header["spec"]
    except KeyError:
        raise TraceFormatError(
            "trace header missing 'spec' — not a recorder-written trace?"
        ) from None
    spec = TraceScenarioSpec.from_dict(spec_document)
    recorded_events = footer.get("events")
    if verify and stats is not None and recorded_events is None:
        raise TraceIntegrityError(
            "footer carries no recorded events to verify against; "
            "pass verify=False to replay anyway"
        )
    try:
        if stats is None:  # the recorder's counts, taken on trust
            events = MemoryEventCounts(**footer["events"])
            cform_lines = footer["cform_instructions"]
            alloc_events = footer["alloc_events"]
        else:
            events = stats.events
            cform_lines = stats.cform_lines
            alloc_events = stats.alloc_events
        if verify and stats is not None:
            replayed = {
                "l1_accesses": stats.events.l1_accesses,
                "l1_misses": stats.events.l1_misses,
                "l2_misses": stats.events.l2_misses,
                "l3_misses": stats.events.l3_misses,
            }
            if replayed != recorded_events:
                raise TraceIntegrityError(
                    f"replayed cache events {replayed} != "
                    f"recorded {recorded_events}"
                )
            if stats.cform_lines != footer["cform_instructions"]:
                raise TraceIntegrityError(
                    f"replayed {stats.cform_lines} CFORM lines, "
                    f"recorded {footer['cform_instructions']}"
                )
            if stats.alloc_events != footer["alloc_events"]:
                raise TraceIntegrityError(
                    f"replayed {stats.alloc_events} allocation events, "
                    f"recorded {footer['alloc_events']}"
                )
        return RunResult(
            benchmark=footer["benchmark"],
            scenario=spec.build_scenario(),
            instructions=footer["instructions"],
            events=events,
            cform_instructions=cform_lines,
            alloc_events=alloc_events,
        )
    except KeyError as missing:
        raise TraceFormatError(
            f"trace footer missing {missing} — foreign or partially "
            "written recording"
        ) from None


def recorded_result(source) -> RunResult:
    """The :class:`RunResult` a whole trace's footer states, unreplayed.

    The footer is found from the end of the trace's bytes
    (:func:`~repro.traces.compress.tail_footer`), with no frame walked.
    The counts are the recorder's, taken on trust: the caller vouches
    for the bytes (the corpus store checks their sha256 first).
    """
    with TraceReader(source) as reader:
        footer = tail_footer(reader)
    return _footer_result(None, reader.header, footer)


class _HierarchyAccountant(RecordAccountant):
    """The accountant's segment walk driving the data-carrying hierarchy.

    The hierarchy moves real bytes per access, so the per-access work
    stays sequential: :meth:`MemoryHierarchy.replay_columns` consumes
    whole column segments in record order.
    """

    def __init__(self, config: HierarchyConfig, honor_warm: bool):
        super().__init__(honor_warm)
        self.hierarchy = MemoryHierarchy(config)
        self.violations = 0

    def segment(self, start, kinds, addresses, args) -> None:
        self.violations += self.hierarchy.replay_columns(
            kinds, addresses, args, cform_offsets=CFORM_REPLAY_OFFSETS
        )

    def warm(self, position) -> None:
        self.hierarchy.reset_stats()
        self.violations = 0


def _replay_hierarchy_columns(
    reader: TraceReader, honor_warm: bool = True
) -> ShardStats:
    """Drive the data-carrying hierarchy over the decoded columns.

    ``honor_warm`` as in :func:`_replay_timing_columns`.
    """
    accountant = _HierarchyAccountant(
        _config_from_header(reader.header), honor_warm
    )
    for batch in reader.column_batches():
        accountant.consume(batch.kind, batch.address, batch.arg)
    hierarchy = accountant.hierarchy
    events = MemoryEventCounts(
        l1_accesses=hierarchy.l1.stats.accesses,
        l1_misses=hierarchy.l1.stats.misses,
        l2_misses=hierarchy.l2.stats.misses,
        l3_misses=hierarchy.l3.stats.misses,
    )
    return ShardStats(
        events=events,
        touches=accountant.touches,
        cform_lines=accountant.cform_lines,
        alloc_events=accountant.alloc_events,
        violations=accountant.violations,
        amat_cycles=hierarchy.total_cycles(),
    )


def replay_hierarchy(source) -> ShardStats:
    """Full-fidelity replay: data movement, exceptions, AMAT cycles."""
    with telemetry_span("replay/hierarchy") as tspan, \
            TraceReader(source) as reader:
        stats = _replay_hierarchy_columns(reader)
        tspan.set("touches", stats.touches)
        tspan.set("violations", stats.violations)
        reader.read_footer()
    return stats


# -- sharding ----------------------------------------------------------------


def shard_trace(path: str, out_dir: str, shards: int) -> list[str]:
    """Split ``path`` into ``shards`` contiguous per-epoch-range files.

    EPOCH markers (inserted between bursts by the recorder) are the only
    split points, so a shard never tears an allocation event's
    FREE/ALLOC/CFORM cluster.  Each shard is itself a valid trace file
    carrying the original header plus a ``shard`` stanza; shard footers
    hold per-shard record counts (events are recomputed at replay — a
    cold ladder per shard, SimPoint-style).
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    with TraceReader(path) as reader:
        footer = reader.read_footer()
    epochs = footer.get("epochs", 0)
    segments = epochs + 1  # trailing records after the last marker
    per_shard = max(1, -(-segments // shards))
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.splitext(os.path.basename(path))[0]

    reader = TraceReader(path)
    writers: list = []
    counts: list[dict] = []
    paths: list[str] = []
    completed = False
    try:
        for index in range(shards):
            header = dict(reader.header)
            header["shard"] = {"index": index, "of": shards}
            shard_path = os.path.join(out_dir, f"{base}.shard{index:03d}.trace")
            writers.append(CompressedTraceWriter(shard_path, header))
            counts.append({KIND_NAMES[k]: 0 for k in KIND_NAMES})
            paths.append(shard_path)
        segment = 0  # EPOCH markers seen before the current batch
        for batch in reader.column_batches():
            kinds = batch.kind
            check_kinds(kinds)
            # A record's segment counts the markers before it, so each
            # EPOCH marker closes the segment it belongs to.
            epochs = (kinds == EV_EPOCH).astype(np.int64)
            segments = segment + np.cumsum(epochs) - epochs
            segment += int(epochs.sum())
            shard_of = np.minimum(segments // per_shard, shards - 1)
            edges = np.searchsorted(shard_of, np.arange(shards + 1)).tolist()
            for index in range(shards):
                start, stop = edges[index], edges[index + 1]
                if start == stop:
                    continue
                writers[index].append_columns(
                    kinds[start:stop],
                    batch.address[start:stop],
                    batch.arg[start:stop],
                )
                tally = np.bincount(kinds[start:stop]).tolist()
                for kind, count in enumerate(tally):
                    if count:
                        counts[index][KIND_NAMES[kind]] += count
        for index, writer in enumerate(writers):
            writer.set_footer(
                {
                    "kind": "shard",
                    "shard": {"index": index, "of": shards},
                    "records": writer.record_count,
                    "counts": counts[index],
                    "source_records": footer.get("records"),
                }
            )
            writer.close()
        completed = True
    finally:
        reader.close()
        if not completed:
            # A failed split must not leave terminator-less shard files
            # behind for a later replay-shards glob to choke on.
            for writer, shard_path in zip(writers, paths):
                writer.abort()
                try:
                    os.remove(shard_path)
                except OSError:
                    pass
    return paths


_SHARD_STREAMS = {
    "timing": _replay_timing_columns,
    "hierarchy": _replay_hierarchy_columns,
}


def _replay_shard_worker(task: tuple[str, str]) -> ShardStats:
    """Process-pool entry point: replay one shard (region) file.

    Region semantics: EV_WARM does not reset counters here, so the
    merged accounting covers every record in the stream and is a
    function of the trace alone — the shard count only moves the cold
    cache boundaries.
    """
    shard_path, mode = task
    replay_stream = _SHARD_STREAMS[mode]
    with TraceReader(shard_path) as reader:
        stats = replay_stream(reader, honor_warm=False)
        reader.read_footer()
    # Pool children exit via os._exit (no atexit), so any metrics this
    # worker accumulated must hit the span log before the task returns.
    telemetry_flush()
    return stats


def replay_shards(
    shard_paths: list[str],
    jobs: int = 1,
    mode: str = "timing",
) -> MergedReplay:
    """Replay shard files (serially or across processes) and merge.

    ``jobs`` only changes wall-clock time: each shard replays against
    its own cold ladder, so the merged accounting is identical for any
    worker count — the invariant the round-trip tests pin down.

    Region semantics: EV_WARM markers are ignored (no counter reset),
    so every record in the stream is counted and the merged touch/
    CFORM/allocation totals are independent of the shard count; only
    the cache-boundary effects (cold starts per region) move with the
    partition.
    """
    if mode not in ("timing", "hierarchy"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if not shard_paths:
        raise ValueError("no shard files to replay")
    tasks = [(path, mode) for path in shard_paths]
    with telemetry_span(
        "replay/shards", shards=len(tasks), jobs=jobs, mode=mode
    ) as tspan:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_replay_shard_worker, tasks))
        else:
            results = [_replay_shard_worker(task) for task in tasks]
        with telemetry_span("replay/shards/merge", shards=len(results)):
            merged = results[0]
            for stats in results[1:]:
                merged = merged.merged_with(stats)
        tspan.set("touches", merged.touches)
    return MergedReplay(shards=len(results), stats=merged)


# -- multi-core shared-L3 replay ---------------------------------------------
#
# Record streams interleave round-robin at record granularity: the j-th
# record of core c occupies global slot ``j * cores + c``, so slots from
# different cores can never collide and the merged order is a pure
# function of the inputs.  The simulation splits at the L2/L3 boundary:
#
#   phase 1 (parallelisable per core)  each core's stream runs through
#       its own private L1/L2 tag ladder; the residue — the L3 request
#       stream — is captured as parallel (slot, address) columns;
#   phase 2 (always serial)            the per-core L3 request streams
#       are merged by slot and fed through one shared L3 tag array with
#       per-core hit/miss attribution.
#
# Because phase 1 depends only on one core's records and phase 2 is a
# deterministic merge, per-core and merged accounting are identical at
# any ``jobs`` value, and a 1-core run degenerates to the single-ladder
# replay exactly.

#: Sentinel address in a phase-1 residue marking a core's warmup
#: boundary: phase 2 resets that core's shared-L3 attribution there
#: (contents stay warm), mirroring the single-ladder EV_WARM handling.
_WARM_RESET = -1

#: Per-core physical-address stride for the shared L3.  Co-running
#: programs occupy disjoint physical pages, but every recorded trace
#: uses the generator's one synthetic address space (same heap/stack
#: bases), so without disambiguation co-runners would constructively
#: share L3 lines instead of contending.  Each core's L3 requests are
#: offset by ``core * stride``; the stride is far above any recorded
#: address and a multiple of every level's way span, so a core's own
#: set/tag behaviour — and hence every solo statistic — is unchanged.
_CORE_ADDRESS_STRIDE = 1 << 44


@dataclass(frozen=True)
class MulticoreReplay:
    """Accounting of one multi-core shared-L3 replay."""

    cores: int
    per_core: tuple[ShardStats, ...]
    merged: ShardStats


@dataclass(frozen=True)
class _CoreFilter:
    """Phase-1 output for one core: private-ladder stats + L3 residue.

    The residue is a pair of parallel int64 arrays (``slots`` /
    ``addresses``); warm boundaries appear as ``_WARM_RESET`` addresses.
    """

    config: HierarchyConfig
    l1_accesses: int
    l1_misses: int
    l2_misses: int
    touches: int
    cform_lines: int
    alloc_events: int
    slots: "object"  # numpy int64 array
    addresses: "object"  # numpy int64 array


class _CoreFilterAccountant(RecordAccountant):
    """Phase 1 of one core: the accountant's segment walk over a 2-level
    :class:`LadderKernel`, capturing the residue that reaches the L3.

    Surviving touches keep their record's global slot (``record index *
    cores + core``) so phase 2 can merge the per-core residues into the
    recorded interleaving; CFORM touches share their record's slot with
    intra-record order preserved.  A warm record leaves a
    ``_WARM_RESET`` entry at its own slot.
    """

    def __init__(self, config: HierarchyConfig, core: int, cores: int):
        super().__init__()
        self.ladder = LadderKernel(config, levels=2)
        self.core = core
        self.cores = cores
        self.offset = core * _CORE_ADDRESS_STRIDE  # disjoint physical spaces
        self.stream_index = 0  # records consumed before the current block
        self.slot_blocks: list = []
        self.address_blocks: list = []

    def consume(self, kinds, addresses, args) -> None:
        super().consume(kinds, addresses, args)
        self.stream_index += len(kinds)

    def _slots(self, start: int, count: int):
        first = self.stream_index + start
        stream = np.arange(first, first + count, dtype=np.int64)
        return self.core + stream * self.cores

    def segment(self, start, kinds, addresses, args) -> None:
        touch_addresses, counts = expand_touches(kinds, addresses, args)
        missed = self.ladder.touch_block(touch_addresses)
        if missed.size:
            touch_slots = np.repeat(self._slots(start, len(kinds)), counts)
            self.slot_blocks.append(touch_slots[missed])
            self.address_blocks.append(touch_addresses[missed] + self.offset)

    def warm(self, position) -> None:
        self.ladder.reset_counters()
        self.slot_blocks.append(self._slots(position, 1))
        self.address_blocks.append(np.full(1, _WARM_RESET, dtype=np.int64))


def _filter_core_columns(
    core: int, cores: int, sources, config: HierarchyConfig | None
) -> _CoreFilter:
    """Phase 1: run one core's record stream through its private ladder.

    ``sources`` is that core's sequence of trace files (paths or binary
    file objects), replayed as one concatenated stream.  Warm markers
    are honored for whole recorded traces (counter reset, as in
    :func:`replay_timing`) and ignored for shard files (region
    semantics, as in :func:`replay_shards`).
    """
    explicit_config = config
    accountant: _CoreFilterAccountant | None = None
    for source in sources:
        with TraceReader(source) as reader:
            source_config = _config_from_header(reader.header)
            if config is None:
                # No caller override: the first file pins the config a
                # caller override would otherwise supply; later files of
                # the same stream must agree or the ladder geometry
                # would silently misrepresent them.
                config = source_config
            elif explicit_config is None and source_config != config:
                raise TraceFormatError(
                    "trace files of one core stream were recorded under "
                    "different hierarchy configurations"
                )
            if accountant is None:
                accountant = _CoreFilterAccountant(config, core, cores)
            accountant.honor_warm = "shard" not in reader.header
            for batch in reader.column_batches():
                accountant.consume(batch.kind, batch.address, batch.arg)
            reader.read_footer()
    if accountant is None:  # no sources for this core
        raise ValueError(f"core {core} has no trace sources")
    ladder = accountant.ladder
    ladder.report()
    if accountant.slot_blocks:
        slots = np.concatenate(accountant.slot_blocks)
        addresses = np.concatenate(accountant.address_blocks)
    else:
        slots = np.empty(0, dtype=np.int64)
        addresses = np.empty(0, dtype=np.int64)
    return _CoreFilter(
        config=config,
        l1_accesses=ladder.l1.accesses,
        l1_misses=ladder.l1.misses,
        l2_misses=ladder.l2.misses,
        touches=accountant.touches,
        cform_lines=accountant.cform_lines,
        alloc_events=accountant.alloc_events,
        slots=slots,
        addresses=addresses,
    )


def _filter_core_worker(task: tuple) -> _CoreFilter:
    """Process-pool entry point for phase 1 (paths only)."""
    core, cores, paths, config = task
    filtered = _filter_core_columns(core, cores, paths, config)
    telemetry_flush()  # pool children exit without atexit
    return filtered


def _merge_shared_columns(
    config: HierarchyConfig, cores: int, filters: list
) -> list[int]:
    """Phase 2: merge the residues into one shared-L3 kernel.

    A stable sort on the concatenated slot arrays yields the recorded
    interleaving: cross-core slots are unique (``slot % cores ==
    core``), and equal slots — a CFORM record's line touches — are
    contiguous per core in stream order, which stable sorting preserves.  Warm-reset sentinels split the stream so each
    core's attribution resets at its recorded boundary while the tag
    contents stay warm.  Returns the per-core shared-L3 miss counts.
    """
    shared = SharedL3Kernel(config, cores)
    slots = np.concatenate([filtered.slots for filtered in filters])
    addresses = np.concatenate([filtered.addresses for filtered in filters])
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    addresses = addresses[order]
    core_column = slots % cores
    start = 0
    for position in np.flatnonzero(addresses == _WARM_RESET).tolist():
        if position > start:
            shared.replay_columns(
                core_column[start:position], addresses[start:position]
            )
        shared.reset_core(int(core_column[position]))
        start = position + 1
    if start < len(addresses):
        shared.replay_columns(core_column[start:], addresses[start:])
    return shared.misses


def replay_multicore(
    core_sources: list,
    jobs: int = 1,
    config: HierarchyConfig | None = None,
) -> MulticoreReplay:
    """Replay one trace stream per core against a shared L3.

    ``core_sources`` holds one entry per core: a trace path (or binary
    file object), or a list of them replayed as one concatenated stream
    (e.g. a core's shard files in order).  ``jobs`` fans the per-core
    private-ladder phase across worker processes — the shared-L3 phase
    is always the same deterministic serial merge, so the returned
    accounting is identical for any worker count.  ``config`` overrides
    the recorded hierarchy configuration (e.g. the Figure-10 pessimistic
    extra-latency knobs); by default every trace must have been recorded
    under the same configuration, which is then used.

    Returns per-core :class:`ShardStats` (shared-L3 misses attributed to
    the requesting core, cycles from the shared AMAT helper) plus their
    merged sum.
    """
    if not core_sources:
        raise ValueError("no cores to replay")
    normalized: list[tuple] = []
    for entry in core_sources:
        if isinstance(entry, (list, tuple)):
            normalized.append(tuple(entry))
        else:
            normalized.append((entry,))
    cores = len(normalized)
    tasks = [
        (core, cores, sources, config)
        for core, sources in enumerate(normalized)
    ]
    with telemetry_span("replay/mc", cores=cores, jobs=jobs) as tspan:
        if jobs > 1:
            if not all(
                isinstance(source, str)
                for sources in normalized
                for source in sources
            ):
                raise ValueError(
                    "jobs > 1 requires path sources (file objects cannot "
                    "cross process boundaries)"
                )
            with ProcessPoolExecutor(max_workers=min(jobs, cores)) as pool:
                filters = list(pool.map(_filter_core_worker, tasks))
        else:
            filters = [_filter_core_worker(task) for task in tasks]
        resolved = filters[0].config
        for core, filtered in enumerate(filters):
            if filtered.config != resolved:
                raise TraceFormatError(
                    f"core {core} was recorded under a different hierarchy "
                    "configuration; pass an explicit config override"
                )

        # Phase 2: deterministic serial merge into the shared L3.
        with telemetry_span("replay/mc/merge", cores=cores):
            shared_misses = _merge_shared_columns(resolved, cores, filters)
        tspan.set("touches", sum(f.touches for f in filters))

    per_core: list[ShardStats] = []
    for core, filtered in enumerate(filters):
        events = MemoryEventCounts(
            l1_accesses=filtered.l1_accesses,
            l1_misses=filtered.l1_misses,
            l2_misses=filtered.l2_misses,
            l3_misses=shared_misses[core],
        )
        per_core.append(
            ShardStats(
                events=events,
                touches=filtered.touches,
                cform_lines=filtered.cform_lines,
                alloc_events=filtered.alloc_events,
                violations=0,
                amat_cycles=_amat_cycles(resolved, events),
            )
        )
    merged = per_core[0]
    for stats in per_core[1:]:
        merged = merged.merged_with(stats)
    return MulticoreReplay(
        cores=cores, per_core=tuple(per_core), merged=merged
    )

"""Synthetic trace generation and fast cache-timing runs.

This is the engine behind every timing figure (4, 10, 11, 12).  For one
benchmark profile and one *scenario* (insertion policy + whether CFORM
instructions are issued) it synthesises the benchmark's memory behaviour
as a stream of ``EV_*`` records (defined in :mod:`repro.memory.kernel`
and re-exported here):

1. a heap population is built from the profile's object mix (structs from
   the corpus pool and raw buffers), laid out by a bump/free-list
   allocator with quarantine — under a padding policy the same logical
   objects simply occupy more bytes, which is the entire mechanism behind
   the paper's "ineffective cache usage" slowdowns;
2. a seeded access stream walks the objects (zipf-style locality, scans
   vs. pointer-ish random field accesses, a hot stack region);
3. allocation/free events occur at the profile's rate; when the scenario
   says so, each event issues the CFORM work for its object (one CFORM
   record whose lines the accountant expands into one store-like access
   per to-be-califormed line, plus setup instructions — the same
   emulation the paper uses with dummy stores, Section 8.2).

Every scenario of a benchmark runs the *same logical event stream*, so
synthesis is two steps.  :func:`draw` makes every random choice of a run
once — the population's types and sizes, each burst's kind and target,
each touch's field or offset, the churn victims — into a scenario-free
:class:`Script`.  :func:`render` lays that script out under one scenario
with numpy: population addresses, touches and the churn records, in
blocks of whole bursts; only the allocator runs one churn event at a
time.  Two runs of one seed therefore differ only through layout
inflation and CFORM work — the two effects the paper decomposes in
Figure 11 — and a figure draws each benchmark once for all of its
configurations (the :func:`slowdown` memo).

:func:`emit_trace` is render-of-draw and models the instruction count;
it only emits records.  :func:`run_trace` hands the stream to a
:class:`~repro.memory.kernel.TimingAccountant`, which counts the hits and
misses in the tag-only L1/L2/L3 hierarchy exactly as a trace replay
does.  The per-record generator this replaced is the differential
oracle in ``tests/oracle.py``.

The generator is also the producer for the trace engine
(:mod:`repro.traces`): pass a recording ``sink`` to :func:`run_trace`
and it consumes the same record blocks the accountant does (every cache
touch, CFORM, alloc/free and the warmup boundary), from which a
replayer reproduces this run's statistics bit-identically without the
RNG or the heap.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts, PipelineModel
from repro.memory import kernel
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import (  # noqa: F401  (EV_* re-exported)
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    RecordBuffer,
    TimingAccountant,
)
from repro.softstack.ctypes_model import Struct, align_up, is_blacklist_target
from repro.softstack.insertion import (
    CaliformedLayout,
    Policy,
    apply_policy,
    fixed_full,
    opportunistic,
)
from repro.softstack.layout import layout_struct
from repro.telemetry.runtime import span as telemetry_span
from repro.workloads.specs import BenchmarkProfile
from repro.workloads.structs_corpus import HEAP_TYPE_POOL

#: Instructions of bookkeeping per CFORM instruction (address arithmetic,
#: mask construction) — Section 8.2's "calculate the number of dummy
#: stores and the address they access".
CFORM_SETUP_INSTRUCTIONS = 6

#: Fixed per-allocation-event hook cost when CFORM support is compiled in
#: (malloc interposition, type-info lookup, locating the padding bytes).
#: Calibrated against the opportunistic+CFORM average of Figure 11.
ALLOC_HOOK_INSTRUCTIONS = 55

_HEAP_BASE = 0x0100_0000
_STACK_BASE = 0x7FFF_0000
_STACK_HOT_BYTES = 2048


@dataclass(frozen=True)
class Scenario:
    """One software configuration of Figures 4/11/12.

    ``policy`` is ``None`` for the unprotected baseline, a
    :class:`Policy` for the three paper policies, or ``("fixed", n)`` for
    the Figure 4 fixed-padding sweep.  ``with_cform`` selects whether the
    allocation hooks issue CFORM work (the "CFORM" bars of Figure 11/12).
    """

    policy: Policy | tuple[str, int] | None = None
    with_cform: bool = False
    min_bytes: int = 1
    max_bytes: int = 7
    binary_seed: int = 0

    @classmethod
    def baseline(cls) -> "Scenario":
        return cls(policy=None, with_cform=False)

    def describe(self) -> str:
        if self.policy is None:
            name = "baseline"
        elif isinstance(self.policy, tuple):
            name = f"fixed-{self.policy[1]}B"
        else:
            name = f"{self.policy.value} {self.min_bytes}-{self.max_bytes}B"
        return name + (" +CFORM" if self.with_cform else "")


@dataclass(frozen=True)
class _TypeInfo:
    """Precomputed per-type facts for one scenario."""

    size: int
    carved: int
    field_offsets: tuple[int, ...]
    cform_lines: int  # lines containing security bytes
    #: Whether (de)allocations of this type run the CFORM hook at all.
    #: Opportunistic/full hook every compound type ("every compound data
    #: type will be/was califormed", Section 8.2); intelligent compiles
    #: hooks only for types that actually received spans.
    hooked: bool = False


@dataclass
class RunResult:
    """Outcome of one trace run, ready for the pipeline model."""

    benchmark: str
    scenario: Scenario
    instructions: int
    events: MemoryEventCounts
    cform_instructions: int = 0
    alloc_events: int = 0

    def cycles(self, config: HierarchyConfig, profile: BenchmarkProfile) -> float:
        model = PipelineModel(
            config, base_cpi=profile.base_cpi, overlap=profile.overlap
        )
        return model.cycles(self.instructions, self.events)


def relative_slowdown(
    profile: BenchmarkProfile,
    base: RunResult,
    variant: RunResult,
    baseline_config: HierarchyConfig = WESTMERE,
    variant_config: HierarchyConfig | None = None,
) -> float:
    """Price one figure cell, live or corpus-resolved: ``variant`` over
    ``base`` by :meth:`PipelineModel.slowdown` on ``profile``'s core."""
    model = PipelineModel(
        baseline_config, base_cpi=profile.base_cpi, overlap=profile.overlap
    )
    return model.slowdown(
        base.instructions, base.events,
        variant.instructions, variant.events, variant_config,
    )


def _layout_for(
    struct: Struct, scenario: Scenario, rng: random.Random
) -> CaliformedLayout:
    natural = layout_struct(struct)
    if scenario.policy is None:
        return opportunistic(natural)  # offsets unchanged; spans unused
    if isinstance(scenario.policy, tuple):
        return fixed_full(natural, scenario.policy[1])
    return apply_policy(
        natural, scenario.policy, rng, scenario.min_bytes, scenario.max_bytes
    )


def _security_line_count(layout: CaliformedLayout, counts: bool) -> int:
    """Lines containing at least one security byte (base assumed aligned).

    This is the paper's CFORM cost unit: one dummy store per
    to-be-califormed cache line (Section 8.2).
    """
    if not counts:
        return 0
    lines = {offset // 64 for span in layout.spans for offset in
             (span.offset, span.end - 1)}
    return len(lines)


def repr_memo(function):
    """Memoize a function of frozen records, keyed by its arguments' repr.

    Equality is too coarse a key here: ``1 == 1.0`` and ``0 == False``,
    yet a JSON dump or an f-string of them differs, and a user's spec
    file can hold either.  Their reprs differ just as the dumps do.
    """
    cache: dict[str, object] = {}

    @wraps(function)
    def memoized(*args, **kwargs):
        key = repr((args, kwargs))
        try:
            return cache[key]
        except KeyError:
            if len(cache) >= 4096:
                cache.clear()
            value = cache[key] = function(*args, **kwargs)
            return value

    memoized.cache_clear = cache.clear
    return memoized


@repr_memo
def build_type_catalog(scenario: Scenario) -> tuple[_TypeInfo, ...]:
    """Materialise the heap type pool under one scenario.

    Memoized: the catalog depends on nothing else, and it is an
    immutable tuple of frozen records.
    """
    rng = random.Random(f"catalog:{scenario.binary_seed}")
    catalog: list[_TypeInfo] = []
    for struct in HEAP_TYPE_POOL:
        protected = scenario.policy is not None
        layout = _layout_for(struct, scenario, rng)
        size = layout.size if protected else layout.base.size
        offsets = tuple(
            layout.field_offsets[member.name] if protected
            else layout.base.offset_of(member.name)
            for member in struct.fields
        )
        cform_lines = _security_line_count(layout, protected)
        hooked = protected and (
            cform_lines > 0 or scenario.policy is not Policy.INTELLIGENT
        )
        catalog.append(
            _TypeInfo(
                size=size,
                carved=align_up(size, 16),
                field_offsets=offsets,
                cform_lines=cform_lines,
                hooked=hooked,
            )
        )
    return tuple(catalog)


#: Indices into HEAP_TYPE_POOL of types containing arrays/pointers.
_PTR_ARRAY_TYPE_INDICES = [
    index
    for index, struct in enumerate(HEAP_TYPE_POOL)
    if any(is_blacklist_target(member.ctype) for member in struct.fields)
]
_PLAIN_TYPE_INDICES = [
    index
    for index in range(len(HEAP_TYPE_POOL))
    if index not in _PTR_ARRAY_TYPE_INDICES
]


@dataclass
class _FastHeap:
    """Address-only bump allocator with size-class reuse and quarantine.

    The quarantine depth trades temporal-safety window for address reuse;
    16 events keeps reuse healthy so that allocation churn exercises the
    cache ladder rather than degenerating into a cold-miss generator.
    """

    cursor: int = _HEAP_BASE
    quarantine_delay: int = 16
    _free: dict[int, deque] = field(default_factory=dict)
    _quarantine: deque = field(default_factory=deque)

    def place(self, carved: int) -> int:
        bucket = self._free.get(carved)
        if bucket:
            return bucket.popleft()
        address = self.cursor
        self.cursor += carved
        return address

    def release(self, address: int, carved: int) -> None:
        self._quarantine.append((address, carved))
        if len(self._quarantine) > self.quarantine_delay:
            old_address, old_carved = self._quarantine.popleft()
            self._free.setdefault(old_carved, deque()).append(old_address)


def counted_run(
    benchmark: str, scenario: Scenario, config: HierarchyConfig, sink, emit
) -> RunResult:
    """Count one writer's record stream; the shared tail of every writer.

    ``emit(records)`` appends the run's records to a
    :class:`~repro.memory.kernel.RecordBuffer` and returns the
    instructions it models.  The buffer's blocks go to a
    :class:`~repro.memory.kernel.TimingAccountant` — the events, CFORM
    lines and allocation events of the result — and, when ``sink`` is
    given, to the sink as well (the recorder's trace writer).  The
    kernel's instrumentation goes to the active telemetry sink, as a
    replay's does.
    """
    with telemetry_span("workloads.run_trace", benchmark=benchmark) as tspan:
        accountant = TimingAccountant(config)
        consumers = [accountant] if sink is None else [accountant, sink]
        records = RecordBuffer(*consumers)
        instructions = emit(records)
        records.flush()
        accountant.ladder.report()
        tspan.set("records", records.count)
    return RunResult(
        benchmark=benchmark,
        scenario=scenario,
        instructions=instructions,
        events=accountant.events(),
        cform_instructions=accountant.cform_lines,
        alloc_events=accountant.alloc_events,
    )


def run_trace(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    config: HierarchyConfig = WESTMERE,
    warmup_fraction: float = 1.0,
    sink=None,
    quarantine_delay: int = 16,
    script: Script | None = None,
) -> RunResult:
    """Simulate one benchmark run under one scenario.

    ``config`` affects only which geometries the tag caches use; latency
    knobs are applied later by the pipeline model, so Figure 10 can reuse
    one run's event counts under two latency configs.

    ``warmup_fraction`` x ``instructions`` of extra work runs first with
    statistics discarded, so measured numbers reflect warm caches rather
    than cold-start effects — the role SimPoint region selection plays in
    the paper's methodology (Section 8.1).

    ``sink`` is the trace-engine tap (``repro.traces``): a second
    consumer of the record blocks (see
    :class:`~repro.memory.kernel.RecordBuffer`).  It receives the same
    stream the accountant counts, so a recorded run is bit-identical to
    an unrecorded one.

    ``quarantine_delay`` sizes the allocator's deallocation quarantine
    (events held before an address becomes reusable); the default matches
    the historical built-in.

    ``script`` is :func:`draw` of this run's profile, instructions, seed
    and warmup, drawn once to share between scenarios (the live
    :func:`slowdown` memo); without one the run draws its own.
    """
    return counted_run(
        profile.name,
        scenario,
        config,
        sink,
        lambda records: emit_trace(
            records, profile, scenario, instructions, seed,
            warmup_fraction, quarantine_delay, script,
        ),
    )


#: Burst kinds of a :class:`Script`: a run of stores to the hot stack
#: region, a sequential scan of one object, random offsets into one raw
#: buffer, or random fields of one struct.
BURST_STACK, BURST_SCAN, BURST_RAW, BURST_FIELD = range(4)


@dataclass(frozen=True, eq=False)
class Script:
    """One benchmark run's draw: every choice the RNG makes, no layout.

    The same seed draws the same script under every scenario; a
    scenario only changes how :func:`render` lays it out.  Per object:
    ``types`` (an index into ``HEAP_TYPE_POOL``, -1 for a raw buffer)
    and ``raw_sizes`` (bytes, 0 for a struct).  Per burst: ``kinds``
    (``BURST_*``) and ``targets`` (the object index, or the stack
    offset).  Per touch of a raw burst, ``raw_offsets``; per touch of a
    field burst, ``fields`` (the struct's field index).  Per churn event,
    in order: ``victims`` (the object freed and reallocated) and
    ``victim_bursts`` (the burst it follows).  ``warm_burst`` is the
    burst the ``EV_WARM`` record precedes (-1 for none), and
    ``app_instructions`` the measured region's application work.
    """

    profile: BenchmarkProfile
    instructions: int
    seed: int
    warmup_fraction: float
    types: np.ndarray
    raw_sizes: np.ndarray
    kinds: np.ndarray
    targets: np.ndarray
    raw_offsets: np.ndarray
    fields: np.ndarray
    victims: np.ndarray
    victim_bursts: np.ndarray
    warm_burst: int
    app_instructions: float


def draw(
    profile: BenchmarkProfile,
    instructions: int = 200_000,
    seed: int = 0,
    warmup_fraction: float = 1.0,
) -> Script:
    """Draw one benchmark run's :class:`Script`: the only RNG loop.

    The live set targets ``heap_kb`` at *baseline* sizes, so every
    scenario simulates the same logical objects; protected layouts then
    inflate the same population.  Application instructions are the
    *fixed logical workload*: every scenario executes the same bursts
    and allocation events, and CFORM and hook work ride on top as
    overhead instructions (see :func:`render`), so slowdowns measure
    extra work rather than displaced work.
    """
    with telemetry_span(
        "workloads.draw", benchmark=profile.name, instructions=instructions
    ) as tspan:
        script = _draw(profile, instructions, seed, warmup_fraction)
        tspan.set("bursts", len(script.kinds))
    return script


def script_for(
    runs: dict,
    profile: BenchmarkProfile,
    instructions: int,
    seed: int = 0,
    warmup_fraction: float = 1.0,
) -> Script:
    """The run memo's :class:`Script` for these inputs, drawn on first use.

    ``runs`` is one run's memo (a plain dict; a
    :class:`~repro.experiments.context.RunContext` holds one per process):
    scripts under ``(profile, instructions, seed, warmup_fraction)``, next
    to the live :func:`slowdown`'s results under ``(profile, scenario,
    instructions, seed)``.  Every live run and every corpus build of one
    benchmark shares the one draw.
    """
    key = (profile, instructions, seed, warmup_fraction)
    if key not in runs:
        runs[key] = draw(profile, instructions, seed, warmup_fraction)
    return runs[key]


def _draw(profile, instructions, seed, warmup_fraction) -> Script:
    rng = random.Random(f"{profile.name}:{seed}")
    r = rng.random
    randrange = rng.randrange
    baseline_carved = [
        info.carved for info in build_type_catalog(Scenario.baseline())
    ]

    # -- heap population ------------------------------------------------------
    types = array("h")
    raw_sizes = array("i")
    baseline_bytes = 0
    target_bytes = profile.heap_kb * 1024
    while baseline_bytes < target_bytes:
        if r() < profile.struct_fraction:
            pool = (
                _PTR_ARRAY_TYPE_INDICES
                if r() < profile.ptr_array_fraction
                else _PLAIN_TYPE_INDICES
            )
            type_index = pool[randrange(len(pool))]
            types.append(type_index)
            raw_sizes.append(0)
            baseline_bytes += baseline_carved[type_index]
        else:
            raw = max(int(profile.raw_buffer_bytes * (0.5 + r())), 16)
            types.append(-1)
            raw_sizes.append(raw)
            baseline_bytes += align_up(raw, 16)

    # -- bursts and churn -------------------------------------------------------
    object_count = len(types)
    skew_exponent = 1.0 / profile.locality_skew
    field_counts = [len(struct.fields) for struct in HEAP_TYPE_POOL]
    burst_length = profile.burst_length
    touches = range(burst_length)
    burst_instructions = burst_length / profile.mem_ratio
    allocs_per_burst = profile.allocs_per_kinst * burst_instructions / 1000.0
    kinds = array("b")
    targets = array("i")
    raw_offsets = array("i")
    fields = array("B")
    victims = array("i")
    victim_bursts = array("i")
    app_instructions = 0.0
    alloc_accumulator = 0.0
    warmup_budget = instructions * warmup_fraction
    total_budget = warmup_budget + instructions
    warm = warmup_fraction == 0.0
    warm_burst = -1
    burst = 0
    while app_instructions < total_budget:
        if not warm and app_instructions >= warmup_budget:
            # Warmup ends: keep cache contents, discard all statistics.
            warm = True
            warm_burst = burst
            app_instructions -= warmup_budget
            total_budget -= warmup_budget
        app_instructions += burst_instructions

        if r() < profile.stack_fraction:
            kinds.append(BURST_STACK)
            targets.append(int(r() * _STACK_HOT_BYTES))
        else:
            index = min(int(object_count * r() ** skew_exponent),
                        object_count - 1)
            targets.append(index)
            type_index = types[index]
            if r() < profile.scan_fraction:
                kinds.append(BURST_SCAN)
            elif type_index < 0:
                kinds.append(BURST_RAW)
                span = max(raw_sizes[index] - 8, 1)
                raw_offsets.extend([int(r() * span) for _ in touches])
            else:
                kinds.append(BURST_FIELD)
                count = field_counts[type_index]
                fields.extend([randrange(count) for _ in touches])

        # Allocation/free churn at the profile's rate.
        alloc_accumulator += allocs_per_burst
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            victims.append(randrange(object_count))
            victim_bursts.append(burst)
        burst += 1

    return Script(
        profile=profile,
        instructions=instructions,
        seed=seed,
        warmup_fraction=warmup_fraction,
        types=np.frombuffer(types, dtype=np.int16),
        raw_sizes=np.frombuffer(raw_sizes, dtype=np.int32),
        kinds=np.frombuffer(kinds, dtype=np.int8),
        targets=np.frombuffer(targets, dtype=np.int32),
        raw_offsets=np.frombuffer(raw_offsets, dtype=np.int32),
        fields=np.frombuffer(fields, dtype=np.uint8),
        victims=np.frombuffer(victims, dtype=np.int32),
        victim_bursts=np.frombuffer(victim_bursts, dtype=np.int32),
        warm_burst=warm_burst,
        app_instructions=app_instructions,
    )


def render(script: Script, scenario: Scenario, quarantine_delay: int = 16):
    """Lay one :class:`Script` out under one scenario.

    Returns ``(instructions, blocks)``: the instructions the run models,
    and an iterator of record blocks ``(kinds, addresses, args, ends)``
    in stream order.  The pre-warm sweep comes first, in blocks of
    :data:`~repro.memory.kernel.SWEEP_BLOCK` records with ``ends``
    ``None``; the bursts follow in blocks of whole bursts,
    about :data:`~repro.memory.kernel.TOUCH_BLOCK` records each, with
    ``ends`` the block positions where each burst (its touches, then its
    churn) ends.  Only the allocator runs one churn event at a time;
    every other address comes from the population layout and the
    relocations before it.
    """
    catalog = build_type_catalog(scenario)
    types = script.types.astype(np.intp)
    raw_sizes = script.raw_sizes.astype(np.int64)
    struct = types >= 0
    type_carved = np.array([info.carved for info in catalog], dtype=np.int64)
    type_size = np.array([info.size for info in catalog], dtype=np.int64)
    carved = np.where(struct, type_carved[types], (raw_sizes + 15) & ~15)
    sizes = np.where(struct, type_size[types], raw_sizes)
    # The population is laid out by the bump allocator, in draw order.
    homes = _HEAP_BASE + np.cumsum(carved) - carved

    # -- churn: the allocator, over the victims only -------------------------
    heap = _FastHeap(
        cursor=_HEAP_BASE + int(carved.sum()), quarantine_delay=quarantine_delay
    )
    victims = script.victims.astype(np.intp)
    victim_carved = carved[victims]
    moved: dict[int, int] = {}
    old_addresses = []
    new_addresses = []
    for victim, home, size in zip(
        script.victims.tolist(), homes[victims].tolist(), victim_carved.tolist()
    ):
        address = moved.get(victim, home)
        old_addresses.append(address)
        heap.release(address, size)
        moved[victim] = heap.place(size)
        new_addresses.append(moved[victim])
    old_addresses = np.array(old_addresses, dtype=np.int64)
    new_addresses = np.array(new_addresses, dtype=np.int64)
    victim_types = types[victims]
    type_lines = np.array([info.cform_lines for info in catalog], dtype=np.int64)
    type_hooked = np.array([info.hooked for info in catalog], dtype=bool)
    hooked = (victim_types >= 0) & type_hooked[victim_types] & scenario.with_cform
    lines = np.where(hooked, type_lines[victim_types], 0)

    # CFORM and hook work counts from the warm boundary on: per hooked
    # event, the hook plus one CFORM walk on each side.
    measured = script.victim_bursts >= max(script.warm_burst, 0)
    overhead = int(
        (hooked & measured).sum() * ALLOC_HOOK_INSTRUCTIONS
        + 2 * lines[measured].sum() * (1 + CFORM_SETUP_INSTRUCTIONS)
    )

    # Each event's records, [CFORM] FREE ALLOC [CFORM], in event order.
    always = np.ones_like(hooked)
    present = np.stack([hooked, always, always, hooked], 1)
    churn = (
        np.tile(np.array([EV_CFORM, EV_FREE, EV_ALLOC, EV_CFORM], np.uint8),
                (len(victims), 1))[present],
        np.stack([old_addresses, old_addresses, new_addresses, new_addresses],
                 1)[present],
        np.stack([lines, victim_carved, victim_carved, lines], 1)[present],
        np.repeat(script.victim_bursts, present.sum(axis=1)),
    )
    blocks = chain(
        _sweep_blocks(homes, sizes),
        _burst_blocks(script, catalog, types, sizes, homes, new_addresses, churn),
    )
    return int(script.app_instructions + overhead), blocks


def _sweep_blocks(homes, sizes):
    """Pre-warm: touch every line of every live object once, so measured
    misses reflect capacity and conflict behaviour rather than
    first-touch cold misses (which the paper's 500M-instruction SimPoint
    windows amortise away, but a short trace would not)."""
    lines = (np.maximum(sizes, 1) + 63) // 64
    line_ends = np.cumsum(lines)
    line_starts = line_ends - lines
    total = int(line_ends[-1])
    for start in range(0, total, kernel.SWEEP_BLOCK):
        line = np.arange(start, min(start + kernel.SWEEP_BLOCK, total))
        owner = np.searchsorted(line_ends, line, side="right")
        yield (
            np.full(len(line), EV_LOAD, dtype=np.uint8),
            homes[owner] + (line - line_starts[owner]) * 64,
            np.full(len(line), 8, dtype=np.int64),
            None,
        )


def _burst_blocks(script, catalog, types, sizes, homes, new_addresses, churn):
    """The bursts of :func:`render`, in blocks of whole bursts."""
    churn_kinds, churn_addresses, churn_args, churn_bursts = churn
    burst_count = len(script.kinds)
    burst_length = script.profile.burst_length
    steps = np.arange(burst_length, dtype=np.int64)
    targets = script.targets.astype(np.int64)

    # Where an object lives during a burst: its home, or where its last
    # relocation in an earlier burst put it (a burst's own churn follows
    # its touches).  Relocations sort by (object, burst).
    relocation_keys = (
        script.victims.astype(np.int64) * (burst_count + 1)
        + script.victim_bursts
    )
    order = np.argsort(relocation_keys, kind="stable")
    relocation_keys = relocation_keys[order]
    relocation_objects = script.victims[order]
    relocation_addresses = new_addresses[order]

    # The scenario's offset of every (type, field) pair.
    field_offsets = np.zeros(
        (len(catalog), max(len(info.field_offsets) for info in catalog)),
        dtype=np.int64,
    )
    for index, info in enumerate(catalog):
        field_offsets[index, : len(info.field_offsets)] = info.field_offsets

    per_burst = burst_length + np.bincount(churn_bursts, minlength=burst_count)
    if script.warm_burst >= 0:
        per_burst[script.warm_burst] += 1
    burst_ends = np.cumsum(per_burst)
    raw_cursor = field_cursor = 0
    first = 0
    while first < burst_count:
        base = int(burst_ends[first - 1]) if first else 0
        stop = min(
            int(np.searchsorted(burst_ends, base + kernel.TOUCH_BLOCK)) + 1,
            burst_count,
        )
        kinds = script.kinds[first:stop]

        # Touches: one row of burst_length addresses per burst.
        touches = np.empty((stop - first, burst_length), dtype=np.int64)
        stack = kinds == BURST_STACK
        touches[stack] = _STACK_BASE + targets[first:stop][stack, None] + steps * 8
        heap = ~stack
        objects = targets[first:stop][heap]
        addresses = homes[objects]
        if len(relocation_keys):
            keys = objects * (burst_count + 1) + np.arange(first, stop)[heap]
            last = np.searchsorted(relocation_keys, keys, side="left") - 1
            relocated = last >= 0
            last[~relocated] = 0
            relocated &= relocation_objects[last] == objects
            addresses = np.where(relocated, relocation_addresses[last], addresses)
        offsets = np.empty((len(objects), burst_length), dtype=np.int64)
        heap_kinds = kinds[heap]
        scan = heap_kinds == BURST_SCAN
        offsets[scan] = steps * 8 % np.maximum(sizes[objects[scan]], 8)[:, None]
        raw = heap_kinds == BURST_RAW
        count = int(raw.sum()) * burst_length
        offsets[raw] = script.raw_offsets[
            raw_cursor : raw_cursor + count
        ].reshape(-1, burst_length)
        raw_cursor += count
        field = heap_kinds == BURST_FIELD
        count = int(field.sum()) * burst_length
        offsets[field] = field_offsets[
            types[objects[field]][:, None],
            script.fields[field_cursor : field_cursor + count].reshape(
                -1, burst_length
            ),
        ]
        field_cursor += count
        touches[heap] = addresses[:, None] + offsets

        # Records, burst by burst: [WARM], the touches, then the churn,
        # which fills every position the first two leave.
        ends = burst_ends[first:stop] - base
        starts = ends - per_burst[first:stop]
        size = int(ends[-1])
        record_kinds = np.empty(size, dtype=np.uint8)
        record_addresses = np.empty(size, dtype=np.int64)
        record_args = np.empty(size, dtype=np.int64)
        churn_slots = np.ones(size, dtype=bool)
        if first <= script.warm_burst < stop:
            warm_at = int(starts[script.warm_burst - first])
            record_kinds[warm_at] = EV_WARM
            record_addresses[warm_at] = record_args[warm_at] = 0
            churn_slots[warm_at] = False
            starts[script.warm_burst - first] += 1
        positions = (starts[:, None] + steps).ravel()
        record_kinds[positions] = np.where(stack, EV_STORE, EV_LOAD).repeat(
            burst_length
        )
        record_addresses[positions] = touches.ravel()
        record_args[positions] = 8
        churn_slots[positions] = False
        low, high = np.searchsorted(churn_bursts, (first, stop))
        positions = np.flatnonzero(churn_slots)
        record_kinds[positions] = churn_kinds[low:high]
        record_addresses[positions] = churn_addresses[low:high]
        record_args[positions] = churn_args[low:high]
        yield record_kinds, record_addresses, record_args, ends
        first = stop


def emit_trace(
    records: RecordBuffer,
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    warmup_fraction: float = 1.0,
    quarantine_delay: int = 16,
    script: Script | None = None,
) -> int:
    """Emit one benchmark run's record stream; return its instructions.

    :func:`render` of :func:`draw`: the emit-only body of
    :func:`run_trace` (the loadgen composer captures tenant streams with
    it).  Records go to ``records`` block by block and nothing is
    counted here but the instructions the run models.  ``script`` is a
    :func:`draw` of the same inputs drawn earlier, to share between
    scenarios; without one the run draws its own.
    """
    shared = script is not None
    if shared and (
        script.profile, script.instructions, script.seed,
        script.warmup_fraction,
    ) != (profile, instructions, seed, warmup_fraction):
        raise ValueError("script was drawn for a different run")
    with telemetry_span(
        "workloads.synthesize",
        benchmark=profile.name,
        scenario=scenario.describe(),
        shared=shared,
    ) as tspan:
        if script is None:
            script = draw(profile, instructions, seed, warmup_fraction)
        start = records.count
        total, blocks = render(script, scenario, quarantine_delay)
        for kinds, addresses, args, ends in blocks:
            records.extend(kinds, addresses, args, ends)
        tspan.set("records", records.count - start)
    return total


def slowdown(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    baseline_config: HierarchyConfig = WESTMERE,
    variant_config: HierarchyConfig | None = None,
    runs: dict | None = None,
) -> float:
    """Relative slowdown of ``scenario`` over the unprotected baseline.

    0.03 means 3 % slower.  ``variant_config`` lets Figure 10 charge the
    variant different latencies for the *same* scenario.

    ``runs`` memoises the cell's two :class:`RunResult` objects, keyed by
    ``(profile, scenario, instructions, seed)`` — every :func:`run_trace`
    input that varies here — and the benchmark's :class:`Script` (see
    :func:`script_for`).  Pass one dict to every cell of a run and each
    benchmark's workload is drawn once and its baseline simulated once,
    not once per configuration.  Without one, a cell whose variant *is*
    the baseline (Figure 10) still simulates it only once.
    """
    runs = {} if runs is None else runs

    def run(case: Scenario) -> RunResult:
        key = (profile, case, instructions, seed)
        if key not in runs:
            runs[key] = run_trace(
                profile, case, instructions, seed,
                script=script_for(runs, profile, instructions, seed),
            )
        return runs[key]

    return relative_slowdown(
        profile, run(Scenario.baseline()), run(scenario),
        baseline_config, variant_config,
    )

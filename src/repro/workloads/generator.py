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

The generator only emits records (:func:`emit_trace`) and models its
instruction count.  :func:`run_trace` hands the stream to a
:class:`~repro.memory.kernel.TimingAccountant`, which counts the hits and
misses in the tag-only L1/L2/L3 hierarchy exactly as a trace replay
does.  The same seed produces the *same logical event stream* across
scenarios, so two runs differ only through layout inflation and CFORM
work — the two effects the paper decomposes in Figure 11.

The generator is also the producer for the trace engine
(:mod:`repro.traces`): pass a recording ``sink`` to :func:`run_trace`
and it consumes the same record blocks the accountant does (every cache
touch, CFORM, alloc/free and the warmup boundary), from which a
replayer reproduces this run's statistics bit-identically without the
RNG or the heap.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.cpu.pipeline import MemoryEventCounts, PipelineModel
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


def build_type_catalog(scenario: Scenario) -> list[_TypeInfo]:
    """Materialise the heap type pool under one scenario."""
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
    return catalog


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
    given, to the sink as well (the recorder's trace writer).
    """
    accountant = TimingAccountant(config)
    consumers = [accountant] if sink is None else [accountant, sink]
    records = RecordBuffer(*consumers)
    instructions = emit(records)
    records.flush()
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
    """
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

    The emit-only body of :func:`run_trace` (the loadgen composer
    captures tenant streams with it): records go to ``records`` and
    nothing is counted here but the instructions the run models.
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
    heap = _FastHeap(quarantine_delay=quarantine_delay)
    objects: list[tuple[int, int, int]] = []  # (address, type_index, raw_size)
    baseline_bytes = 0
    target_bytes = profile.heap_kb * 1024
    while baseline_bytes < target_bytes:
        if rng.random() < profile.struct_fraction:
            pool = (
                _PTR_ARRAY_TYPE_INDICES
                if rng.random() < profile.ptr_array_fraction
                else _PLAIN_TYPE_INDICES
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
            base = _STACK_BASE + int(rng.random() * _STACK_HOT_BYTES)
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


def slowdown(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    baseline_config: HierarchyConfig = WESTMERE,
    variant_config: HierarchyConfig | None = None,
) -> float:
    """Relative slowdown of ``scenario`` over the unprotected baseline.

    0.03 means 3 % slower.  ``variant_config`` lets Figure 10 charge the
    variant different latencies for the *same* scenario.
    """
    base = run_trace(profile, Scenario.baseline(), instructions, seed)
    variant = run_trace(profile, scenario, instructions, seed)
    return relative_slowdown(
        profile, base, variant, baseline_config, variant_config
    )

"""Synthetic trace generation and fast cache-timing runs.

This is the engine behind every timing figure (4, 10, 11, 12).  For one
benchmark profile and one *scenario* (insertion policy + whether CFORM
instructions are issued) it synthesises the benchmark's memory behaviour
and counts its hits and misses in the tag-only L1/L2/L3 hierarchy (the
touches reach :class:`repro.memory.kernel.TouchBuffer` in blocks):

1. a heap population is built from the profile's object mix (structs from
   the corpus pool and raw buffers), laid out by a bump/free-list
   allocator with quarantine — under a padding policy the same logical
   objects simply occupy more bytes, which is the entire mechanism behind
   the paper's "ineffective cache usage" slowdowns;
2. a seeded access stream walks the objects (zipf-style locality, scans
   vs. pointer-ish random field accesses, a hot stack region);
3. allocation/free events occur at the profile's rate; when the scenario
   says so, each event issues the CFORM work for its object (one
   store-like access per to-be-califormed line plus setup instructions —
   the same emulation the paper uses with dummy stores, Section 8.2).

The same seed produces the *same logical event stream* across scenarios,
so two runs differ only through layout inflation and CFORM work — the two
effects the paper decomposes in Figure 11.

The generator is also the producer for the trace engine
(:mod:`repro.traces`): pass a recording ``sink`` to :func:`run_trace`
and the exact event stream (every cache touch, CFORM, alloc/free and
the warmup boundary) is emitted as ``EV_*`` records, from which a
replayer reproduces this run's statistics bit-identically without the
RNG or the heap.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.cpu.pipeline import MemoryEventCounts, PipelineModel
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import TouchBuffer
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

# -- recorded event stream ---------------------------------------------------
#
# The generator is the producer of the trace-engine event stream
# (``repro.traces``), so the event kinds are defined here and re-exported
# by ``repro.traces.format``.  One LOAD/STORE event per cache touch; one
# CFORM event per (de)allocation-side califorming (it expands to
# ``lines`` line touches at replay); ALLOC/FREE carry no touches; WARM
# marks the end-of-warmup counter reset; EPOCH markers are inserted by
# the recording sink between bursts and delimit shard boundaries.
EV_LOAD = 0
EV_STORE = 1
EV_ALLOC = 2
EV_FREE = 3
EV_CFORM = 4
EV_WARM = 5
EV_EPOCH = 6

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

    ``sink`` is the trace-engine tap (``repro.traces``): an object with
    ``append(kind, address, arg)`` and ``burst()`` methods receiving the
    ``EV_*`` event stream.  When ``None`` (the default) the un-instrumented
    touch functions are used and the run costs nothing extra.  The sink
    must not consume ``rng`` — the recorded run must be bit-identical to
    an unrecorded one.

    ``quarantine_delay`` sizes the allocator's deallocation quarantine
    (events held before an address becomes reusable); the default matches
    the historical built-in.
    """
    rng = random.Random(f"{profile.name}:{seed}")
    catalog = build_type_catalog(scenario)
    baseline_catalog = (
        catalog
        if scenario.policy is None
        else build_type_catalog(Scenario.baseline())
    )

    ladder = TouchBuffer(config)
    touch = ladder.touch
    burst_end = ladder.burst_end

    # Recording wrappers: when no sink is attached these *are* ``touch``,
    # so the hot loops pay nothing; with a sink each touch first appends
    # its event so a replayer can reproduce the exact access sequence.
    if sink is None:
        record = None
        touch_load = touch_store = touch
    else:
        record = sink.append

        def touch_load(address: int) -> None:
            record(EV_LOAD, address, 8)
            touch(address)

        def touch_store(address: int) -> None:
            record(EV_STORE, address, 8)
            touch(address)

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
    # SimPoint windows amortise away, but a short trace would not).  Each
    # object ends a burst, so a multi-MB heap's sweep reaches the kernel
    # in bounded blocks rather than as one large one (peak memory).
    for address, type_index, raw_size in objects:
        size = raw_size if type_index < 0 else catalog[type_index].size
        for line_offset in range(0, max(size, 1), 64):
            touch_load(address + line_offset)
        burst_end()

    object_count = len(objects)
    skew_exponent = 1.0 / profile.locality_skew

    # Application instructions are the *fixed logical workload*: every
    # scenario executes the same bursts and allocation events.  CFORM and
    # hook work rides on top as overhead instructions, so slowdowns
    # measure extra work rather than displaced work.
    app_instructions = 0.0
    overhead_instructions = 0.0
    cform_instructions = 0
    alloc_events = 0
    alloc_accumulator = 0.0
    burst_instructions = profile.burst_length / profile.mem_ratio

    def cform_object(address: int, lines: int) -> None:
        """Issue the CFORM work for one (de)allocation of an object."""
        nonlocal cform_instructions, overhead_instructions
        if record is not None:
            record(EV_CFORM, address, lines)
        for line_index in range(lines):
            touch(address + line_index * 64)
        cform_instructions += lines
        overhead_instructions += lines * (1 + CFORM_SETUP_INSTRUCTIONS)

    warmup_budget = instructions * warmup_fraction
    total_budget = warmup_budget + instructions
    warm = warmup_fraction == 0.0

    # -- main loop --------------------------------------------------------------
    while app_instructions < total_budget:
        if not warm and app_instructions >= warmup_budget:
            # Warmup ends: keep cache contents, discard all statistics.
            warm = True
            ladder.reset_counters()
            app_instructions -= warmup_budget
            total_budget -= warmup_budget
            overhead_instructions = 0.0
            cform_instructions = 0
            alloc_events = 0
            if record is not None:
                record(EV_WARM, 0, 0)
        app_instructions += burst_instructions

        target = rng.random()
        if target < profile.stack_fraction:
            base = _STACK_BASE + int(rng.random() * _STACK_HOT_BYTES)
            for access in range(profile.burst_length):
                touch_store(base + access * 8)
        else:
            index = int(object_count * rng.random() ** skew_exponent)
            address, type_index, raw_size = objects[
                min(index, object_count - 1)
            ]
            if rng.random() < profile.scan_fraction:
                size = (
                    raw_size if type_index < 0 else catalog[type_index].size
                )
                for access in range(profile.burst_length):
                    touch_load(address + (access * 8) % max(size, 8))
            else:
                if type_index < 0:
                    span = max(raw_size - 8, 1)
                    for access in range(profile.burst_length):
                        touch_load(address + int(rng.random() * span))
                else:
                    offsets = catalog[type_index].field_offsets
                    for access in range(profile.burst_length):
                        touch_load(address + offsets[rng.randrange(len(offsets))])

        # Allocation/free churn at the profile's rate.
        alloc_accumulator += profile.allocs_per_kinst * burst_instructions / 1000.0
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            alloc_events += 1
            victim = rng.randrange(object_count)
            address, type_index, raw_size = objects[victim]
            if type_index < 0:
                carved = align_up(raw_size, 16)
                heap.release(address, carved)
                new_address = heap.place(carved)
                if record is not None:
                    record(EV_FREE, address, carved)
                    record(EV_ALLOC, new_address, carved)
                objects[victim] = (new_address, -1, raw_size)
                continue
            info = catalog[type_index]
            run_hook = scenario.with_cform and info.hooked
            if run_hook:
                overhead_instructions += ALLOC_HOOK_INSTRUCTIONS
                cform_object(address, info.cform_lines)  # free side
            if record is not None:
                record(EV_FREE, address, info.carved)
            heap.release(address, info.carved)
            new_address = heap.place(info.carved)
            if record is not None:
                record(EV_ALLOC, new_address, info.carved)
            if run_hook:
                cform_object(new_address, info.cform_lines)  # alloc side
            objects[victim] = (new_address, type_index, 0)

        burst_end()
        if sink is not None:
            sink.burst()

    return RunResult(
        benchmark=profile.name,
        scenario=scenario,
        instructions=int(app_instructions + overhead_instructions),
        events=ladder.events(),
        cform_instructions=cform_instructions,
        alloc_events=alloc_events,
    )


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
    base_cycles = base.cycles(baseline_config, profile)
    variant_cycles = variant.cycles(variant_config or baseline_config, profile)
    return variant_cycles / base_cycles - 1.0

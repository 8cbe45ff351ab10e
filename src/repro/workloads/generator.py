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
from functools import cached_property, wraps
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

    @cached_property
    def relocations(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bursts, events)``: every heap burst whose object the churn
        of an earlier burst moved, ascending, and the churn event (an
        index into ``victims``) that moved it last.  A burst's own churn
        follows its touches, so it does not count.  It depends on the
        draw alone, so every scenario's :func:`render` shares it."""
        heap = np.flatnonzero(self.kinds != BURST_STACK)
        victim = np.zeros(len(self.types), dtype=bool)
        victim[self.victims] = True
        bursts = heap[victim[self.targets[heap]]]
        objects = self.targets[bursts].astype(np.int64)
        # Churn events sort by (object, burst); a burst's last earlier
        # event is the last one below its own key.
        span = len(self.kinds) + 1
        keys = self.victims.astype(np.int64) * span + self.victim_bursts
        order = np.argsort(keys, kind="stable")
        last = np.searchsorted(keys[order], objects * span + bursts) - 1
        events = order[np.maximum(last, 0)]
        moved = (last >= 0) & (self.victims[events] == objects)
        # Kept as long as the script is: int32, like the draw's columns.
        return (
            bursts[moved].astype(np.int32), events[moved].astype(np.int32)
        )


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
    # ``randrange(n)`` is inlined as CPython's own rejection loop:
    # ``getrandbits(n.bit_length())`` until the value is below ``n``.  It
    # consumes the same words, so the script is the one randrange draws.
    rng = random.Random(f"{profile.name}:{seed}")
    r = rng.random
    getrandbits = rng.getrandbits
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
            size = len(pool)
            pick = getrandbits(size.bit_length())
            while pick >= size:
                pick = getrandbits(size.bit_length())
            type_index = pool[pick]
            types.append(type_index)
            raw_sizes.append(0)
            baseline_bytes += baseline_carved[type_index]
        else:
            raw = max(int(profile.raw_buffer_bytes * (0.5 + r())), 16)
            types.append(-1)
            raw_sizes.append(raw)
            baseline_bytes += (raw + 15) & ~15

    # -- bursts and churn -------------------------------------------------------
    object_count = len(types)
    skew_exponent = 1.0 / profile.locality_skew
    field_counts = [len(struct.fields) for struct in HEAP_TYPE_POOL]
    object_bits = object_count.bit_length()
    burst_length = profile.burst_length
    touches = range(burst_length)
    # A raw burst's ``burst_length`` calls of ``random()`` consume two
    # Mersenne Twister words each; one ``getrandbits`` takes them all.
    # CPython fills a wide ``getrandbits`` least-significant word first,
    # so its little-endian bytes hold the words in the order the calls
    # would have drawn them (``test_draw_matches_the_randrange_reference``
    # pins this).  They become offsets after the loop.
    raw_bits = 64 * burst_length
    raw_bytes = 8 * burst_length
    raw_words = bytearray()
    burst_instructions = burst_length / profile.mem_ratio
    allocs_per_burst = profile.allocs_per_kinst * burst_instructions / 1000.0
    kinds = array("b")
    targets = array("i")
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
            index = int(object_count * r() ** skew_exponent)
            if index == object_count:  # the product rounded up
                index -= 1
            targets.append(index)
            type_index = types[index]
            if r() < profile.scan_fraction:
                kinds.append(BURST_SCAN)
            elif type_index < 0:
                kinds.append(BURST_RAW)
                raw_words += getrandbits(raw_bits).to_bytes(raw_bytes, "little")
            else:
                kinds.append(BURST_FIELD)
                count = field_counts[type_index]
                bits = count.bit_length()
                for _ in touches:
                    field = getrandbits(bits)
                    while field >= count:
                        field = getrandbits(bits)
                    fields.append(field)

        # Allocation/free churn at the profile's rate.
        alloc_accumulator += allocs_per_burst
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            victim = getrandbits(object_bits)
            while victim >= object_count:
                victim = getrandbits(object_bits)
            victims.append(victim)
            victim_bursts.append(burst)
        burst += 1

    kinds = np.frombuffer(kinds, dtype=np.int8)
    targets = np.frombuffer(targets, dtype=np.int32)
    raw_sizes = np.frombuffer(raw_sizes, dtype=np.int32)
    return Script(
        profile=profile,
        instructions=instructions,
        seed=seed,
        warmup_fraction=warmup_fraction,
        types=np.frombuffer(types, dtype=np.int16),
        raw_sizes=raw_sizes,
        kinds=kinds,
        targets=targets,
        raw_offsets=_raw_offsets(
            raw_words, raw_sizes[targets[kinds == BURST_RAW]], burst_length
        ),
        fields=np.frombuffer(fields, dtype=np.uint8),
        victims=np.frombuffer(victims, dtype=np.int32),
        victim_bursts=np.frombuffer(victim_bursts, dtype=np.int32),
        warm_burst=warm_burst,
        app_instructions=app_instructions,
    )


def _raw_offsets(words: bytearray, sizes, burst_length: int):
    """The raw bursts' touch offsets, ``int(random() * (size - 8))`` per
    touch, from the Mersenne Twister words the bursts took in order.

    ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` of its
    word pair: the 53-bit integer and its scaling are exact in float64,
    and the product with the span rounds as Python's float product
    does, so each offset equals the scalar one.  The conversion runs in
    place in ``words``.
    """
    pairs = np.frombuffer(words, dtype="<u8")
    high = pairs & 0xFFFFFFE0  # w0 with its low 5 bits cleared
    high <<= 21
    pairs >>= 38  # w1 >> 6
    pairs |= high
    del high
    values = pairs.view(np.float64)
    np.multiply(pairs, 2.0**-53, out=values)
    values.shape = (sizes.size, burst_length)
    values *= (sizes - 8)[:, None]
    return values.astype(np.int32).ravel()


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
    relocations before it.  Which churn event last moved a burst's
    object depends on the draw alone, so it is resolved once per
    script (:attr:`Script.relocations`); a render places only the
    moved addresses.
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
    # Sweep line ``i`` of an object lies at its base plus ``i·64``.
    bases = homes - line_starts * 64
    total = int(line_ends[-1])
    first = 0
    for start in range(0, total, kernel.SWEEP_BLOCK):
        stop = min(start + kernel.SWEEP_BLOCK, total)
        # The objects this block's lines belong to: ``first`` (which may
        # have begun in the block before) up to the owner of its last.
        end = int(np.searchsorted(line_ends, stop - 1, side="right")) + 1
        counts = np.minimum(line_ends[first:end], stop) - np.maximum(
            line_starts[first:end], start
        )
        yield (
            np.full(stop - start, EV_LOAD, dtype=np.uint8),
            np.repeat(bases[first:end], counts)
            + np.arange(start * 64, stop * 64, 64),
            np.full(stop - start, 8, dtype=np.int64),
            None,
        )
        first = end - 1


def _burst_blocks(script, catalog, types, sizes, homes, new_addresses, churn):
    """The bursts of :func:`render`, in blocks of whole bursts.

    A block's touches are one ``(bursts, burst_length)`` offset array,
    each row its burst's base added by broadcast: the stack offset, or
    its object's home or the address :attr:`Script.relocations` says an
    earlier churn event moved it to.  The records around the touches
    (each burst's churn, and the warm record before its burst's
    touches) take the slots one mask leaves free.
    """
    churn_kinds, churn_addresses, churn_args, churn_bursts = churn
    burst_count = len(script.kinds)
    burst_length = script.profile.burst_length
    steps = np.arange(0, 8 * burst_length, 8, dtype=np.int64)
    moved_bursts, moved_events = script.relocations

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
        targets = script.targets[first:stop]

        # Touches: each burst's offsets from its base, then the bases.
        touches = np.empty((stop - first, burst_length), dtype=np.int64)
        touches[:] = steps
        # A scan wraps only in an object shorter than its burst.
        rows = np.flatnonzero(kinds == BURST_SCAN)
        spans = np.maximum(sizes[targets[rows]], 8)
        wraps = spans <= steps[-1]
        touches[rows[wraps]] %= spans[wraps, None]
        rows = np.flatnonzero(kinds == BURST_RAW)
        count = rows.size * burst_length
        touches[rows] = script.raw_offsets[
            raw_cursor : raw_cursor + count
        ].reshape(-1, burst_length)
        raw_cursor += count
        rows = np.flatnonzero(kinds == BURST_FIELD)
        count = rows.size * burst_length
        touches[rows] = field_offsets[
            types[targets[rows]][:, None],
            script.fields[field_cursor : field_cursor + count].reshape(
                -1, burst_length
            ),
        ]
        field_cursor += count
        stack = kinds == BURST_STACK
        bases = targets + np.int64(_STACK_BASE)
        heap = ~stack
        bases[heap] = homes[targets[heap]]
        low, high = np.searchsorted(moved_bursts, (first, stop))
        bases[moved_bursts[low:high] - first] = new_addresses[
            moved_events[low:high]
        ]
        touches += bases[:, None]

        # Records, burst by burst: [WARM], the touches, then the churn.
        # The block's churn record j, of burst b, follows the touches of
        # the bursts up to b, the j churn records before it and the warm
        # record, if that comes first.
        low, high = np.searchsorted(churn_bursts, (first, stop))
        churn_at = churn_bursts[low:high] - first
        others = burst_length * (churn_at + 1) + np.arange(high - low)
        ends = burst_ends[first:stop] - base
        size = int(ends[-1])
        touch = np.ones(size, dtype=bool)
        record_kinds = np.empty(size, dtype=np.uint8)
        record_addresses = np.empty(size, dtype=np.int64)
        record_args = np.full(size, 8, dtype=np.int64)
        if first <= script.warm_burst < stop:
            warm = script.warm_burst - first
            before = int(np.searchsorted(churn_at, warm))
            others[before:] += 1
            warm_at = burst_length * warm + before
            touch[warm_at] = False
            record_kinds[warm_at] = EV_WARM
            record_addresses[warm_at] = record_args[warm_at] = 0
        touch[others] = False
        record_kinds[touch] = np.where(
            stack, np.uint8(EV_STORE), np.uint8(EV_LOAD)
        ).repeat(burst_length)
        record_kinds[others] = churn_kinds[low:high]
        record_addresses[touch] = touches.ravel()
        record_addresses[others] = churn_addresses[low:high]
        record_args[others] = churn_args[low:high]
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

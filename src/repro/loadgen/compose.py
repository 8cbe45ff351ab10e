"""Open-loop composer: N independent tenant streams, one trace.

The composer turns a :class:`~repro.loadgen.schema.LoadScenario` into a
single interleaved event stream with the exact contract of
:func:`repro.workloads.generator.run_trace`, so composed traffic records
through the standard recorder and flows into the corpus store, the
replayers and the multi-core engine unchanged:

1. tenants are apportioned over the mix weights (largest remainder, so
   a ``0.55/0.25/0.20`` mix over 6 tenants is 3+2+1 deterministically);
2. each tenant's arrival timeline is drawn from its private seeded
   stream (:mod:`repro.loadgen.arrivals`);
3. each tenant runs its workload profile's own driver (the generator,
   or the attack campaign for adversarial mixes) through a capture sink
   that slices the event stream into per-burst operation chunks — one
   chunk per arrival, the first chunk carrying the tenant's cold-start
   working-set fault-in;
4. tenant addresses are offset into disjoint namespaces
   (``tenant * TENANT_ADDRESS_STRIDE``) and the chunks are merged by
   arrival time into one open-loop stream, counted in a fresh tag-only
   ladder with the replayer's exact accounting semantics — so the
   recorded footer verifies bit-identically on replay.

The capture sinks never consume a tenant generator's RNG and the merge
is a pure function of the document, so two compositions of the same
scenario are byte-identical — the determinism the corpus store's
content addressing relies on.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace

from repro.loadgen.arrivals import timelines
from repro.loadgen.schema import LoadScenario
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import TouchBuffer
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import span as telemetry_span
from repro.traces import recorder
from repro.traces.registry import TraceScenarioSpec, corpus_spec
from repro.workloads.generator import (
    ALLOC_HOOK_INSTRUCTIONS,
    CFORM_SETUP_INSTRUCTIONS,
    EV_ALLOC,
    EV_CFORM,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    RunResult,
    Scenario,
)

#: Per-tenant address-space stride.  Above every address the tenant
#: engines synthesise (heap cursors and the 0x7FFF_0000 stack base stay
#: far below 2**33) and a power of two, so a tenant's own set/tag cache
#: behaviour is unchanged by the offset while tenants can never
#: constructively share lines.  Far below the multi-core replayer's
#: per-core 2**44 stride, so composed traces nest cleanly inside
#: per-core namespaces.
TENANT_ADDRESS_STRIDE = 1 << 33

#: Safety margin (in bursts) when sizing a tenant's instruction budget:
#: the generator loop accumulates float burst costs, so the budget for
#: exactly K bursts is padded by two bursts and the capture truncated.
_BURST_MARGIN = 2


def apportion_tenants(load: LoadScenario) -> tuple[str, ...]:
    """Workload profile per tenant, largest-remainder apportionment.

    Deterministic: quotas are ``weight / total * tenants``; floor seats
    first, remaining seats by largest fractional part with ties broken
    in mix order.  Tenants are numbered through the mix in order, so
    tenant 0 always carries the first mix entry's profile (when that
    entry wins at least one seat).
    """
    total = load.total_weight()
    quotas = [entry.weight / total * load.tenants for entry in load.mix]
    counts = [int(quota) for quota in quotas]
    leftover = load.tenants - sum(counts)
    by_remainder = sorted(
        range(len(quotas)),
        key=lambda index: (-(quotas[index] - counts[index]), index),
    )
    for index in by_remainder[:leftover]:
        counts[index] += 1
    names: list[str] = []
    for entry, count in zip(load.mix, counts):
        names.extend([entry.profile] * count)
    return tuple(names)


def _tenant_seed(load: LoadScenario, tenant: int, profile_name: str) -> int:
    """Stable per-tenant workload seed (independent of the arrival RNG)."""
    payload = f"loadgen-tenant:{load.seed}:{tenant}:{profile_name}"
    return int.from_bytes(
        hashlib.sha256(payload.encode("utf-8")).digest()[:4], "little"
    )


def _burst_instructions(spec: TraceScenarioSpec) -> float:
    return spec.profile.burst_length / spec.profile.mem_ratio


def tenant_spec(
    load: LoadScenario, tenant: int, profile_name: str, ops: int
) -> TraceScenarioSpec:
    """The single-profile spec backing one tenant's captured stream."""
    base = corpus_spec(profile_name)
    budget = int((ops + _BURST_MARGIN) * _burst_instructions(base)) + 1
    return replace(
        base,
        name=f"{load.name}/tenant{tenant}-{profile_name}",
        seed=_tenant_seed(load, tenant, profile_name),
        instructions=budget,
        warmup_fraction=0.0,  # the composition has its own warmup boundary
    )


class _CaptureSink:
    """Trace-engine sink slicing the event stream into per-burst chunks."""

    __slots__ = ("chunks", "_current")

    def __init__(self) -> None:
        self.chunks: list[list[tuple[int, int, int]]] = []
        self._current: list[tuple[int, int, int]] = []

    def append(self, kind: int, address: int, arg: int) -> None:
        self._current.append((kind, address, arg))

    def burst(self) -> None:
        self.chunks.append(self._current)
        self._current = []


def _tenant_chunks(
    spec: TraceScenarioSpec, config: HierarchyConfig, ops: int
) -> list[list[tuple[int, int, int]]]:
    """Capture ``ops`` per-burst operation chunks of one tenant stream."""
    sink = _CaptureSink()
    recorder._driver_for(spec)(
        spec.profile,
        spec.build_scenario(),
        instructions=spec.instructions,
        seed=spec.seed,
        config=config,
        warmup_fraction=spec.warmup_fraction,
        sink=sink,
        quarantine_delay=spec.quarantine_delay,
    )
    if len(sink.chunks) < ops:
        raise RuntimeError(
            f"tenant stream {spec.name!r} produced {len(sink.chunks)} "
            f"bursts for {ops} arrivals"
        )
    return sink.chunks[:ops]


def run_composed(
    load: LoadScenario,
    config: HierarchyConfig = WESTMERE,
    sink=None,
    scenario: Scenario | None = None,
) -> RunResult:
    """Compose and play one load scenario; ``run_trace``-shaped result.

    Every tenant chunk is counted in merged arrival order in a fresh
    tag-only ladder using the replayer's exact semantics (CFORM
    expansion, warmup counter reset at the emitted ``EV_WARM``), so the
    returned statistics — and hence the recorded footer — verify
    bit-identically on replay.  ``sink`` receives the merged stream
    (one ``burst()`` per chunk, so epoch markers land between arrivals
    and shard splits never tear an allocation cluster); the accounting
    is identical with or without it.
    """
    with telemetry_span(
        "loadgen/compose",
        scenario=load.name,
        tenants=load.tenants,
        duration_s=load.duration_s,
    ) as tspan:
        result = _run_composed(load, config, sink, scenario)
        tspan.set("alloc_events", result.alloc_events)
        tspan.set("instructions", result.instructions)
    return result


def _run_composed(
    load: LoadScenario,
    config: HierarchyConfig,
    sink,
    scenario: Scenario | None,
) -> RunResult:
    tenant_profiles = apportion_tenants(load)
    tenant_times = timelines(load)
    merged_streams = []
    burst_cost: dict[int, float] = {}
    for tenant, profile_name in enumerate(tenant_profiles):
        times = tenant_times[tenant]
        if not times:
            continue
        spec = tenant_spec(load, tenant, profile_name, len(times))
        chunks = _tenant_chunks(spec, config, len(times))
        burst_cost[tenant] = _burst_instructions(spec)
        offset = tenant * TENANT_ADDRESS_STRIDE
        merged_streams.append(
            [
                (time_s, tenant, index, offset, chunk)
                for index, (time_s, chunk) in enumerate(zip(times, chunks))
            ]
        )
    if not merged_streams:
        raise ValueError(
            f"load scenario {load.name!r} produced no arrivals "
            f"(rate {load.arrival.lambda_per_s:g}/s over "
            f"{load.duration_s:g}s)"
        )
    tel = telemetry_active()
    if tel is not None:
        tel.inc(
            "loadgen_arrivals_total",
            sum(len(stream) for stream in merged_streams),
            scenario=load.name,
        )

    ladder = TouchBuffer(config)
    touch = ladder.touch
    record = sink.append if sink is not None else None

    app_instructions = 0.0
    overhead_instructions = 0.0
    cform_lines = 0
    cform_records = 0
    alloc_events = 0
    warm_pending = load.warmup_s > 0.0

    def discard_warmup() -> None:
        nonlocal app_instructions, overhead_instructions, cform_lines
        nonlocal cform_records, alloc_events
        ladder.reset_counters()
        app_instructions = 0.0
        overhead_instructions = 0.0
        cform_lines = 0
        cform_records = 0
        alloc_events = 0
        if record is not None:
            record(EV_WARM, 0, 0)

    # Tenants' streams are time-sorted; (time, tenant, index) is a total
    # order, so the merge is deterministic even on equal timestamps.
    for time_s, tenant, index, offset, chunk in heapq.merge(
        *merged_streams, key=lambda item: (item[0], item[1], item[2])
    ):
        if warm_pending and time_s >= load.warmup_s:
            warm_pending = False
            discard_warmup()
        app_instructions += burst_cost[tenant]
        for kind, address, arg in chunk:
            address += offset
            if record is not None:
                record(kind, address, arg)
            if kind == EV_LOAD or kind == EV_STORE:
                touch(address)
            elif kind == EV_CFORM:
                cform_records += 1
                cform_lines += arg
                overhead_instructions += arg * (1 + CFORM_SETUP_INSTRUCTIONS)
                for line_index in range(arg):
                    touch(address + line_index * 64)
            elif kind == EV_ALLOC:
                alloc_events += 1
            # EV_FREE carries no cache touches.
        ladder.burst_end()
        if sink is not None:
            sink.burst()
    if warm_pending:
        # Every arrival fell inside the warmup prefix: the boundary
        # still lands (trailing), so replay agrees the run measured
        # nothing past warmup.
        discard_warmup()

    # One allocation hook per CFORM pair (free side + alloc side), as in
    # the generator's accounting; attack tenants emit no CFORM records.
    overhead_instructions += (cform_records // 2) * ALLOC_HOOK_INSTRUCTIONS

    return RunResult(
        benchmark=f"loadgen/{load.name}",
        scenario=scenario if scenario is not None else Scenario.baseline(),
        instructions=int(app_instructions + overhead_instructions),
        events=ladder.events(),
        cform_instructions=cform_lines,
        alloc_events=alloc_events,
    )


def compose_spec(load: LoadScenario) -> TraceScenarioSpec:
    """Wrap a load scenario as a recordable ``loadgen``-driver spec.

    The record stream is a pure function of ``driver_config`` (the
    scenario document) and the recording geometry; the spec-level
    ``instructions`` / ``warmup_fraction`` knobs are informational for
    this driver (the estimate below sizes reports, the composition's
    own ``warmup_s`` marks the boundary).  The carried profile is the
    dominant (highest-weight) mix entry's, so cycle models price
    composed traces with the majority tenant's CPI/overlap.
    """
    dominant = max(load.mix, key=lambda entry: entry.weight)
    base = corpus_spec(dominant.profile)
    total = load.total_weight()
    mean_burst = sum(
        entry.weight * _burst_instructions(corpus_spec(entry.profile))
        for entry in load.mix
    ) / total
    estimate = max(
        1, int(load.arrival.lambda_per_s * load.duration_s * mean_burst)
    )
    return TraceScenarioSpec(
        name=f"loadgen/{load.name}",
        description=f"open-loop composition — {load.describe()}",
        profile=base.profile,
        policy=None,
        with_cform=False,
        seed=load.seed,
        instructions=estimate,
        warmup_fraction=0.0,
        driver="loadgen",
        driver_config=load.to_json(),
    )


def driver_for_spec(spec: TraceScenarioSpec):
    """The recorder-facing driver closure for one ``loadgen`` spec.

    Returns a callable with :func:`run_trace`'s exact contract; the
    composition is pinned by the spec's ``driver_config`` document, so
    the call-site ``instructions`` / ``warmup_fraction`` / ``seed``
    knobs are accepted and ignored (they describe single-stream runs).
    """
    load = LoadScenario.from_json(spec.driver_config)

    def run_loadgen(
        profile,
        scenario,
        instructions: int = 0,
        seed: int = 0,
        config: HierarchyConfig = WESTMERE,
        warmup_fraction: float = 0.0,
        sink=None,
        quarantine_delay: int = 16,
    ) -> RunResult:
        return run_composed(load, config=config, sink=sink, scenario=scenario)

    return run_loadgen

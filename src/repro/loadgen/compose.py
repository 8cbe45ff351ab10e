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
3. each tenant's workload profile runs through its driver's emit-only
   entry (the generator's :func:`~repro.workloads.generator.emit_trace`,
   or the attack campaign's for adversarial mixes) with no accountant:
   the record columns are captured and cut at burst ends into per-burst
   operation chunks — one chunk per arrival, the first chunk carrying
   the tenant's cold-start working-set fault-in;
4. tenant addresses are offset into disjoint namespaces
   (``tenant * TENANT_ADDRESS_STRIDE``) and the chunks are merged by
   arrival time into one open-loop stream, which goes through one
   :class:`~repro.memory.kernel.RecordBuffer` to the same timing
   accountant a replay uses — so the recorded footer verifies
   bit-identically on replay.

The composer counts only the instructions it models (each arrival's
burst and the CFORM work its records carry); the accountant counts
everything else.  Tenant capture never consumes a tenant generator's RNG
and the merge is a pure function of the document, so two compositions
of the same scenario are byte-identical — the determinism the corpus
store's content addressing relies on.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace

import numpy as np

from repro.loadgen.arrivals import timelines
from repro.loadgen.schema import LoadScenario
from repro.memory import kernel
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import EV_CFORM, EV_WARM, RecordBuffer
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import span as telemetry_span
from repro.traces.attack_driver import emit_attack_trace
from repro.traces.registry import TraceScenarioSpec, corpus_spec
from repro.workloads.generator import (
    ALLOC_HOOK_INSTRUCTIONS,
    CFORM_SETUP_INSTRUCTIONS,
    RunResult,
    Scenario,
    counted_run,
    emit_trace,
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


#: The emit-only entry of each tenant driver (tenants are registry
#: scenarios, so never composed themselves).
_EMITTERS = {"generator": emit_trace, "attacks": emit_attack_trace}


class _TenantCapture:
    """Emit-only consumer: a tenant stream's record blocks and burst ends."""

    __slots__ = ("blocks", "burst_ends")

    def __init__(self) -> None:
        self.blocks: list[tuple] = []
        self.burst_ends: list[int] = []

    def consume(self, kinds, addresses, args) -> None:
        self.blocks.append((kinds, addresses, args))

    def bursts(self, ends) -> None:
        self.burst_ends.extend(ends.tolist())


def _tenant_stream(spec: TraceScenarioSpec, ops: int, offset: int = 0):
    """Capture the first ``ops`` bursts of one tenant's record stream.

    Returns ``(kinds, addresses, args, bounds)``: the record columns,
    addresses moved up by ``offset``, and the burst ends — chunk ``i``
    is rows ``bounds[i]:bounds[i + 1]``.
    """
    capture = _TenantCapture()
    records = RecordBuffer(capture)
    _EMITTERS[spec.driver](
        records,
        spec.profile,
        spec.build_scenario(),
        instructions=spec.instructions,
        seed=spec.seed,
        warmup_fraction=spec.warmup_fraction,
        quarantine_delay=spec.quarantine_delay,
    )
    records.flush()
    if len(capture.burst_ends) < ops:
        raise RuntimeError(
            f"tenant stream {spec.name!r} produced {len(capture.burst_ends)} "
            f"bursts for {ops} arrivals"
        )
    bounds = [0] + capture.burst_ends[:ops]
    kinds, addresses, args = (
        np.concatenate(column)[: bounds[-1]] for column in zip(*capture.blocks)
    )
    return kinds, addresses + offset, args, bounds


def run_composed(
    load: LoadScenario,
    config: HierarchyConfig = WESTMERE,
    sink=None,
    scenario: Scenario | None = None,
) -> RunResult:
    """Compose and play one load scenario; ``run_trace``-shaped result.

    The merged stream (tenant chunks in arrival order, plus the
    composition's ``EV_WARM`` boundary) is counted by the same timing
    accountant a replay uses, so the returned statistics — and hence
    the recorded footer — verify bit-identically on replay.  ``sink``
    consumes the same record blocks; every chunk ends a burst, so epoch
    markers land between arrivals and shard splits never tear an
    allocation cluster.
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
    streams: dict[int, tuple] = {}
    arrivals = []
    for tenant, profile_name in enumerate(tenant_profiles):
        times = tenant_times[tenant]
        if not times:
            continue
        spec = tenant_spec(load, tenant, profile_name, len(times))
        streams[tenant] = _tenant_stream(
            spec, len(times), tenant * TENANT_ADDRESS_STRIDE
        ) + (_burst_instructions(spec),)
        arrivals.append(
            [(time_s, tenant, index) for index, time_s in enumerate(times)]
        )
    if not arrivals:
        raise ValueError(
            f"load scenario {load.name!r} produced no arrivals "
            f"(rate {load.arrival.lambda_per_s:g}/s over "
            f"{load.duration_s:g}s)"
        )
    tel = telemetry_active()
    if tel is not None:
        tel.inc(
            "loadgen_arrivals_total",
            sum(len(stream) for stream in arrivals),
            scenario=load.name,
        )

    return counted_run(
        f"loadgen/{load.name}",
        scenario if scenario is not None else Scenario.baseline(),
        config,
        sink,
        lambda records: merge_arrivals(records, load, arrivals, streams),
    )


def merge_arrivals(
    records: RecordBuffer, load: LoadScenario, arrivals, streams
) -> int:
    """Play the tenant chunks into ``records`` in arrival order.

    ``arrivals`` holds each tenant's ``(time_s, tenant, index)`` list and
    ``streams`` each tenant's ``(kinds, addresses, args, bounds,
    burst_cost)``.  Chunks go to the buffer as blocks of whole bursts,
    one burst per arrival, with the composition's ``EV_WARM`` record
    between the last warmup arrival and the first measured one.  Returns
    the instructions the composition models.
    """
    app_instructions = 0.0
    cform_lines = 0
    cform_records = 0
    warm_pending = load.warmup_s > 0.0
    # Arrival chunks waiting to go to the buffer as one block of
    # whole bursts (one burst per arrival).
    chunks: list[tuple] = []
    pending = 0

    def hand_over() -> None:
        nonlocal cform_lines, cform_records, pending
        if not chunks:
            return
        kinds, addresses, args = (
            np.concatenate(column) for column in zip(*chunks)
        )
        ends = np.cumsum([len(chunk[0]) for chunk in chunks])
        cform = args[kinds == EV_CFORM]
        cform_lines += int(cform.sum())
        cform_records += len(cform)
        records.extend(kinds, addresses, args, ends)
        chunks.clear()
        pending = 0

    # Tenants' timelines are sorted; (time, tenant, index) is a total
    # order, so the merge is deterministic even on equal timestamps.
    for time_s, tenant, index in heapq.merge(*arrivals):
        if warm_pending and time_s >= load.warmup_s:
            hand_over()
            warm_pending = False
            records.append(EV_WARM, 0, 0)
            app_instructions = 0.0
            cform_lines = cform_records = 0
        kinds, addresses, args, bounds, burst_cost = streams[tenant]
        start, stop = bounds[index], bounds[index + 1]
        chunks.append(
            (kinds[start:stop], addresses[start:stop], args[start:stop])
        )
        pending += stop - start
        app_instructions += burst_cost
        if pending >= kernel.TOUCH_BLOCK:
            hand_over()
    hand_over()
    if warm_pending:
        # Every arrival fell inside the warmup prefix: the boundary
        # still lands (trailing), so replay agrees the run measured
        # nothing past warmup.
        records.append(EV_WARM, 0, 0)
        app_instructions = 0.0
        cform_lines = cform_records = 0
    # One allocation hook per CFORM pair (free side + alloc side), as
    # in the generator's accounting; attack tenants emit no CFORM.
    overhead = (
        cform_lines * (1 + CFORM_SETUP_INSTRUCTIONS)
        + (cform_records // 2) * ALLOC_HOOK_INSTRUCTIONS
    )
    return int(app_instructions + overhead)


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

"""The open-loop composer: merge order, namespaces, determinism, replay."""

from io import BytesIO

import pytest

import oracle
from repro.loadgen.arrivals import timelines
from repro.loadgen.compose import (
    TENANT_ADDRESS_STRIDE,
    _tenant_stream,
    apportion_tenants,
    compose_spec,
    run_composed,
    tenant_spec,
)
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.loadgen.sets import load_scenarios
from repro.memory.kernel import LadderKernel
from repro.traces.format import EV_EPOCH, TraceReader
from repro.traces.recorder import record_spec
from repro.traces.replayer import replay_timing
from repro.workloads.generator import (
    EV_ALLOC,
    EV_CFORM,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
)

MEMORY_EVENTS = (EV_LOAD, EV_STORE, EV_CFORM)


def make(tenants=3, duration_s=0.2, warmup_s=0.0, **overrides) -> LoadScenario:
    base = dict(
        name="compose-unit",
        description="composer unit scenario",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
        mix=(MixEntry(profile="server-churn", weight=1.0),),
        tenants=tenants,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=17,
    )
    base.update(overrides)
    return LoadScenario(**base)


def record_bytes(load: LoadScenario) -> bytes:
    buffer = BytesIO()
    record_spec(compose_spec(load), buffer)
    return buffer.getvalue()


class TestApportionment:
    def test_largest_remainder_matches_the_paper_mix(self):
        scenario = load_scenarios()["multi-tenant-server"]
        names = apportion_tenants(scenario)
        assert len(names) == 6
        assert names.count("server-churn") == 3
        assert names.count("scan-heavy") == 2
        assert names.count("pointer-chase") == 1
        # Tenant 0 carries the first (heaviest) mix entry.
        assert names[0] == "server-churn"

    def test_single_entry_mix_fills_every_tenant(self):
        assert apportion_tenants(make(tenants=5)) == ("server-churn",) * 5

    def test_every_tenant_gets_a_profile(self):
        for scenario in load_scenarios().values():
            assert len(apportion_tenants(scenario)) == scenario.tenants


class _ChunkSink:
    """A recording-shaped sink: keeps the merged stream and its bursts."""

    def __init__(self):
        self.records = []
        self.burst_ends = []

    def consume(self, kinds, addresses, args):
        self.records.extend(
            zip(kinds.tolist(), addresses.tolist(), args.tolist())
        )

    def bursts(self, ends):
        self.burst_ends.extend(ends.tolist())

    @property
    def chunks(self):
        starts = [0] + self.burst_ends[:-1]
        return [
            self.records[start:stop]
            for start, stop in zip(starts, self.burst_ends)
        ]


class TestMerge:
    def test_chunks_are_merged_in_arrival_time_order(self):
        load = make()
        sink = _ChunkSink()
        run_composed(load, sink=sink)
        expected = sorted(
            (time_s, tenant, index)
            for tenant, times in enumerate(timelines(load))
            for index, time_s in enumerate(times)
        )
        assert len(sink.chunks) == len(expected)
        for chunk, (_, tenant, _) in zip(sink.chunks, expected):
            bins = {
                address >> 33
                for kind, address, arg in chunk
                if kind in MEMORY_EVENTS
            }
            assert bins == {tenant}

    def test_tenant_namespaces_are_disjoint(self):
        load = make()
        raw = record_bytes(load)
        populated = {
            tenant
            for tenant, times in enumerate(timelines(load))
            if times
        }
        bins = set()
        for kind, address, arg in oracle.records(TraceReader(BytesIO(raw))):
            if kind in MEMORY_EVENTS:
                bins.add(address >> 33)
                if kind == EV_CFORM:  # expansion stays inside the bin
                    assert (address + arg * 64) >> 33 == address >> 33
        assert bins == populated

    def test_no_arrivals_is_an_explicit_error(self):
        load = make(
            tenants=1,
            duration_s=1e-6,
            arrival=ArrivalSpec(kind="poisson", lambda_per_s=0.001),
        )
        with pytest.raises(ValueError, match="no arrivals"):
            run_composed(load)


class TestSingleTenantEquivalence:
    def test_composed_records_equal_the_plain_tenant_capture(self):
        # With one tenant there is nothing to merge: the composed trace
        # must be exactly the tenant stream, truncated to its arrivals
        # (offset 0, EPOCH markers aside).
        load = make(tenants=1, duration_s=0.3)
        (times,) = timelines(load)
        spec = tenant_spec(load, 0, "server-churn", len(times))
        kinds, addresses, args, _ = _tenant_stream(spec, len(times))
        expected = list(zip(kinds.tolist(), addresses.tolist(), args.tolist()))
        composed = [
            record
            for record in oracle.records(
                TraceReader(BytesIO(record_bytes(load)))
            )
            if record[0] not in (EV_EPOCH, EV_WARM)
        ]
        assert composed == expected


class TestDeterminismAndReplay:
    def test_double_generation_is_byte_identical(self):
        from repro.corpus.store import canonical_digest

        load = load_scenarios()["uniform-churn"].scaled(0.2)
        first = record_bytes(load)
        second = record_bytes(load)
        assert first == second
        assert canonical_digest(BytesIO(first)) == canonical_digest(
            BytesIO(second)
        )

    def test_replay_verifies_and_reproduces_the_live_run(self):
        load = make(warmup_s=0.05)
        buffer = BytesIO()
        live = record_spec(compose_spec(load), buffer)
        replayed = replay_timing(BytesIO(buffer.getvalue()))
        with TraceReader(BytesIO(buffer.getvalue())) as reader:
            footer = reader.read_footer()
        assert replayed.events == live.events
        assert replayed.instructions == live.instructions
        assert replayed.cform_instructions == live.cform_instructions
        assert replayed.alloc_events == live.alloc_events
        assert footer["records"] > 0

    def test_recording_does_not_change_the_result(self):
        load = make()
        unrecorded = run_composed(load)
        sink = _ChunkSink()
        recorded = run_composed(load, sink=sink)
        assert recorded == unrecorded

    def test_only_the_merged_stream_reaches_the_ladder(self, monkeypatch):
        # Tenant streams are captured without an accountant: every cache
        # access of a composed run is a touch of the merged stream.
        accesses = []
        touch_block = LadderKernel.touch_block

        def counting(ladder, addresses):
            accesses.append(len(addresses))
            return touch_block(ladder, addresses)

        monkeypatch.setattr(LadderKernel, "touch_block", counting)
        buffer = BytesIO()
        record_spec(compose_spec(make(warmup_s=0.05)), buffer)
        monkeypatch.undo()
        touches = sum(
            arg if kind == EV_CFORM else 1
            for kind, address, arg in oracle.records(
                TraceReader(BytesIO(buffer.getvalue()))
            )
            if kind in MEMORY_EVENTS
        )
        assert sum(accesses) == touches > 0

    def test_warmup_resets_the_counters(self):
        cold = run_composed(make())
        warmed = run_composed(make(warmup_s=0.1))
        assert warmed.events.l1_accesses < cold.events.l1_accesses


class TestComposeSpec:
    def test_spec_round_trips_through_the_registry(self):
        from repro.traces.registry import TraceScenarioSpec

        spec = compose_spec(make())
        assert spec.driver == "loadgen"
        restored = TraceScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_driver_config_is_the_scenario_document(self):
        load = make()
        assert LoadScenario.from_json(
            compose_spec(load).driver_config
        ) == load

    def test_dominant_mix_entry_prices_the_trace(self):
        load = make(mix=(
            MixEntry(profile="server-churn", weight=0.2),
            MixEntry(profile="scan-heavy", weight=0.8),
        ))
        from repro.traces.registry import corpus_spec

        assert compose_spec(load).profile == corpus_spec("scan-heavy").profile

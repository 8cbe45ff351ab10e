"""Columnar production vs per-record oracles: a whole-registry suite.

The acceptance gate for the one trace decoder and the one LRU simulation
path: over every registry scenario in both container versions — plus a
loadgen-composed trace — production is **bit-identical** to the
per-record oracles in ``tests/oracle.py``: the record stream
:meth:`TraceReader.column_batches` decodes, the corpus digest, the live
writers (the ``RunResult`` a recording returns and its footer), timing
replay, hierarchy replay (counters, violations, cycles), sharded merges,
and multi-core per-core attribution.  The same differential-testing
pattern as ``tests/core/test_fastpath_equivalence``.
"""

import pytest

import oracle
from repro.corpus.store import canonical_digest
from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.traces import CORPUS, record_spec, replay_timing
from repro.traces.format import TraceReader
from repro.traces.replayer import (
    replay_hierarchy,
    replay_multicore,
    replay_shards,
    shard_trace,
)

INSTRUCTIONS = 5_000

ALL_SCENARIOS = sorted(CORPUS)

CONTAINERS = ("v1", "v2")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Every registry scenario in both containers, plus a loadgen mix."""
    workdir = tmp_path_factory.mktemp("columnar")
    traces = {}
    for name in ALL_SCENARIOS:
        spec = CORPUS[name].scaled(INSTRUCTIONS)
        for container in CONTAINERS:
            path = str(workdir / f"{name}.{container}.trace")
            live = record_spec(spec, path, compress=container == "v2")
            traces[name, container] = (path, live)
    load = LoadScenario(
        name="columnar-mix",
        description="loadgen stream for the columnar differential suite",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
        mix=(
            MixEntry(profile="server-churn", weight=2.0),
            MixEntry(profile="scan-heavy", weight=1.0),
        ),
        tenants=3,
        duration_s=0.2,
        warmup_s=0.05,
        seed=23,
    )
    for container in CONTAINERS:
        path = str(workdir / f"loadgen.{container}.trace")
        live = record_spec(
            compose_spec(load), path, compress=container == "v2"
        )
        traces["loadgen", container] = (path, live)
    return traces


ALL_TRACES = [
    (name, container)
    for name in ALL_SCENARIOS + ["loadgen"]
    for container in CONTAINERS
]


# -- decode layer -------------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_column_batches_reproduce_the_record_stream(name, container, recorded):
    path, _ = recorded[name, container]
    with TraceReader(path) as tuples, TraceReader(path) as columns:
        stream = oracle.records(tuples)
        for batch in columns.column_batches():
            for row in zip(
                batch.kind.tolist(), batch.address.tolist(), batch.arg.tolist()
            ):
                assert row == next(stream)
        assert next(stream, None) is None
        assert columns.footer == tuples.footer


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_canonical_digest_matches_the_oracle(name, container, recorded):
    # The corpus identity: columnar repack + one hash update per batch
    # against one packed record at a time, and one name per workload
    # whichever container holds it.
    path, _ = recorded[name, container]
    digest = canonical_digest(path)
    assert digest == oracle.canonical_digest(path)
    assert digest == canonical_digest(recorded[name, "v1"][0])


# -- live writers ---------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS + ["loadgen"])
def test_live_run_footer_and_oracle_replay_agree(name, recorded):
    # The writers count their touches with the kernel while recording;
    # the per-record oracle replays the recorded stream independently.
    path, live = recorded[name, "v1"]
    with TraceReader(path) as reader:
        stats = oracle.replay_timing_stream(reader)
        footer = reader.read_footer()
    assert footer["events"] == {
        "l1_accesses": live.events.l1_accesses,
        "l1_misses": live.events.l1_misses,
        "l2_misses": live.events.l2_misses,
        "l3_misses": live.events.l3_misses,
    }
    assert stats.events == live.events
    assert stats.cform_lines == live.cform_instructions == footer[
        "cform_instructions"
    ]
    assert stats.alloc_events == live.alloc_events == footer["alloc_events"]


# -- single-trace replay ------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_timing_replay_is_engine_agnostic(name, container, recorded):
    path, live = recorded[name, container]
    assert replay_timing(path) == oracle.replay_timing(path) == live


@pytest.mark.parametrize(
    "name,container",
    [
        (name, container)
        for name, container in ALL_TRACES
        # The data-carrying hierarchy models one 8 GB address space;
        # multi-tenant loadgen traces stride tenants beyond it, so
        # hierarchy mode covers the registry scenarios only.
        if name != "loadgen"
    ],
)
def test_hierarchy_replay_is_engine_agnostic(name, container, recorded):
    path, _ = recorded[name, container]
    # Full ShardStats equality: counters, violations, AMAT cycles.
    assert replay_hierarchy(path) == oracle.replay_hierarchy(path)


# -- sharded merge ------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("mode", ["timing", "hierarchy"])
def test_sharded_merge_is_engine_agnostic(container, mode, recorded, tmp_path):
    path, _ = recorded["server-churn", container]
    shards = shard_trace(path, str(tmp_path / "shards"), shards=3)
    assert replay_shards(shards, jobs=2, mode=mode) == oracle.replay_shards(
        shards, mode=mode
    )


# -- multi-core ---------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
def test_multicore_attribution_is_engine_agnostic(container, recorded):
    sources = [
        recorded["server-churn", container][0],
        recorded["scan-heavy", container][0],
        recorded["pointer-chase", container][0],
    ]
    from_kernel = replay_multicore(sources, jobs=2)
    from_oracle = oracle.replay_multicore(sources)
    assert from_kernel.per_core == from_oracle.per_core
    assert from_kernel.merged == from_oracle.merged


def test_multicore_shard_streams_are_engine_agnostic(recorded, tmp_path):
    # Concatenated shard files per core: region semantics (warm markers
    # ignored) must match the oracle too.
    churn, _ = recorded["server-churn", "v1"]
    scan, _ = recorded["scan-heavy", "v2"]
    churn_shards = shard_trace(churn, str(tmp_path / "churn"), shards=2)
    scan_shards = shard_trace(scan, str(tmp_path / "scan"), shards=2)
    sources = [churn_shards, scan_shards]
    assert replay_multicore(sources) == oracle.replay_multicore(sources)

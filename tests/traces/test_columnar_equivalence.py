"""Columnar production vs per-record oracles: a whole-registry suite.

The acceptance gate for the one trace decoder and the one LRU simulation
path: over every registry scenario — plus a loadgen-composed trace —
production is **bit-identical** to the per-record oracles in
``tests/oracle.py``.  Each trace runs in two legs: ``v2``, where the
oracle reads the CALTRC02 recording, and ``v1``, where it reads an old
CALTRC01 file (the recording's twin, written by ``oracle.RecordWriter``)
with its ``struct`` walk.  Production reads the recording in both legs,
so it runs once per trace and check: each ``v1`` leg compares its oracle
half with the production result of its ``v2`` leg (``oracle transcode``
would give production the recording's bytes back, which
``test_compress.py`` asserts).  Compared are the record stream
:meth:`TraceReader.column_batches` decodes, the corpus digest, the live
writers (the ``RunResult`` a recording returns and its footer), timing
replay, hierarchy replay (counters, violations, cycles), sharded merges,
and multi-core per-core attribution.  The same differential-testing
pattern as ``tests/core/test_fastpath_equivalence``.
"""

import hashlib
from typing import NamedTuple

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
from repro.workloads.generator import RunResult

INSTRUCTIONS = 5_000

ALL_SCENARIOS = sorted(CORPUS)

CONTAINERS = ("v1", "v2")


class Trace(NamedTuple):
    path: str  # the CALTRC02 recording production reads
    reference: str  # the file the oracle reads
    live: RunResult


def _v1_twin(path: str) -> str:
    """The CALTRC01 file holding ``path``'s canonical stream."""
    twin = path.replace(".trace", ".v1.trace")
    oracle.write_canonical(path, twin)
    return twin


def _legs(path: str, live: RunResult) -> dict:
    return {"v1": Trace(path, _v1_twin(path), live), "v2": Trace(path, path, live)}


@pytest.fixture(scope="module")
def produced():
    """Production results by check and trace, shared by both legs."""
    return {}


def _once(produced: dict, key, compute):
    if key not in produced:
        produced[key] = compute()
    return produced[key]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Every registry scenario plus a loadgen mix, in both legs."""
    workdir = tmp_path_factory.mktemp("columnar")
    traces = {}
    for name in ALL_SCENARIOS:
        path = str(workdir / f"{name}.trace")
        live = record_spec(CORPUS[name].scaled(INSTRUCTIONS), path)
        for container, trace in _legs(path, live).items():
            traces[name, container] = trace
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
    path = str(workdir / "loadgen.trace")
    live = record_spec(compose_spec(load), path)
    for container, trace in _legs(path, live).items():
        traces["loadgen", container] = trace
    return traces


ALL_TRACES = [
    (name, container)
    for name in ALL_SCENARIOS + ["loadgen"]
    for container in CONTAINERS
]


# -- decode layer -------------------------------------------------------------


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_column_batches_reproduce_the_record_stream(
    name, container, recorded, produced
):
    trace = recorded[name, container]

    def decode():
        with TraceReader(trace.path) as columns:
            rows = [
                row
                for batch in columns.column_batches()
                for row in zip(
                    batch.kind.tolist(),
                    batch.address.tolist(),
                    batch.arg.tolist(),
                )
            ]
            return rows, columns.footer

    rows, footer = _once(produced, ("columns", name), decode)
    with oracle.open_trace(trace.reference) as tuples:
        assert list(oracle.records(tuples)) == rows
        assert tuples.footer == footer


@pytest.mark.parametrize("name,container", ALL_TRACES)
def test_canonical_digest_matches_the_oracle(
    name, container, recorded, produced
):
    # The corpus identity: columnar repack + one hash update per batch
    # against one packed record at a time, and one name per workload
    # whichever container holds it: the sha256 of the CALTRC01 file.
    trace = recorded[name, container]
    digest = _once(
        produced, ("digest", name), lambda: canonical_digest(trace.path)
    )
    assert digest == oracle.canonical_digest(trace.reference)
    with open(recorded[name, "v1"].reference, "rb") as handle:
        v1 = handle.read()
    assert digest[:2] == (hashlib.sha256(v1).hexdigest(), len(v1))


# -- live writers ---------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS + ["loadgen"])
def test_live_run_footer_and_oracle_replay_agree(name, recorded):
    # The writers count their touches with the kernel while recording;
    # the per-record oracle replays the recorded stream independently.
    path, _, live = recorded[name, "v2"]
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
def test_timing_replay_is_engine_agnostic(name, container, recorded, produced):
    path, reference, live = recorded[name, container]
    replayed = _once(produced, ("timing", name), lambda: replay_timing(path))
    assert replayed == oracle.replay_timing(reference) == live


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
def test_hierarchy_replay_is_engine_agnostic(
    name, container, recorded, produced
):
    path, reference, _ = recorded[name, container]
    # Full ShardStats equality: counters, violations, AMAT cycles.
    replayed = _once(
        produced, ("hierarchy", name), lambda: replay_hierarchy(path)
    )
    assert replayed == oracle.replay_hierarchy(reference)


# -- sharded merge ------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("mode", ["timing", "hierarchy"])
def test_sharded_merge_is_engine_agnostic(
    container, mode, recorded, produced, tmp_path
):
    path = recorded["server-churn", container].path

    def merge():
        shards = shard_trace(path, str(tmp_path / "shards"), shards=3)
        return shards, replay_shards(shards, jobs=2, mode=mode)

    shards, merged = _once(produced, ("shards", mode), merge)
    if container == "v1":
        references = [_v1_twin(shard) for shard in shards]
    else:
        references = shards
    assert merged == oracle.replay_shards(references, mode=mode)


# -- multi-core ---------------------------------------------------------------


@pytest.mark.parametrize("container", CONTAINERS)
def test_multicore_attribution_is_engine_agnostic(
    container, recorded, produced
):
    traces = [
        recorded[name, container]
        for name in ("server-churn", "scan-heavy", "pointer-chase")
    ]
    from_kernel = _once(
        produced,
        ("multicore",),
        lambda: replay_multicore([trace.path for trace in traces], jobs=2),
    )
    from_oracle = oracle.replay_multicore(
        [trace.reference for trace in traces]
    )
    assert from_kernel.per_core == from_oracle.per_core
    assert from_kernel.merged == from_oracle.merged


def test_multicore_shard_streams_are_engine_agnostic(recorded, tmp_path):
    # Concatenated shard files per core: region semantics (warm markers
    # ignored) must match the oracle too.
    churn = recorded["server-churn", "v1"].path
    scan = recorded["scan-heavy", "v2"].path
    churn_shards = shard_trace(churn, str(tmp_path / "churn"), shards=2)
    scan_shards = shard_trace(scan, str(tmp_path / "scan"), shards=2)
    sources = [churn_shards, scan_shards]
    assert replay_multicore(sources) == oracle.replay_multicore(sources)

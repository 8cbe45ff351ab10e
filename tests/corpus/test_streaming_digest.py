"""A build hashes the canonical stream while it records.

``record_spec(..., canonical=CanonicalHash())`` feeds the hash the
header, every record block and the footer as the writer writes them.
The digest and length it ends with must equal what ``canonical_digest``
re-derives by decoding the finished file, and what the per-record oracle
hashes, for every registry recording and a composed loadgen trace (what
``loadgen generate`` records).  A record the canonical ``<BQI`` layout
cannot hold still fails the build and leaves nothing behind.
"""

import hashlib
import os

import numpy as np
import pytest

import oracle
from repro.corpus.store import CorpusStore, canonical_digest
from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.traces import recorder
from repro.traces.format import (
    EV_ALLOC,
    EV_LOAD,
    CanonicalHash,
    TraceFormatError,
)
from repro.traces.recorder import record_spec
from repro.traces.registry import CORPUS
from repro.workloads.generator import counted_run

INSTRUCTIONS = 2_500

LOAD = LoadScenario(
    name="streamed-mix",
    description="loadgen stream for the streaming-digest differential",
    arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
    mix=(
        MixEntry(profile="server-churn", weight=2.0),
        MixEntry(profile="attack-replay", weight=1.0),
    ),
    tenants=2,
    duration_s=0.1,
    warmup_s=0.02,
    seed=5,
)

SPECS = {name: CORPUS[name].scaled(INSTRUCTIONS) for name in sorted(CORPUS)}
SPECS["loadgen"] = compose_spec(LOAD)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_hash_taken_while_writing_equals_the_decode_path(tmp_path, name):
    path = str(tmp_path / f"{name.replace('/', '_')}.trace")
    canonical = CanonicalHash()
    record_spec(SPECS[name], path, canonical=canonical)
    digest, length, footer = canonical_digest(path)
    assert (canonical.hexdigest, canonical.length) == (digest, length)
    assert (digest, length, footer) == oracle.canonical_digest(path)
    assert canonical.records == footer["records"]


def test_a_build_stores_what_it_hashed(tmp_path):
    store = CorpusStore(str(tmp_path / "corpus"))
    entry = store.ensure(SPECS["server-churn"]).entry
    path = store.object_path(entry.digest)
    assert canonical_digest(path)[:2] == (entry.digest, entry.raw_bytes)
    with open(path, "rb") as handle:
        stored = handle.read()
    assert (len(stored), hashlib.sha256(stored).hexdigest()) == (
        entry.stored_bytes,
        entry.stored_sha256,
    )


@pytest.mark.parametrize(
    "kind,address,arg",
    [(EV_ALLOC, -64, 64), (EV_LOAD, 0x1000, 2**32)],
    ids=["negative-address", "arg-2**32"],
)
def test_an_unhashable_record_fails_the_build_and_leaves_nothing(
    tmp_path, monkeypatch, kind, address, arg
):
    def driver(profile, scenario, *, config, sink=None, **_ignored):
        def emit(records):
            records.extend(
                np.array([kind], dtype=np.uint8),
                np.array([address], dtype=np.int64),
                np.array([arg], dtype=np.int64),
            )
            return 1

        return counted_run(profile.name, scenario, config, sink, emit)

    monkeypatch.setattr(recorder, "_driver_for", lambda spec: driver)
    store = CorpusStore(str(tmp_path / "corpus"))
    with pytest.raises(TraceFormatError, match="canonical <BQI"):
        store.ensure(SPECS["server-churn"])
    assert store.manifest().entries == {}
    assert store.built == 0
    leftovers = [
        name
        for _dirpath, _dirnames, names in os.walk(store.objects_dir)
        for name in names
    ]
    assert leftovers == []

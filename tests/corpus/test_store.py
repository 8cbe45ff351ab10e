"""Corpus store: content addressing, manifest binding, maintenance."""

import json
import os

import pytest

from repro.corpus.manifest import MANIFEST_VERSION
from repro.corpus.store import (
    CorpusStore,
    canonical_digest,
    figure_spec,
    registry_fingerprint,
    spec_fingerprint,
)
from repro.memory.hierarchy import WESTMERE
from repro.traces.registry import CORPUS, TraceScenarioSpec
from repro.traces.replayer import replay_timing
from repro.workloads.generator import Scenario, slowdown
from repro.workloads.specs import FIG10_BENCHMARKS, SPEC_PROFILES

INSTRUCTIONS = 3_000


@pytest.fixture()
def store(tmp_path):
    return CorpusStore(str(tmp_path / "corpus"))


def _spec(name="server-churn"):
    return CORPUS[name].scaled(INSTRUCTIONS)


class TestFingerprints:
    def test_stable_across_instances(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())

    def test_sensitive_to_spec_and_geometry(self):
        base = spec_fingerprint(_spec())
        assert spec_fingerprint(_spec().scaled(INSTRUCTIONS + 1)) != base
        assert spec_fingerprint(_spec("dma-mixed")) != base
        assert (
            spec_fingerprint(_spec(), WESTMERE.with_extra_latency(1)) != base
        )

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_memo_keeps_value_types(self, order):
        # 1 == 1.0, so the two specs are equal, yet they dump (and so
        # fingerprint) differently; the memo must not hand one the
        # other's fingerprint, whichever comes first.
        spec_fingerprint.cache_clear()
        for warmup in order:
            document = _spec().to_dict()
            document["warmup_fraction"] = warmup
            spec = TraceScenarioSpec.from_dict(document)
            assert spec == _spec()
            assert spec_fingerprint(spec) == spec_fingerprint.__wrapped__(spec)
        assert spec_fingerprint(_spec()) == spec_fingerprint.__wrapped__(_spec())

    def test_registry_fingerprint_covers_every_mix(self):
        # Any registry change must change the CI cache key.
        assert registry_fingerprint() == registry_fingerprint()
        assert len(registry_fingerprint()) == 64


class TestEnsure:
    def test_builds_then_hits(self, store):
        first = store.ensure(_spec())
        assert first.built
        assert os.path.exists(first.path)
        second = store.ensure(_spec())
        assert not second.built
        assert second.path == first.path
        assert (store.built, store.hits) == (1, 1)

    def test_hit_survives_a_fresh_store_instance(self, store):
        built = store.ensure(_spec())
        reopened = CorpusStore(store.root)
        resolved = reopened.ensure(_spec())
        assert not resolved.built
        assert resolved.entry == built.entry

    def test_object_is_content_addressed(self, store):
        resolved = store.ensure(_spec())
        digest, raw_bytes, footer = canonical_digest(resolved.path)
        assert resolved.entry.digest == digest
        assert resolved.entry.raw_bytes == raw_bytes
        assert resolved.entry.records == footer["records"]
        assert digest in resolved.path

    def test_object_replays_verified(self, store):
        resolved = store.ensure(_spec())
        result = replay_timing(resolved.path)  # verifies against footer
        assert result.benchmark == _spec().profile.name

    def test_compression_recorded_in_manifest(self, store):
        entry = store.ensure(_spec("scan-heavy")).entry
        assert entry.stored_bytes < entry.raw_bytes
        assert entry.compression_ratio > 4.0

    def test_missing_object_triggers_rebuild(self, store):
        first = store.ensure(_spec())
        os.remove(first.path)
        second = store.ensure(_spec())
        assert second.built
        assert os.path.exists(second.path)


class TestHitPath:
    def test_hits_parse_the_manifest_once_per_handle(self, store, monkeypatch):
        import repro.corpus.store as store_module

        specs = [_spec(), _spec("dma-mixed")]
        for spec in specs:
            store.ensure(spec)
        loads = []
        real_load = store_module.load_manifest

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(store_module, "load_manifest", counting_load)
        handle = CorpusStore(store.root)
        for _ in range(19):
            for spec in specs:
                assert not handle.ensure(spec).built
        assert handle.hits == 38
        assert len(loads) == 1

    def test_another_handles_build_is_read_from_the_journal(
        self, store, monkeypatch
    ):
        import repro.corpus.store as store_module

        for name in ("server-churn", "dma-mixed", "pointer-chase"):
            store.ensure(_spec(name))  # the third append folds the journal
        other = CorpusStore(store.root)
        assert other.ensure(_spec("scan-heavy")).built
        loads = []
        real_load = store_module.load_manifest
        monkeypatch.setattr(
            store_module, "load_manifest",
            lambda path: loads.append(path) or real_load(path),
        )
        assert not store.ensure(_spec("scan-heavy")).built
        assert loads == []  # the new line was folded in, nothing re-parsed
        assert store.manifest().entries == other.manifest().entries

    def test_manifest_copies_do_not_reach_the_cache(self, store):
        fingerprint = store.ensure(_spec()).entry.fingerprint
        store.manifest()  # parse and cache the saved manifest
        store.manifest().entries.pop(fingerprint)
        assert store.manifest().get(fingerprint) is not None

    def test_hit_and_build_carry_the_same_result(self, store):
        built = store.ensure(_spec())
        hit = CorpusStore(store.root).ensure(_spec())
        assert built.result == hit.result == replay_timing(hit.path)

    def test_warm_figure_cells_neither_replay_nor_decode(
        self, store, monkeypatch
    ):
        import repro.corpus.store as store_module
        from repro.traces.format import TraceReader

        profiles = [SPEC_PROFILES[name] for name in FIG10_BENCHMARKS[:3]]
        variant = WESTMERE.with_extra_latency(1)
        live = [
            slowdown(
                profile,
                Scenario.baseline(),
                instructions=INSTRUCTIONS,
                variant_config=variant,
            )
            for profile in profiles
        ]
        for profile in profiles:  # populate the corpus
            store.slowdown(
                profile, Scenario.baseline(), INSTRUCTIONS,
                variant_config=variant,
            )

        def refuse(*args, **kwargs):
            raise AssertionError("a corpus hit replayed or decoded records")

        monkeypatch.setattr(store_module, "replay_timing", refuse)
        monkeypatch.setattr(TraceReader, "column_batches", refuse)
        warm = CorpusStore(store.root)
        via_corpus = [
            warm.slowdown(
                profile, Scenario.baseline(), INSTRUCTIONS,
                variant_config=variant,
            )
            for profile in profiles
        ]
        assert via_corpus == live
        assert (warm.built, warm.hits) == (0, 2 * len(profiles))


class TestCanonicalDigest:
    def test_v1_and_v2_twins_hash_identically(self, store, tmp_path):
        import oracle

        resolved = store.ensure(_spec())  # stored as CALTRC02
        v1 = str(tmp_path / "twin.v1.trace")
        oracle.write_canonical(resolved.path, v1)
        assert canonical_digest(resolved.path) == oracle.canonical_digest(v1)

    def test_v1_digest_is_the_file_hash(self, tmp_path):
        import hashlib

        import oracle
        from repro.traces.recorder import record_spec

        path = str(tmp_path / "plain.trace")
        record_spec(_spec(), path)
        v1 = str(tmp_path / "plain.v1.trace")
        oracle.write_canonical(path, v1)
        digest, raw_bytes, _footer = canonical_digest(path)
        with open(v1, "rb") as handle:
            raw = handle.read()
        assert digest == hashlib.sha256(raw).hexdigest()
        assert raw_bytes == len(raw)


class TestMaintenance:
    def test_verify_clean_store(self, store):
        store.ensure(_spec())
        store.ensure(_spec("dma-mixed"))
        assert store.verify() == []

    def test_verify_detects_corruption(self, store):
        resolved = store.ensure(_spec())
        with open(resolved.path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff\xff\xff\xff")
        problems = store.verify()
        assert problems
        assert any("server-churn" in problem for problem in problems)

    def test_verify_detects_missing_object(self, store):
        resolved = store.ensure(_spec())
        os.remove(resolved.path)
        assert any("missing" in problem for problem in store.verify())

    def test_gc_removes_stale_unreferenced_objects(self, store):
        resolved = store.ensure(_spec())
        orphan = os.path.join(store.objects_dir, "ab", "a" * 64 + ".trace")
        os.makedirs(os.path.dirname(orphan), exist_ok=True)
        with open(orphan, "w") as handle:
            handle.write("junk")
        os.utime(orphan, (0, 0))  # old enough to be a crash leftover
        removed = store.gc()
        assert orphan in removed
        assert not os.path.exists(orphan)
        assert os.path.exists(resolved.path)  # referenced object kept

    def test_gc_spares_freshly_published_objects(self, store):
        # The window between a builder's os.replace and its manifest
        # update: an unreferenced but new .trace must survive gc.
        fresh = os.path.join(store.objects_dir, "cd", "b" * 64 + ".trace")
        os.makedirs(os.path.dirname(fresh), exist_ok=True)
        with open(fresh, "w") as handle:
            handle.write("just published")
        assert store.gc() == []
        assert os.path.exists(fresh)

    def test_gc_prunes_stale_entries(self, store):
        resolved = store.ensure(_spec())
        os.remove(resolved.path)
        removed = store.gc()
        assert any("server-churn" in item for item in removed)
        assert store.manifest().entries == {}

    def test_gc_on_never_built_store_is_a_noop(self, store):
        assert store.gc() == []
        assert store.verify() == []

    def test_gc_spares_fresh_inprogress_recordings(self, store):
        # A concurrent builder's live temp file must survive gc; only
        # hour-old crash leftovers are reaped.
        store.ensure(_spec())
        fresh = os.path.join(store.objects_dir, "live.recording")
        with open(fresh, "w") as handle:
            handle.write("half-written")
        stale = os.path.join(store.objects_dir, "dead.recording")
        with open(stale, "w") as handle:
            handle.write("crash leftover")
        os.utime(stale, (0, 0))
        removed = store.gc()
        assert os.path.exists(fresh)
        assert not os.path.exists(stale)
        assert stale in removed

    def test_gc_sweeps_stale_quarantined_blobs(self, store):
        store.ensure(_spec())
        os.makedirs(store.quarantine_dir, exist_ok=True)
        stale = os.path.join(store.quarantine_dir, "old.trace")
        with open(stale, "w") as handle:
            handle.write("quarantined long ago")
        os.utime(stale, (0, 0))
        removed = store.gc()
        assert stale in removed
        assert not os.path.exists(stale)
        assert store.reclaimed_bytes >= len("quarantined long ago")

    def test_gc_spares_recent_quarantine_and_the_heal_ledger(self, store):
        from repro.corpus.store import HEAL_LOG_NAME

        store.ensure(_spec())
        os.makedirs(store.quarantine_dir, exist_ok=True)
        recent = os.path.join(store.quarantine_dir, "recent.trace")
        with open(recent, "w") as handle:
            handle.write("just quarantined")
        ledger = os.path.join(store.quarantine_dir, HEAL_LOG_NAME)
        with open(ledger, "w") as handle:
            handle.write("{}\n")
        os.utime(ledger, (0, 0))  # ancient, but never swept
        assert store.gc() == []
        assert os.path.exists(recent)
        assert os.path.exists(ledger)

    def test_gc_keep_days_tightens_the_window(self, store):
        store.ensure(_spec())
        os.makedirs(store.quarantine_dir, exist_ok=True)
        blob = os.path.join(store.quarantine_dir, "damaged.trace")
        with open(blob, "w") as handle:
            handle.write("x" * 100)
        assert store.gc() == []  # younger than the default window
        removed = store.gc(keep_days=0.0)
        assert blob in removed
        assert store.reclaimed_bytes == 100

    def test_manifest_is_valid_json(self, store):
        store.ensure(_spec())
        with open(store.manifest_path) as handle:
            document = json.load(handle)
        assert document["manifest_version"] == MANIFEST_VERSION
        (entry,) = document["entries"].values()
        assert entry["scenario"] == "server-churn"


class TestFigureResolution:
    def test_corpus_slowdown_equals_live_slowdown(self, store):
        profile = SPEC_PROFILES["mcf"]
        scenario = Scenario(policy=("fixed", 2))
        live = slowdown(profile, scenario, instructions=INSTRUCTIONS)
        via_corpus = store.slowdown(profile, scenario, INSTRUCTIONS)
        assert via_corpus == live
        # Second resolution is a pure corpus hit.
        built = store.built
        assert store.slowdown(profile, scenario, INSTRUCTIONS) == live
        assert store.built == built

    def test_variant_config_prices_the_same_trace(self, store):
        profile = SPEC_PROFILES["astar"]
        live = slowdown(
            profile,
            Scenario.baseline(),
            instructions=INSTRUCTIONS,
            variant_config=WESTMERE.with_extra_latency(1),
        )
        via_corpus = store.slowdown(
            profile,
            Scenario.baseline(),
            INSTRUCTIONS,
            variant_config=WESTMERE.with_extra_latency(1),
        )
        assert via_corpus == live
        # Baseline and variant share one recorded object.
        assert store.built == 1

    def test_figure_spec_is_deterministic(self):
        profile = SPEC_PROFILES["mcf"]
        scenario = Scenario(policy=("fixed", 3))
        assert figure_spec(profile, scenario, 1000) == figure_spec(
            profile, scenario, 1000
        )


class TestAttackReplayInCorpus:
    def test_attack_mix_round_trips_through_the_store(self, store):
        resolved = store.ensure(_spec("attack-replay"))
        assert resolved.entry.driver == "attacks"
        result = replay_timing(resolved.path)
        assert result.benchmark == "attack-replay"
        assert result.alloc_events > 0  # grooming churn was recorded

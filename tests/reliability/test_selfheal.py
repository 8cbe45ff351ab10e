"""Self-healing corpus store: every fault kind, every consumer."""

import hashlib
import json
import multiprocessing
import os
import shutil
from dataclasses import replace

import pytest

from repro.corpus.manifest import (
    ManifestEntry,
    ManifestLockTimeout,
    manifest_lock,
    save_manifest,
)
from repro.corpus.store import CorpusStore, canonical_digest
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    inject_object_fault,
    inject_store_faults,
)
from repro.reliability.matrix import (
    CORPUS_CASES,
    _corpus_case,
    _matrix_spec,
)
from repro.corpus import __main__ as corpus_cli
from repro.traces.compress import CompressedTraceWriter
from repro.traces.format import EV_LOAD, TraceReader


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A pristine single-object store every test copies, never mutates."""
    root = str(tmp_path_factory.mktemp("pristine") / "corpus")
    digest = CorpusStore(root).ensure(_spec()).entry.digest
    return root, digest


# The tests damage and re-heal the same tiny workload the CI matrix uses.
_spec = _matrix_spec


def _damaged_copy(template, tmp_path, kind, seed=1):
    root, digest = template
    copy = str(tmp_path / "corpus")
    shutil.copytree(root, copy)
    actions = inject_store_faults(
        CorpusStore(copy), FaultPlan((FaultSpec(kind=kind, seed=seed),))
    )
    assert actions, f"{kind} fault did not apply"
    return copy, digest


class TestMatrix:
    """The same cells ``python -m repro faults matrix`` runs in CI."""

    @pytest.mark.parametrize(
        "kind,consumer", CORPUS_CASES, ids=[f"{k}-{c}" for k, c in CORPUS_CASES]
    )
    def test_cell_heals(self, template, tmp_path, kind, consumer):
        root, digest = template
        pristine = str(tmp_path / "pristine")
        shutil.copytree(root, pristine)
        # The matrix spec is the full-length one; rebuilds must use it.
        case = _corpus_case(
            pristine, str(tmp_path / "case"), kind, consumer, digest
        )
        assert case.ok, case.detail


class TestEnsureHeals:
    @pytest.mark.parametrize("kind", ["bitflip", "truncate", "delete"])
    def test_converges_to_pristine_digest(self, template, tmp_path, kind):
        copy, digest = _damaged_copy(template, tmp_path, kind)
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built  # the heal re-recorded
        assert resolved.entry.digest == digest
        assert store.healed == 1
        assert CorpusStore(copy).verify() == []

    def test_damaged_bytes_are_quarantined_not_destroyed(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        store.ensure(_spec())
        quarantined = [
            name
            for name in os.listdir(store.quarantine_dir)
            if name.endswith(".trace")
        ]
        assert quarantined == [f"{digest}.trace"]

    def test_heal_ledger_records_scenario_reason_action(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        cursor = store.heal_log_size()
        store.ensure(_spec())
        events = store.heal_events(since=cursor)
        assert len(events) == 1
        assert events[0]["scenario"] == _spec().name
        assert events[0]["digest"] == digest
        assert "quarantined" in events[0]["action"]

    def test_verified_cache_skips_rehash_but_not_first_read(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        store.ensure(_spec())  # heals by re-recording
        healed_before = store.healed
        store.ensure(_spec())  # a pure hit: one stored-bytes hash
        assert store.healed == healed_before
        assert store.hits == 1

    def test_damage_between_two_hits_heals_at_the_second(
        self, template, tmp_path
    ):
        root, digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        store = CorpusStore(copy)
        first = store.ensure(_spec())
        assert not first.built
        inject_object_fault(first.path, digest, "bitflip", seed=1)
        second = store.ensure(_spec())  # same handle: nothing memoised
        assert second.built
        assert second.entry.digest == digest
        assert second.result == first.result
        assert store.healed == 1



#: Records a CALTRC02 frame encodes and inflates cleanly, but the
#: canonical ``<BQI`` record layout the digest hashes cannot hold.
OUT_OF_LAYOUT = [(EV_LOAD, -64, 8), (EV_LOAD, 64, 1 << 33)]


def _out_of_layout_copy(template, tmp_path, record):
    """A store copy whose one object holds ``record`` and nothing else."""
    root, digest = template
    copy = str(tmp_path / "corpus")
    shutil.copytree(root, copy)
    path = CorpusStore(copy).object_path(digest)
    with TraceReader(path) as reader:
        header = reader.header
    with CompressedTraceWriter(path, header) as writer:
        writer.append_columns(*zip(record))
        writer.set_footer({"records": 1})
    return copy, digest


class TestOutOfLayoutRecords:
    @pytest.mark.parametrize("record", OUT_OF_LAYOUT, ids=["address", "arg"])
    def test_ensure_heals(self, template, tmp_path, record):
        copy, digest = _out_of_layout_copy(template, tmp_path, record)
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built
        assert resolved.entry.digest == digest
        assert store.healed == 1
        events = store.heal_events()
        assert "canonical <BQI record layout" in events[0]["reason"]

    @pytest.mark.parametrize("record", OUT_OF_LAYOUT, ids=["address", "arg"])
    def test_verify_reports_and_repair_heals(self, template, tmp_path, record):
        copy, digest = _out_of_layout_copy(template, tmp_path, record)
        (problem,) = CorpusStore(copy).verify()
        assert "unreadable" in problem and "record 0" in problem
        problems, actions = CorpusStore(copy).repair()
        assert len(problems) == len(actions) == 1
        assert CorpusStore(copy).verify() == []


def _footer_tampered_copy(template, tmp_path):
    """A store copy whose object's footer overstates its L1 accesses.

    The object is rewritten with the same records and re-bound in the
    manifest under its new digest and stored hash, so every hash check
    passes and only a replay can tell the footer is wrong.
    """
    root, digest = template
    copy = str(tmp_path / "corpus")
    shutil.copytree(root, copy)
    store = CorpusStore(copy)
    pristine = store.object_path(digest)
    with TraceReader(pristine) as reader:
        header = reader.header
        batches = list(reader.column_batches())
        footer = dict(reader.footer)
    events = footer["events"]
    footer["events"] = dict(events, l1_accesses=events["l1_accesses"] + 1)
    tampered = str(tmp_path / "tampered.trace")
    with CompressedTraceWriter(tampered, header) as writer:
        for batch in batches:
            writer.append_columns(batch.kind, batch.address, batch.arg)
        writer.set_footer(footer)
    new_digest, raw_bytes, _footer = canonical_digest(tampered)
    with open(tampered, "rb") as handle:
        stored = handle.read()
    target = store.object_path(new_digest)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    os.replace(tampered, target)
    os.remove(pristine)
    with manifest_lock(copy):
        manifest = store.manifest()
        (entry,) = manifest.entries.values()
        manifest.put(
            replace(
                entry,
                digest=new_digest,
                raw_bytes=raw_bytes,
                stored_bytes=len(stored),
                stored_sha256=hashlib.sha256(stored).hexdigest(),
            )
        )
        save_manifest(manifest, store.manifest_path)
    return copy, digest, events["l1_accesses"]


class TestFooterTrust:
    def test_hit_trusts_the_footer_of_verified_bytes(self, template, tmp_path):
        copy, _digest, l1_accesses = _footer_tampered_copy(template, tmp_path)
        resolved = CorpusStore(copy).ensure(_spec())
        assert not resolved.built
        assert resolved.result.events.l1_accesses == l1_accesses + 1

    def test_verify_reports_and_repair_restores(
        self, template, tmp_path, capsys
    ):
        copy, digest, _l1 = _footer_tampered_copy(template, tmp_path)
        assert corpus_cli.main(["--root", copy, "verify"]) == 1
        assert "replay disagrees with its footer" in capsys.readouterr().err
        assert corpus_cli.main(["--root", copy, "verify", "--repair"]) == 0
        (entry,) = CorpusStore(copy).manifest().entries.values()
        assert entry.digest == digest
        assert CorpusStore(copy).verify() == []


class TestReplayHeals:
    def test_run_result_survives_damage(self, template, tmp_path):
        copy, _digest = _damaged_copy(template, tmp_path, "truncate")
        result = CorpusStore(copy).run_result(_spec())
        assert result.instructions > 0
        assert CorpusStore(copy).verify() == []

    def test_object_deleted_after_verification(self, template, tmp_path):
        """Damage landing after an ``ensure`` — the deleted-mid-walk
        shape — heals at ``run_result``'s own resolution."""
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        os.remove(resolved.path)
        result = store.run_result(_spec())
        assert result.instructions > 0
        assert store.healed == 1
        assert os.path.exists(resolved.path)  # re-recorded in place


class TestManifestHeals:
    def test_corrupt_manifest_file_quarantines_and_starts_empty(
        self, template, tmp_path
    ):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        with open(os.path.join(copy, "manifest.json"), "w") as handle:
            handle.write("{not json")
        store = CorpusStore(copy)
        assert store.manifest().entries == {}
        assert os.path.exists(
            os.path.join(store.quarantine_dir, "manifest.corrupt.json")
        )
        events = store.heal_events()
        assert events[-1]["scenario"] == "<manifest>"
        # Re-ensure rebuilds the binding, converging on the same object.
        assert store.ensure(_spec()).entry.digest == digest

    def test_old_manifest_version_heals_like_a_corrupt_one(
        self, template, tmp_path
    ):
        root, digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        path = os.path.join(copy, "manifest.json")
        with open(path) as handle:
            document = json.load(handle)
        document["manifest_version"] = 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        store = CorpusStore(copy)
        assert store.manifest().entries == {}
        assert os.path.exists(
            os.path.join(store.quarantine_dir, "manifest.corrupt.json")
        )
        resolved = store.ensure(_spec())
        assert resolved.built
        assert resolved.entry.digest == digest

    def test_corrupt_entry_heals_through_ensure(self, template, tmp_path):
        copy, digest = _damaged_copy(template, tmp_path, "corrupt-entry")
        resolved = CorpusStore(copy).ensure(_spec())
        assert resolved.entry.digest == digest
        assert CorpusStore(copy).verify() == []


def _files(root):
    """Every file under ``root`` with its bytes."""
    found = {}
    for dirpath, _dirnames, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


class TestTornJournal:
    """A build killed mid-append leaves a torn final journal line."""

    def test_readers_skip_the_torn_line_and_write_nothing(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "torn-journal")
        before = _files(copy)
        with open(os.path.join(copy, "manifest.journal"), "rb") as handle:
            assert not handle.read().endswith(b"\n")
        store = CorpusStore(copy)
        assert store.manifest().entries == {}  # only that entry is lost
        assert _files(copy) == before
        assert store.heal_events() == []

    def test_the_next_build_cuts_it_and_converges(self, template, tmp_path):
        root, digest = template
        copy, _digest = _damaged_copy(template, tmp_path, "torn-journal")
        with open(os.path.join(copy, "manifest.journal"), "rb") as handle:
            torn = handle.read().rsplit(b"\n", 1)[-1]
        store = CorpusStore(copy)
        resolved = store.ensure(_spec())
        assert resolved.built and resolved.entry.digest == digest
        (event,) = store.heal_events()
        assert "torn final journal line" in event["reason"]
        (kept,) = [
            name
            for name in os.listdir(store.quarantine_dir)
            if name.startswith("manifest.torn.")
        ]
        with open(os.path.join(store.quarantine_dir, kept), "rb") as handle:
            assert handle.read() == torn
        with open(store.journal_path, "rb") as handle:
            assert handle.read().endswith(b"\n")
        assert (
            CorpusStore(copy).manifest().entries
            == CorpusStore(root).manifest().entries
        )

    def test_a_corrupt_complete_line_quarantines_the_manifest(
        self, template, tmp_path
    ):
        root, digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        with open(os.path.join(copy, "manifest.journal"), "ab") as handle:
            handle.write(b'{"manifest_journal": 3}\n{not json}\n')
        store = CorpusStore(copy)
        assert store.manifest().entries == {}
        assert os.path.exists(
            os.path.join(store.quarantine_dir, "manifest.corrupt.journal")
        )
        assert store.ensure(_spec()).entry.digest == digest


class TestRepair:
    def test_repair_restores_byte_identically(self, template, tmp_path):
        copy, digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        problems, actions = store.repair()
        assert len(problems) == len(actions) == 1
        assert "restored byte-identically" in actions[0]
        assert digest[:12] in actions[0]
        assert store.verify() == []

    def test_orphan_entry_is_dropped_as_unrecoverable(
        self, template, tmp_path
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "orphan-entry")
        store = CorpusStore(copy)
        problems, actions = store.repair()
        assert len(problems) == 1
        assert "no recorded spec" in actions[0]
        assert store.verify() == []

    def test_spec_less_legacy_entry_is_dropped_with_diagnostic(
        self, template, tmp_path
    ):
        # Pre-reliability manifests carry no spec document; a damaged
        # object under one cannot be re-recorded, only dropped.
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        store = CorpusStore(copy)
        with manifest_lock(copy):
            manifest = store.manifest()
            (fingerprint,) = manifest.entries
            entry = manifest.entries[fingerprint]
            manifest.put(
                ManifestEntry(**{**entry.to_dict(), "spec": None})
            )
            save_manifest(manifest, store.manifest_path)
        problems, actions = store.repair()
        assert len(problems) == 1
        assert "no recorded spec" in actions[0]
        assert store.manifest().entries == {}


class TestVerifyCli:
    def test_verify_exits_nonzero_on_damage(self, template, tmp_path, capsys):
        copy, _digest = _damaged_copy(template, tmp_path, "bitflip")
        assert corpus_cli.main(["--root", copy, "verify"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "--repair" in captured.err

    def test_verify_repair_heals_and_exits_zero(
        self, template, tmp_path, capsys
    ):
        copy, _digest = _damaged_copy(template, tmp_path, "truncate")
        assert corpus_cli.main(["--root", copy, "verify", "--repair"]) == 0
        captured = capsys.readouterr()
        assert "HEAL" in captured.err
        assert "healed" in captured.out
        assert corpus_cli.main(["--root", copy, "verify"]) == 0

    def test_verify_repair_on_clean_store_is_a_no_op(
        self, template, tmp_path, capsys
    ):
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        assert corpus_cli.main(["--root", copy, "verify", "--repair"]) == 0
        assert "0 problem(s) healed" in capsys.readouterr().out


class TestLockTimeout:
    def test_times_out_with_diagnostics_under_contention(self, tmp_path):
        root = str(tmp_path / "corpus")
        os.makedirs(root)
        ready = multiprocessing.Event()
        holder = multiprocessing.Process(
            target=_hold_and_signal, args=(root, 1.5, ready)
        )
        holder.start()
        try:
            assert ready.wait(timeout=10.0), "holder never took the lock"
            with pytest.raises(
                ManifestLockTimeout, match="manifest lock"
            ) as caught:
                with manifest_lock(root, timeout=0.1):
                    pass
            message = str(caught.value)
            assert "manifest.lock" in message
            assert "pid" in message  # the holder breadcrumb
        finally:
            holder.join()

    def test_env_var_overrides_default_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "0.05")
        root = str(tmp_path / "corpus")
        with manifest_lock(root):  # uncontended: env timeout is inert
            pass

    def test_leftover_lock_file_never_blocks(self, template, tmp_path):
        # flock evaporates with its holder: a lock file left by a dead
        # process is inert and acquisition is immediate.
        root, _digest = template
        copy = str(tmp_path / "corpus")
        shutil.copytree(root, copy)
        with open(os.path.join(copy, "manifest.lock"), "w") as handle:
            handle.write("pid 999999")
        with manifest_lock(copy, timeout=0.5):
            pass


def _hold_and_signal(root, seconds, ready):
    from repro.corpus.manifest import manifest_lock as lock
    import time

    with lock(root, timeout=5.0):
        ready.set()
        time.sleep(seconds)

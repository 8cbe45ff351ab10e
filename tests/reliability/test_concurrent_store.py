"""Concurrent corpus access: two processes racing on the same store."""

import glob
import multiprocessing
import os

from repro.corpus.store import CorpusStore
from repro.traces.registry import CORPUS

INSTRUCTIONS = 2_500
SCENARIOS = sorted(CORPUS)[:2]


def _spec(name):
    return CORPUS[name].scaled(INSTRUCTIONS)


def _ensure_in_child(root, name, start, out):
    """Process entry point: ensure one spec, report (digest, built)."""
    start.wait()  # maximise overlap between the racing builders
    resolved = CorpusStore(root).ensure(_spec(name))
    out.put((name, resolved.entry.digest, resolved.built))


def _race(root, names):
    start = multiprocessing.Event()
    out = multiprocessing.Queue()
    workers = [
        multiprocessing.Process(
            target=_ensure_in_child, args=(root, name, start, out)
        )
        for name in names
    ]
    for worker in workers:
        worker.start()
    start.set()
    results = [out.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0
    return results


class TestConcurrentEnsure:
    def test_same_spec_from_two_processes_converges(self, tmp_path):
        root = str(tmp_path / "corpus")
        name = SCENARIOS[0]
        results = _race(root, [name, name])
        digests = {digest for _name, digest, _built in results}
        assert len(digests) == 1  # deterministic recording converged
        store = CorpusStore(root)
        manifest = store.manifest()
        assert len(manifest.entries) == 1
        (entry,) = manifest.entries.values()
        assert entry.digest in digests
        assert os.path.exists(store.object_path(entry.digest))
        assert store.verify() == []
        # No half-written temp recordings survive the race.
        assert not glob.glob(
            os.path.join(root, "objects", "**", "*.recording"),
            recursive=True,
        )

    def test_different_specs_merge_atomically(self, tmp_path):
        """Two builders writing different entries must both land: the
        read-modify-write manifest update is lock-serialised."""
        root = str(tmp_path / "corpus")
        results = _race(root, SCENARIOS)
        assert all(built for _name, _digest, built in results)
        manifest = CorpusStore(root).manifest()
        assert sorted(
            entry.scenario for entry in manifest.entries.values()
        ) == SCENARIOS

    def test_rerace_after_convergence_is_pure_hits(self, tmp_path):
        root = str(tmp_path / "corpus")
        name = SCENARIOS[0]
        _race(root, [name, name])
        results = _race(root, [name, name])
        assert all(not built for _name, _digest, built in results)


def _ensure_all_in_child(root, names, start, out):
    """Process entry point: ensure several specs in order."""
    start.wait()
    store = CorpusStore(root)
    for name in names:
        store.ensure(_spec(name))
    out.put(store.built)


class TestConcurrentBuilders:
    def test_interleaved_builders_converge_on_one_manifest(self, tmp_path):
        """Two builders append to one journal in turn (folding it into
        the snapshot as it grows); a fresh reader sees exactly the
        entries one builder alone would have written."""
        names = sorted(CORPUS)[:5]
        root = str(tmp_path / "corpus")
        start = multiprocessing.Event()
        out = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_ensure_all_in_child, args=(root, order, start, out)
            )
            for order in (names, names[::-1])
        ]
        for worker in workers:
            worker.start()
        start.set()
        built = [out.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        assert sum(built) >= len(names)
        alone = CorpusStore(str(tmp_path / "alone"))
        for name in names:
            alone.ensure(_spec(name))
        store = CorpusStore(root)
        assert store.manifest().entries == alone.manifest().entries
        assert store.verify() == []
        assert store.heal_events() == []
        if os.path.exists(store.journal_path):
            with open(store.journal_path, "rb") as handle:
                assert handle.read().endswith(b"\n")


class TestDeletedMidWalk:
    def test_object_deleted_between_resolution_and_replay_heals(
        self, tmp_path
    ):
        root = str(tmp_path / "corpus")
        store = CorpusStore(root)
        spec = _spec(SCENARIOS[0])
        resolved = store.ensure(spec)
        reader = CorpusStore(root)  # separate handle, e.g. another section
        hit = reader.ensure(spec)  # a verified hit
        os.remove(hit.path)  # a third party deletes it mid-walk
        result = reader.run_result(spec)
        assert result.instructions > 0
        assert reader.healed == 1
        assert os.path.exists(resolved.path)  # healed back in place
        events = reader.heal_events()
        assert any("missing" in event["reason"] for event in events)

    def test_heal_is_visible_to_concurrent_handles(self, tmp_path):
        root = str(tmp_path / "corpus")
        spec = _spec(SCENARIOS[0])
        first = CorpusStore(root)
        digest = first.ensure(spec).entry.digest
        os.remove(first.object_path(digest))
        healed = CorpusStore(root).run_result(spec)
        assert healed.instructions > 0
        # The first handle's next resolution sees the restored binding.
        resolved = first.ensure(spec)
        assert resolved.entry.digest == digest

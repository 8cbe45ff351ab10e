"""Pack files: framing, round-trip identity, verification, CLI."""

import os
import struct

import pytest

from repro.corpus.__main__ import main
from repro.corpus.packs import (
    PACK_MAGIC,
    list_packs,
    pack_id,
    read_pack,
    unpack,
    verify_pack,
    write_pack,
)
from repro.corpus.store import CorpusStore, spec_fingerprint
from repro.traces.compress import CompressedTraceWriter
from repro.traces.format import EV_LOAD, TraceFormatError, TraceReader
from repro.traces.registry import CORPUS

INSTRUCTIONS = 2_000


def _spec(name):
    return CORPUS[name].scaled(INSTRUCTIONS)


@pytest.fixture()
def store(tmp_path):
    store = CorpusStore(str(tmp_path / "corpus"))
    store.ensure(_spec("server-churn"))
    store.ensure(_spec("pointer-chase"))
    return store


class TestWriteRead:
    def test_content_addressed_default_path(self, store):
        path, identifier, count = write_pack(store)
        assert count == 2
        assert os.path.basename(path) == f"{identifier}.pack"
        assert pack_id(path) == identifier
        assert list_packs(store.root) == [(identifier, path)]

    def test_index_carries_manifest_entries(self, store):
        path, _identifier, _count = write_pack(store)
        info = read_pack(path)
        scenarios = sorted(member.entry.scenario for member in info.members)
        assert scenarios == ["pointer-chase", "server-churn"]
        assert info.stored_bytes == sum(
            member.stored_bytes for member in info.members
        )

    def test_scenario_selection(self, store, tmp_path):
        out = str(tmp_path / "one.pack")
        path, _identifier, count = write_pack(
            store, out=out, names=["pointer-chase"]
        )
        assert (path, count) == (out, 1)
        info = read_pack(path)
        assert info.members[0].entry.scenario == "pointer-chase"

    def test_unknown_scenario_raises_before_writing(self, store, tmp_path):
        with pytest.raises(KeyError, match="nope"):
            write_pack(store, out=str(tmp_path / "x.pack"), names=["nope"])
        assert not os.path.exists(tmp_path / "x.pack")

    def test_empty_corpus_refused(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to pack"):
            write_pack(CorpusStore(str(tmp_path / "empty")))

    def test_missing_object_refused(self, store):
        entry = next(iter(store.manifest().entries.values()))
        os.remove(store.object_path(entry.digest))
        with pytest.raises(FileNotFoundError):
            write_pack(store)


class TestRoundTrip:
    def test_unpack_restores_digest_identical_store(self, store, tmp_path):
        path, _identifier, _count = write_pack(store)
        other = CorpusStore(str(tmp_path / "other"))
        installed, skipped = unpack(path, other)
        assert len(installed) == 2 and skipped == []
        assert (
            other.manifest().entries.keys() == store.manifest().entries.keys()
        )
        for entry in store.manifest().entries.values():
            with open(store.object_path(entry.digest), "rb") as source:
                original = source.read()
            with open(other.object_path(entry.digest), "rb") as target:
                assert target.read() == original

    def test_unpacked_store_hits_without_recording(self, store, tmp_path):
        path, _identifier, _count = write_pack(store)
        other = CorpusStore(str(tmp_path / "other"))
        unpack(path, other)
        resolved = other.ensure(_spec("server-churn"))
        assert not resolved.built
        assert other.built == 0

    def test_reunpack_skips_present_objects(self, store, tmp_path):
        path, _identifier, _count = write_pack(store)
        other = CorpusStore(str(tmp_path / "other"))
        unpack(path, other)
        installed, skipped = unpack(path, other)
        assert installed == [] and len(skipped) == 2


class TestDamage:
    def test_verify_clean_pack(self, store):
        path, _identifier, _count = write_pack(store)
        assert verify_pack(path) == []

    def test_bad_magic_rejected(self, store, tmp_path):
        bad = tmp_path / "bad.pack"
        bad.write_bytes(b"NOTAPACK" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="magic"):
            read_pack(str(bad))

    def test_truncated_payload_rejected(self, store):
        path, _identifier, _count = write_pack(store)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)
        with pytest.raises(TraceFormatError, match="payload"):
            read_pack(path)

    def test_flipped_payload_byte_is_detected(self, store, tmp_path):
        path, _identifier, _count = write_pack(store)
        info = read_pack(path)
        with open(path, "r+b") as handle:
            handle.seek(info.payload_start + 50)
            byte = handle.read(1)
            handle.seek(info.payload_start + 50)
            handle.write(bytes([byte[0] ^ 0xFF]))
        problems = verify_pack(path)
        assert problems
        other = CorpusStore(str(tmp_path / "other"))
        with pytest.raises(TraceFormatError):
            unpack(path, other)
        # Nothing corrupt landed in the target store.
        for entry in store.manifest().entries.values():
            target = other.object_path(entry.digest)
            if os.path.exists(target):
                from repro.corpus.store import canonical_digest

                digest, _raw, _footer = canonical_digest(target)
                assert digest == entry.digest

    @pytest.mark.parametrize(
        "record", [(EV_LOAD, -64, 8), (EV_LOAD, 64, 1 << 33)],
        ids=["address", "arg"],
    )
    def test_out_of_layout_member_is_unreadable(self, store, record):
        # The member inflates cleanly, but one record does not fit the
        # canonical <BQI layout the digest hashes.
        entry = store.manifest().entries[
            spec_fingerprint(_spec("pointer-chase"))
        ]
        object_path = store.object_path(entry.digest)
        with TraceReader(object_path) as reader:
            header = reader.header
        with CompressedTraceWriter(object_path, header) as writer:
            writer.append(*record)
            writer.set_footer({"records": 1})
        path, _identifier, _count = write_pack(store)
        (problem,) = verify_pack(path)
        assert problem.startswith("pointer-chase: unreadable:")
        assert "canonical <BQI record layout" in problem

    def test_bad_index_version(self, store):
        path, _identifier, _count = write_pack(store)
        with open(path, "rb") as handle:
            handle.read(len(PACK_MAGIC))
            (length,) = struct.unpack("<I", handle.read(4))
            index = handle.read(length)
        tampered = index.replace(b'"pack_version": 1', b'"pack_version": 9')
        with open(path, "r+b") as handle:
            handle.seek(len(PACK_MAGIC) + 4)
            handle.write(tampered)
        with pytest.raises(TraceFormatError, match="version"):
            read_pack(path)


class TestPackCLI:
    def test_pack_then_unpack(self, store, tmp_path, capsys):
        assert main(["--root", store.root, "pack"]) == 0
        out = capsys.readouterr().out
        assert "packed 2 object(s)" in out
        identifier, path = list_packs(store.root)[0]
        other_root = str(tmp_path / "other")
        assert main(["--root", other_root, "unpack", path]) == 0
        out = capsys.readouterr().out
        assert "2 object(s) installed" in out
        assert CorpusStore(other_root).manifest().entries.keys() == (
            store.manifest().entries.keys()
        )

    def test_unpack_refuses_damaged_pack(self, store, tmp_path, capsys):
        path, _identifier, _count = write_pack(store)
        info = read_pack(path)
        with open(path, "r+b") as handle:
            handle.seek(info.payload_start + 10)
            byte = handle.read(1)
            handle.seek(info.payload_start + 10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["--root", str(tmp_path / "o"), "unpack", path]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_pack_scenario_filter(self, store, capsys):
        assert main(
            ["--root", store.root, "pack", "--scenario", "pointer-chase"]
        ) == 0
        assert "packed 1 object(s)" in capsys.readouterr().out

"""CALTRC02: codec correctness, CALTRC01 equivalence, error paths.

The acceptance gate for the compressed container: across the whole
scenario registry, a CALTRC02 recording holds the record stream of its
CALTRC01 twin (the canonical stream, written by ``oracle.RecordWriter``)
and replays bit-identically to it — single-core, sharded and multi-core
— while shrinking the canonical size by well over the 4x target on
compressible mixes; ``oracle transcode`` turns the twin back into the
recording byte for byte.
"""

import hashlib
import io
import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import encode_frame
from repro.memory import kernel
from repro.corpus.store import canonical_digest
from repro.traces import CORPUS, compress, record_spec, replay_timing
from repro.traces.compress import (
    MAX_FRAME_RECORDS,
    CompressedTraceWriter,
    _decode_frame_tokens,
    _decode_frames_fast,
    compression_summary,
    frame_stats,
    tail_footer,
)
from repro.traces.format import (
    EV_ALLOC,
    EV_CFORM,
    EV_EPOCH,
    EV_LOAD,
    EV_STORE,
    MAGIC,
    TraceFormatError,
    TraceReader,
)
from repro.traces.replayer import replay_multicore, replay_shards, shard_trace

INSTRUCTIONS = 5_000

ALL_SCENARIOS = sorted(CORPUS)


def _rows(columns):
    """One :class:`RecordColumns` batch as ``(kind, address, arg)`` tuples."""
    return list(
        zip(
            columns.kind.tolist(),
            columns.address.tolist(),
            columns.arg.tolist(),
        )
    )


def _reader_rows(reader):
    return [row for batch in reader.column_batches() for row in _rows(batch)]


def _columnar_decode(payload, record_count):
    """Production's two frame decoders: the vectorized fast path and the
    token walk it falls back to (which must agree wherever both run)."""
    tokens = zlib.decompress(payload)
    walked = _decode_frame_tokens(tokens, record_count)
    fast = _decode_frames_fast(tokens, record_count)
    if fast is not None:
        assert _rows(fast) == _rows(walked)
    return _rows(walked)


# -- token/frame codec --------------------------------------------------------


class TestFrameCodec:
    def roundtrip(self, records):
        payload = encode_frame(records)
        assert list(oracle.decode_frame(payload, len(records))) == records
        if all(address < 2**63 for _, address, _ in records):
            assert _columnar_decode(payload, len(records)) == records
        return payload

    def test_empty_frame(self):
        self.roundtrip([])

    def test_mixed_records(self):
        self.roundtrip(
            [
                (EV_LOAD, 0x1000, 8),
                (EV_STORE, 0x7FFF_0000, 8),
                (EV_CFORM, 0xDEAD_BEEF_0000, 3),
                (EV_ALLOC, 0x2000, 96),
                (EV_EPOCH, 0, 0),
            ]
        )

    def test_u64_bounds_and_negative_deltas(self):
        self.roundtrip(
            [
                (EV_LOAD, 2**64 - 1, 2**32 - 1),
                (EV_LOAD, 0, 0),
                (EV_STORE, 2**63, 8),
            ]
        )
        # The columnar decoder's int64 address column refuses the top
        # half of the u64 range with a diagnosis, never a wrapped value.
        payload = encode_frame([(EV_LOAD, 2**64 - 1, 8)])
        with pytest.raises(TraceFormatError, match="int64"):
            _columnar_decode(payload, 1)
        # The production writer refuses such records up front, naming
        # the column, instead of writing a trace no reader can decode.
        refused = [
            ((200, 64, 8), "kind"),
            ((EV_LOAD, 2**64 - 1, 8), "address"),
            ((EV_LOAD, -(2**63) - 1, 8), "address"),
            ((EV_LOAD, 64, -1), "arg"),
            ((EV_LOAD, 64, 2**63), "arg"),
            ((EV_LOAD, 64, 2**63 + 5), "arg"),
        ]
        for record, column in refused:
            writer = CompressedTraceWriter(io.BytesIO(), {})
            with pytest.raises(TraceFormatError, match=column):
                writer.append_columns(*zip(record))
            with pytest.raises(TraceFormatError, match=column):
                writer.append_columns(
                    np.array([record[0]], dtype=np.uint8),
                    np.array([record[1]], dtype=object),
                    np.array([record[2]], dtype=object),
                )
            assert writer.record_count == 0
        writer = CompressedTraceWriter(io.BytesIO(), {})
        with pytest.raises(TraceFormatError, match="address"):
            writer.append_columns(
                np.array([EV_LOAD], dtype=np.uint8),
                np.array([2**63], dtype=np.uint64),
                np.array([8]),
            )
        # Two int64 addresses of one frame whose delta int64 cannot hold.
        writer = CompressedTraceWriter(io.BytesIO(), {})
        writer.append_columns((EV_LOAD,), (-(2**62) - 1,), (8,))
        writer.append_columns((EV_STORE,), (2**62,), (8,))
        with pytest.raises(TraceFormatError, match="address"):
            writer.close()
        payload = encode_frame(
            [(EV_LOAD, -(2**62) - 1, 8), (EV_STORE, 2**62, 8)]
        )
        with pytest.raises(TraceFormatError, match="address delta"):
            _columnar_decode(payload, 2)

    def test_arg_overflow_is_named(self):
        payload = encode_frame([(EV_LOAD, 64, 2**63 + 5)])
        with pytest.raises(TraceFormatError, match="arg"):
            _columnar_decode(payload, 1)

    def test_negative_addresses_and_wide_args_decode(self):
        # Out of the canonical <BQI layout, but well-formed tokens: the
        # decoders yield them, and the corpus digest rejects them.
        self.roundtrip([(EV_LOAD, -64, 8), (EV_STORE, 64, 1 << 33)])

    def test_monotone_run_collapses(self):
        # A constant-stride scan should tokenise far below one byte per
        # record even before deflate sees it.
        scan = [(EV_LOAD, 0x4000 + index * 64, 8) for index in range(10_000)]
        payload = self.roundtrip(scan)
        assert len(zlib.decompress(payload)) < len(scan)  # < 1 B/record

    def test_descending_run(self):
        self.roundtrip(
            [(EV_LOAD, 0x9000 - index * 8, 8) for index in range(100)]
        )

    def test_runs_broken_by_kind_or_arg(self):
        records = []
        for index in range(50):
            kind = EV_LOAD if index % 7 else EV_STORE
            arg = 8 if index % 11 else 4
            records.append((kind, 0x1000 + index * 64, arg))
        self.roundtrip(records)

    def test_record_count_mismatch_detected(self):
        payload = encode_frame([(EV_LOAD, 64, 8)] * 10)
        with pytest.raises(TraceFormatError, match="promised"):
            list(oracle.decode_frame(payload, 11))
        assert _decode_frames_fast(zlib.decompress(payload), 11) is None
        with pytest.raises(TraceFormatError, match="promised"):
            _columnar_decode(payload, 11)


# -- columnar encoder vs the per-record oracle --------------------------------


def _production_bytes(records, block):
    """The stream written by :class:`CompressedTraceWriter`, handed over
    in ``append_columns`` blocks of ``block`` records."""
    buffer = io.BytesIO()
    columns = list(zip(*records)) or [(), (), ()]
    kinds = np.array(columns[0], dtype=np.uint8)
    addresses = np.array(columns[1], dtype=np.int64)
    args = np.array(columns[2], dtype=np.int64)
    with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
        for start in range(0, len(records), block):
            stop = start + block
            writer.append_columns(
                kinds[start:stop], addresses[start:stop], args[start:stop]
            )
        writer.set_footer({"records": writer.record_count})
    return buffer.getvalue()


def _oracle_bytes(records):
    buffer = io.BytesIO()
    with oracle.FrameWriter(buffer, {"kind": "test"}) as writer:
        for record in records:
            writer.append(*record)
        writer.set_footer({"records": writer.record_count})
    return buffer.getvalue()


#: One constant-stride stretch of records: kind, arg, whether it keeps
#: the previous stretch's kind and arg, whether it continues from the
#: previous stretch's last address (so that record ends one stride and
#: starts the next), the stride, the length, and a fresh start address.
#: Lengths 1-6 straddle MIN_RUN; strides cover zero, negative, large
#: and arbitrary steps; starts reach 9-byte varints.
STRETCHES = st.lists(
    st.tuples(
        st.sampled_from([EV_LOAD, EV_STORE, EV_CFORM, EV_ALLOC, EV_EPOCH]),
        st.sampled_from([0, 1, 8, 64, 300]),
        st.booleans(),
        st.booleans(),
        st.one_of(
            st.sampled_from([0, 8, -8, 64, -4096, 1 << 40]),
            st.integers(-(2**20), 2**20),
        ),
        st.integers(1, 6),
        st.one_of(st.integers(0, 2**48), st.integers(-(2**61), 2**61)),
    ),
    max_size=60,
)


def _stretch_records(stretches):
    records = []
    kind, arg = EV_LOAD, 8
    for new_kind, new_arg, keep, carry, stride, length, fresh in stretches:
        if not keep:
            kind, arg = new_kind, new_arg
        start = records[-1][1] + stride if carry and records else fresh
        records.extend(
            (kind, start + index * stride, arg) for index in range(length)
        )
    return records


@settings(max_examples=150, deadline=None)
@given(
    STRETCHES,
    st.sampled_from([3, 5, 16, MAX_FRAME_RECORDS]),
)
def test_columnar_encoder_matches_the_oracle(stretches, frame_cap):
    records = _stretch_records(stretches)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "MAX_FRAME_RECORDS", frame_cap)
        expected = _oracle_bytes(records)
        for block in (1, 7, kernel.TOUCH_BLOCK):
            assert _production_bytes(records, block) == expected


def test_two_runs_sharing_a_boundary_record():
    # Records 0-4 step by 8 and records 4-9 by 64: the first run takes
    # record 4, so the second starts at record 5, one record shorter.
    records = [(EV_LOAD, index * 8, 8) for index in range(5)]
    records += [(EV_LOAD, 32 + index * 64, 8) for index in range(1, 6)]
    expected = _oracle_bytes(records)
    assert _production_bytes(records, len(records)) == expected
    run = EV_LOAD | compress._RUN_FLAG
    tokens = zlib.decompress(encode_frame(records))
    assert tokens[0:2] == bytes([run, 5]) and tokens[5:7] == bytes([run, 5])


def _segment_chain(lengths):
    """Constant-stride segments of ``lengths`` records, strides 8 and 64
    alternating, each starting on the previous segment's last record."""
    records = [(EV_LOAD, 0, 8)]
    for segment, length in enumerate(lengths):
        stride = (8, 64)[segment % 2]
        for _ in range(length - 1):
            records.append((EV_LOAD, records[-1][1] + stride, 8))
    return records


def _token_runs(tokens):
    """Whether each token of a frame's token stream is a run token."""
    runs = []
    offset = 0
    while offset < len(tokens):
        kind = tokens[offset]
        offset += 1
        fields = 4 if kind & compress._RUN_FLAG else 2
        for _ in range(fields):
            _, offset = compress._read_varint(tokens, offset)
        runs.append(bool(kind & compress._RUN_FLAG))
    return runs


@pytest.mark.parametrize("frame_cap", [MAX_FRAME_RECORDS, 7, 9, 10])
def test_a_chain_of_min_run_segments_alternates(frame_cap):
    # Each exactly-MIN_RUN segment after a taken one loses its shared
    # first record and falls short, so the chain is taken every other
    # segment; the 5-record segment is taken either way and restarts
    # the alternation.  Caps 7, 9 and 10 cut frames inside the chain.
    lengths = [compress.MIN_RUN] * 3 + [compress.MIN_RUN + 1]
    lengths += [compress.MIN_RUN] * 3
    records = _segment_chain(lengths)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress, "MAX_FRAME_RECORDS", frame_cap)
        expected = _oracle_bytes(records)
        for block in (1, len(records)):
            assert _production_bytes(records, block) == expected
    # In one frame: runs for segments 0, 2, 3 and 5; plain tokens for
    # the two records segments 1 and 4 keep between runs and the three
    # the last segment keeps.
    runs = _token_runs(zlib.decompress(encode_frame(records)))
    assert runs == [True, False, False, True, True, False, False, True,
                    False, False, False]


def test_leb128_matches_the_oracle_varints():
    values = [0, 0x7F, 0x80, 0x3FFF, 0x4000, 2**63 - 1, 2**64 - 1]
    encoded, offsets = compress._leb128(np.array(values, dtype=np.uint64))
    expected = bytearray()
    starts = []
    for value in values:
        starts.append(len(expected))
        oracle._append_varint(expected, value)
    assert encoded.tobytes() == bytes(expected)
    assert offsets.tolist() == starts


@pytest.mark.parametrize(
    "name, compressed",
    [
        ("dma-mixed", True),
        ("attack-replay", True),
        ("attack-replay", False),
        ("uniform-churn", True),
    ],
)
def test_recorded_trace_matches_its_oracle_reencode(
    name, compressed, tmp_path
):
    # ``compressed=False`` re-encodes the recording's CALTRC01 twin
    # through the per-record RecordWriter.
    if name == "uniform-churn":
        from repro.loadgen.compose import compose_spec
        from repro.loadgen.sets import load_scenarios

        spec = compose_spec(load_scenarios()[name].scaled(0.2))
    else:
        spec = CORPUS[name].scaled(INSTRUCTIONS)
    path = str(tmp_path / f"{name}.trace")
    record_spec(spec, path)
    if name == "dma-mixed":
        with TraceReader(path) as reader:
            assert any(
                (batch.kind == EV_CFORM).any()
                for batch in reader.column_batches()
            )
    if not compressed:
        twin = str(tmp_path / f"{name}.v1.trace")
        oracle.write_canonical(path, twin)
        path = twin
    again = str(tmp_path / "again.trace")
    assert oracle.reencode(path, again) > 0
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


# -- container round-trip -----------------------------------------------------


class TestContainer:
    def _write(self, records, buffer=None):
        buffer = buffer if buffer is not None else io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            if records:
                writer.append_columns(*zip(*records))
            writer.set_footer({"records": len(records)})
        return buffer

    def test_roundtrip_with_epoch_frames(self):
        records = []
        for epoch in range(5):
            records.extend(
                (EV_LOAD, 0x1000 + epoch * 4096 + index * 8, 8)
                for index in range(200)
            )
            records.append((EV_EPOCH, epoch, 0))
        buffer = self._write(records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert _reader_rows(reader) == records
        assert reader.footer == {"records": len(records)}

    def test_epochless_trace_flushes_by_cap(self, tmp_path):
        count = MAX_FRAME_RECORDS + 17
        path = str(tmp_path / "loads.trace")
        with CompressedTraceWriter(path, {"kind": "test"}) as writer:
            writer.append_columns(
                np.full(count, EV_LOAD, dtype=np.uint8),
                np.arange(count, dtype=np.int64) * 8,
                np.full(count, 8, dtype=np.int64),
            )
            writer.set_footer({"records": count})
        assert [records for records, _ in frame_stats(path)] == [
            MAX_FRAME_RECORDS, 17
        ]
        with TraceReader(path) as reader:
            address = np.concatenate(
                [batch.address for batch in reader.column_batches()]
            )
        assert np.array_equal(address, np.arange(count) * 8)

    def test_frames_are_cut_by_size_only(self):
        # Moving the EPOCH records or cutting the input differently
        # changes no frame boundary, and the input blocking no byte.
        count = 3 * MAX_FRAME_RECORDS + 5
        rng = np.random.default_rng(3)
        kinds = rng.choice([EV_LOAD, EV_STORE], count).astype(np.uint8)
        addresses = rng.integers(0, 1 << 20, count) * 8
        args = np.full(count, 8, dtype=np.int64)
        frame_counts = set()
        for epochs in ([], [0, 99, 100, count - 1], range(50, count, 800)):
            marked = kinds.copy()
            marked[list(epochs)] = EV_EPOCH
            written = set()
            for block in (1_000, MAX_FRAME_RECORDS - 1, count):
                buffer = io.BytesIO()
                with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
                    for start in range(0, count, block):
                        stop = start + block
                        writer.append_columns(
                            marked[start:stop], addresses[start:stop],
                            args[start:stop],
                        )
                written.add(buffer.getvalue())
            assert len(written) == 1
            reader = TraceReader(io.BytesIO(written.pop()))
            frame_counts.add(
                tuple(records for _, records, _ in compress._iter_frames(reader))
            )
        assert frame_counts == {(MAX_FRAME_RECORDS,) * 3 + (5,)}

    def test_per_epoch_level_6_frames_still_decode(self):
        # The writer used to cut a frame after every EPOCH record (and at
        # 2**16 records) and deflate it at level 6; such a trace keeps
        # its records, footer and corpus identity.
        records = []
        for epoch in range(40):
            records.extend(
                (EV_LOAD + epoch % 2, 0x1000 + epoch * 4096 + index * 8, 8)
                for index in range(37 * epoch % 300)
            )
            records.append((EV_EPOCH, epoch, 0))
        records.extend((EV_STORE, index * 64, 4) for index in range(10))
        footer = {"records": len(records)}
        header = json.dumps({"kind": "test"}, sort_keys=True).encode()
        old = io.BytesIO()
        old.write(MAGIC + len(header).to_bytes(4, "little") + header)
        ends = [i + 1 for i, row in enumerate(records) if row[0] == EV_EPOCH]
        for start, stop in zip([0] + ends, ends + [len(records)]):
            tokens = zlib.decompress(encode_frame(records[start:stop]))
            payload = zlib.compress(tokens, 6)
            old.write(
                struct.pack("<BII", compress.FRAME_RECORDS, stop - start,
                            len(payload))
            )
            old.write(payload)
        footer_bytes = json.dumps(footer, sort_keys=True).encode()
        old.write(struct.pack("<BI", compress.FRAME_END, len(footer_bytes)))
        old.write(footer_bytes)
        reader = TraceReader(io.BytesIO(old.getvalue()))
        assert len(list(compress._iter_frames(reader))) == 41
        reader = TraceReader(io.BytesIO(old.getvalue()))
        assert _reader_rows(reader) == records
        assert reader.footer == footer
        new = self._write(records)
        assert new.getvalue() != old.getvalue()
        assert canonical_digest(io.BytesIO(old.getvalue())) == canonical_digest(
            io.BytesIO(new.getvalue())
        )

    def test_empty_trace(self):
        buffer = self._write([])
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert list(reader.column_batches()) == []
        assert reader.footer == {"records": 0}

    def test_one_batch_per_frame(self, monkeypatch, tmp_path):
        # Small frames: three full ones and a short last one, written
        # from blocks whose edges fall inside frames.
        monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 1_000)
        rng = np.random.default_rng(5)
        count = 3_000 + 417
        kinds = rng.choice([EV_LOAD, EV_STORE, EV_CFORM], count).astype(
            np.uint8
        )
        addresses = rng.integers(0, 1 << 30, count, dtype=np.int64)
        args = rng.integers(1, 9, count, dtype=np.int64)
        path = str(tmp_path / "frames.trace")
        with CompressedTraceWriter(path, {"kind": "test"}) as writer:
            for part in np.array_split(np.arange(count), 7):
                writer.append_columns(kinds[part], addresses[part], args[part])
            writer.set_footer({"records": count})
        with TraceReader(path) as reader:
            batches = list(reader.column_batches())
        lengths = [records for records, _ in frame_stats(path)]
        assert lengths == [1_000, 1_000, 1_000, 417]
        assert [len(batch) for batch in batches] == lengths
        assert np.array_equal(
            np.concatenate([batch.address for batch in batches]), addresses
        )

    def test_magic_detected(self):
        buffer = self._write([])
        assert buffer.getvalue().startswith(MAGIC) and MAGIC == b"CALTRC02"


# -- whole-registry CALTRC01 <-> CALTRC02 equivalence ------------------------


def _sha256(path: str) -> tuple[str, int]:
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.fixture(scope="module")
def recorded_pairs(tmp_path_factory):
    """Record every registry scenario once, beside its CALTRC01 twin."""
    workdir = tmp_path_factory.mktemp("v1v2")
    pairs = {}
    for name in ALL_SCENARIOS:
        spec = CORPUS[name].scaled(INSTRUCTIONS)
        v1 = str(workdir / f"{name}.v1.trace")
        v2 = str(workdir / f"{name}.v2.trace")
        live = record_spec(spec, v2)
        oracle.write_canonical(v2, v1)
        pairs[name] = (spec, v1, v2, live)
    return pairs


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_v2_record_stream_is_identical(name, recorded_pairs, tmp_path):
    _, v1, v2, _ = recorded_pairs[name]
    with oracle.open_trace(v1) as a, TraceReader(v2) as b:
        left = np.array(list(oracle.records(a)), dtype=np.int64)
        right = list(b.column_batches())
        for index, column in enumerate(("kind", "address", "arg")):
            assert np.array_equal(
                left[:, index],
                np.concatenate([getattr(batch, column) for batch in right]),
            )
        assert a.footer == b.footer
        assert {k: v for k, v in a.header.items() if k != "format"} == {
            k: v for k, v in b.header.items() if k != "format"
        }
    # ``oracle transcode`` gives the recording back byte for byte.
    again = str(tmp_path / "again.trace")
    oracle.transcode(v1, again)
    assert _sha256(again) == _sha256(v2)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_v2_replay_is_bit_identical(name, recorded_pairs):
    _, v1, v2, live = recorded_pairs[name]
    assert replay_timing(v2) == oracle.replay_timing(v1) == live


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_sharded_v2_replay_matches_v1(name, recorded_pairs, tmp_path):
    _, _, v2, _ = recorded_pairs[name]
    shards = shard_trace(v2, str(tmp_path / "v2"), shards=3)
    twins = []
    for shard in shards:
        twins.append(shard.replace(".trace", ".v1.trace"))
        oracle.write_canonical(shard, twins[-1])
    assert (
        replay_shards(shards, jobs=2).stats
        == oracle.replay_shards(twins).stats
    )


def test_multicore_replay_is_container_agnostic(recorded_pairs):
    _, churn_v1, churn_v2, _ = recorded_pairs["server-churn"]
    _, scan_v1, scan_v2, _ = recorded_pairs["scan-heavy"]
    from_v2 = replay_multicore([churn_v2, scan_v2], jobs=2)
    from_v1 = oracle.replay_multicore([churn_v1, scan_v1])
    mixed = oracle.replay_multicore([churn_v1, scan_v2])
    assert from_v1.per_core == from_v2.per_core == mixed.per_core
    assert from_v1.merged == from_v2.merged == mixed.merged


def test_compression_reaches_target_ratio(recorded_pairs):
    """≥4x reduction of the canonical size on at least two registry
    mixes (acceptance criterion); in practice every mix clears it by a
    wide margin."""
    winners = [
        name
        for name, (_, _, v2, _) in recorded_pairs.items()
        if canonical_digest(v2)[1] / os.path.getsize(v2) >= 4.0
    ]
    assert len(winners) >= 2, winners


def test_transcode_both_directions(recorded_pairs, tmp_path):
    _, v1, v2, live = recorded_pairs["quarantine-pressure"]
    to_v2 = str(tmp_path / "to.v2.trace")
    back_to_v1 = str(tmp_path / "back.v1.trace")
    oracle.transcode(v1, to_v2)
    oracle.write_canonical(to_v2, back_to_v1)
    # Each direction reproduces the other container's file byte for
    # byte, and the canonical digest is the CALTRC01 file's sha256.
    assert _sha256(to_v2) == _sha256(v2)
    assert _sha256(back_to_v1) == _sha256(v1) == canonical_digest(to_v2)[:2]
    assert replay_timing(to_v2) == live


def test_frame_stats_match_footer(recorded_pairs):
    _, _, v2, _ = recorded_pairs["server-churn"]
    with TraceReader(v2) as reader:
        footer = reader.read_footer()
    frames = frame_stats(v2)
    assert sum(count for count, _ in frames) == footer["records"]
    summary = compression_summary(v2, footer["records"])
    assert summary["frames"] == len(frames)
    assert summary["ratio"] > 4.0


def test_frame_stats_rejects_v1(recorded_pairs):
    _, v1, _, _ = recorded_pairs["server-churn"]
    with pytest.raises(TraceFormatError, match="oracle transcode"):
        frame_stats(v1)


# -- error paths --------------------------------------------------------------


class TestMalformedCompressed:
    @pytest.fixture()
    def sample(self):
        return self._sample()

    @staticmethod
    def _sample():
        records = []
        for index in range(500):
            records.append((EV_LOAD, index * 64, 8))
            if index % 100 == 99:
                records.append((EV_EPOCH, index // 100, 0))
        buffer = io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            writer.append_columns(*zip(*records))
            writer.set_footer({"records": writer.record_count})
        return buffer.getvalue()

    def test_truncated_mid_frame(self, sample):
        reader = TraceReader(io.BytesIO(sample[: len(sample) // 2]))
        with pytest.raises(TraceFormatError, match="truncated|terminator"):
            list(reader.column_batches())

    def test_missing_end_frame(self, sample):
        # Chop the end frame (5-byte head + footer JSON) off exactly.
        import json

        footer_bytes = len(json.dumps({"records": 505}, sort_keys=True))
        reader = TraceReader(io.BytesIO(sample[: -(5 + footer_bytes)]))
        with pytest.raises(TraceFormatError, match="terminator"):
            reader.read_footer()

    def test_corrupt_frame_payload(self, sample):
        corrupted = bytearray(sample)
        corrupted[len(corrupted) // 2] ^= 0xFF
        reader = TraceReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(TraceFormatError) as caught:
            list(reader.column_batches())
        assert caught.value.offset is not None

    def test_unknown_frame_type(self):
        buffer = io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            writer.set_footer({})
        raw = buffer.getvalue()
        # The first byte after the header preamble is the frame type.
        import json
        import struct

        header_len = struct.unpack_from("<I", raw, 8)[0]
        offset = 8 + 4 + header_len
        corrupted = bytearray(raw)
        corrupted[offset] = 0x7E
        reader = TraceReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(TraceFormatError, match="frame type"):
            list(reader.column_batches())

    def test_truncated_magic(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(io.BytesIO(MAGIC[:5]))

    def test_abort_leaves_invalid_file(self, tmp_path):
        path = str(tmp_path / "aborted.trace")
        writer = CompressedTraceWriter(path, {"kind": "test"})
        writer.append_columns((EV_LOAD,), (64,), (8,))
        writer.abort()
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match="terminator"):
                reader.read_footer()

    def test_read_footer_after_partial_iteration(self, monkeypatch):
        # Small frames, so the 505-record sample spans batches.
        monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 101)
        reader = TraceReader(io.BytesIO(self._sample()))
        first = next(reader.column_batches())
        assert len(first) == 101  # one batch per frame
        assert reader.footer is None
        assert reader.read_footer() == {"records": 505}
        assert list(reader.column_batches()) == []


class TestTailFooter:
    """A corpus hit reads its footer from the end of the stored bytes;
    it must be the footer the frame walk reaches."""

    @staticmethod
    def _trace(footer):
        # Addresses and args whose varint tokens hold 0xFF bytes.
        records = []
        for index in range(300):
            records.append((EV_LOAD, index * 0xFF7F, 0xFF))
            if index % 100 == 99:
                records.append((EV_EPOCH, index // 100, 0))
        buffer = io.BytesIO()
        with CompressedTraceWriter(buffer, {"kind": "test"}) as writer:
            writer.append_columns(*zip(*records))
            writer.set_footer(footer)
        return buffer.getvalue()

    @pytest.mark.parametrize(
        # Footer lengths whose <BI head holds 0xFF bytes after the type
        # byte, and ones longer than the first read from the end.
        "length", [2, 20, 255, 511, 767, 0xFF05, 5000, 0x1FFFF],
    )
    def test_matches_the_frame_walk(self, length):
        footer = {} if length == 2 else {"pad": "é" * ((length - 11) // 6)}
        footer_length = len(json.dumps(footer, sort_keys=True))
        if length != 2:
            footer["pad"] += "x" * (length - footer_length)
        data = self._trace(footer)
        walked = TraceReader(io.BytesIO(data)).read_footer()
        assert len(json.dumps(walked, sort_keys=True)) == length
        assert tail_footer(TraceReader(io.BytesIO(data))) == walked == footer

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-1],  # footer cut short
            lambda data: data + b"}",  # a byte past the footer
            lambda data: data[: data.rindex(b"\xff")],  # terminator cut off
            lambda data: data[:-1] + b"!",  # footer no longer JSON
        ],
    )
    def test_a_damaged_tail_is_a_format_error(self, damage):
        data = damage(self._trace({"records": 303}))
        with pytest.raises(TraceFormatError):
            tail_footer(TraceReader(io.BytesIO(data)))


def test_oracle_transcode_makes_an_old_file_usable(tmp_path, capsys):
    """A CALTRC01 file written record by record, as the retired
    container's writer did, keeps its corpus identity and its replay
    through ``python -m oracle transcode``."""
    spec = CORPUS["dma-mixed"].scaled(INSTRUCTIONS)
    recording = str(tmp_path / "recording.trace")
    live = record_spec(spec, recording)
    with TraceReader(recording) as reader:
        header = dict(reader.header, format="CALTRC01")
        rows = [
            row for batch in reader.column_batches() for row in _rows(batch)
        ]
        footer = reader.footer
    old = str(tmp_path / "old.trace")
    with oracle.RecordWriter(old, header) as writer:
        for row in rows:
            writer.append(*row)
        writer.set_footer(footer)
    new = str(tmp_path / "new.trace")
    assert oracle.main(["transcode", old, "--out", new]) == 0
    assert canonical_digest(new)[:2] == _sha256(old)
    assert replay_timing(new) == live

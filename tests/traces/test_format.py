"""Unit tests for the trace container's streaming writer and reader."""

import io
import json

import numpy as np
import pytest

import oracle
from repro.traces import compress
from repro.traces.compress import CompressedTraceWriter
from repro.traces.format import (
    EV_CFORM,
    EV_LOAD,
    EV_STORE,
    MAGIC,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
    read_header,
)

#: The terminator frame's head: type byte and u32 footer length.
END_HEAD = 5


def _write_sample(target, records, header=None, footer=None):
    with CompressedTraceWriter(target, header or {"kind": "test"}) as writer:
        for kind, address, arg in records:
            writer.append(kind, address, arg)
        writer.set_footer(footer or {"records": len(records)})


def _write_loads(target, count, blocks=3):
    """``count`` loads at ascending lines, appended in ``blocks`` column
    blocks whose edges fall inside frames."""
    addresses = np.arange(count, dtype=np.int64) * 64
    with CompressedTraceWriter(target, {"kind": "test"}) as writer:
        for part in np.array_split(np.arange(count), blocks):
            writer.append_columns(
                np.full(len(part), EV_LOAD, dtype=np.uint8),
                addresses[part],
                np.full(len(part), 8, dtype=np.int64),
            )
        writer.set_footer({"records": count})


def _rows(reader):
    """The reader's record stream, flattened from its column batches."""
    return [
        row
        for batch in reader.column_batches()
        for row in zip(
            batch.kind.tolist(), batch.address.tolist(), batch.arg.tolist()
        )
    ]


class TestRoundTrip:
    def test_records_survive(self):
        records = [
            (EV_LOAD, 0x1000, 8),
            (EV_STORE, 0x7FFF_0000, 8),
            (EV_CFORM, 0xDEAD_BEEF_0000, 3),
        ]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.header == {"kind": "test"}
        assert _rows(reader) == records
        assert reader.footer == {"records": 3}

    def test_empty_trace(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [])
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert list(reader.column_batches()) == []
        assert reader.footer == {"records": 0}

    def test_path_based_io(self, tmp_path):
        path = str(tmp_path / "sample.trace")
        _write_sample(path, [(EV_LOAD, 64, 8)])
        assert read_header(path) == {"kind": "test"}
        with TraceReader(path) as reader:
            assert reader.read_footer() == {"records": 1}

    def test_streaming_across_flush_boundaries(self, monkeypatch):
        # More records than one writer frame and one reader batch.
        monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 1_000)
        monkeypatch.setattr(compress, "FRAME_GROUP_RECORDS", 4_000)
        count = 4_000 + 17
        buffer = io.BytesIO()
        _write_loads(buffer, count)
        buffer.seek(0)
        reader = TraceReader(buffer)
        batches = list(reader.column_batches())
        assert [len(batch) for batch in batches] == [4_000, 17]
        assert batches[1].address.tolist()[-1] == (count - 1) * 64
        assert reader.footer == {"records": count}

    def test_read_footer_after_partial_iteration(self, monkeypatch):
        """read_footer continues the reader's one column iterator —
        breaking out of an iteration must not lose the buffered frames."""
        monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 1_000)
        monkeypatch.setattr(compress, "FRAME_GROUP_RECORDS", 4_000)
        count = 4_000 + 100
        buffer = io.BytesIO()
        _write_loads(buffer, count)
        buffer.seek(0)
        reader = TraceReader(buffer)
        first = next(reader.column_batches())
        assert reader.footer is None
        assert reader.read_footer() == {"records": count}
        assert first.address.tolist()[:5] == [0, 64, 128, 192, 256]
        # The shared iterator was drained, not restarted.
        assert reader.column_batches() is reader.column_batches()
        assert list(reader.column_batches()) == []

    def test_u64_address_and_u32_arg_bounds(self):
        # The container holds int64 addresses and the canonical layout's
        # full u32 arg range; the writer refuses the top half of u64,
        # naming the column.
        records = [(EV_LOAD, 2**63 - 1, 2**32 - 1)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        assert list(oracle.records(TraceReader(buffer))) == records
        buffer.seek(0)
        assert _rows(TraceReader(buffer)) == records
        with pytest.raises(TraceFormatError, match="address column"):
            _write_sample(io.BytesIO(), [(EV_LOAD, 2**64 - 1, 8)])


class TestMalformedFiles:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            TraceReader(io.BytesIO(b"NOTATRACE" * 4))

    def test_truncated_header(self):
        buffer = io.BytesIO(MAGIC + (99).to_bytes(4, "little") + b"{}")
        with pytest.raises(TraceFormatError, match="header"):
            TraceReader(buffer)

    def test_missing_terminator(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 0, 8)])
        # Chop the terminator frame and the end of the last frame off.
        footer = json.dumps({"records": 1})
        raw = buffer.getvalue()[: -(END_HEAD + len(footer) + 2)]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="truncated|terminator"):
            list(reader.column_batches())

    def test_missing_terminator_at_record_boundary(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 0, 8)], footer={"records": 1})
        # Whole frames survive; the terminator and footer are gone.
        raw = buffer.getvalue()[: -(END_HEAD + len('{"records": 1}'))]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="terminator"):
            reader.read_footer()

    def test_truncated_footer(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [], footer={"long": "x" * 100})
        raw = buffer.getvalue()[:-50]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="footer"):
            reader.read_footer()

    def test_corrupt_footer_json(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 0, 8)], footer={"records": 1})
        raw = buffer.getvalue().replace(b'{"records": 1}', b'{"records": 1]')
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="corrupt trace footer"):
            reader.read_footer()

    def test_path_based_errors_name_file_and_offset(self, tmp_path):
        """Failures must be attributable to one file and one position —
        a multi-shard replay's error is useless without them."""
        path = str(tmp_path / "truncated.trace")
        _write_sample(path, [(EV_LOAD, 0, 8)] * 10)
        size = len(open(path, "rb").read())
        with open(path, "r+b") as handle:
            handle.truncate(size - (END_HEAD + 20))
        with pytest.raises(TraceFormatError) as caught:
            with TraceReader(path) as reader:
                list(reader.column_batches())
        assert caught.value.path == path
        assert caught.value.offset is not None
        assert path in str(caught.value)
        assert "byte offset" in str(caught.value)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bogus.trace"
        path.write_bytes(b"NOTATRACE" * 4)
        with pytest.raises(TraceFormatError) as caught:
            TraceReader(str(path))
        assert caught.value.offset == 0
        assert str(path) in str(caught.value)

    def test_located_decorates_once(self):
        bare = TraceFormatError("boom", offset=7)
        located = bare.located("/a/file.trace")
        assert located.path == "/a/file.trace"
        assert located.offset == 7
        # Already-located errors keep their original attribution.
        assert located.located("/elsewhere.trace") is located

    def test_record_size_is_stable(self):
        # The canonical stream in BENCHMARKS.md has 13-byte records.
        assert RECORD_SIZE == 13

    def test_caltrc01_is_rejected_with_the_transcode_command(self, tmp_path):
        path = str(tmp_path / "old.trace")
        with oracle.RecordWriter(path, {"format": "CALTRC01"}) as writer:
            writer.append(EV_LOAD, 64, 8)
        with pytest.raises(TraceFormatError) as caught:
            TraceReader(path)
        assert caught.value.offset == 0
        assert caught.value.path == path
        assert "python -m oracle transcode" in str(caught.value)
        assert "not a Califorms trace" not in str(caught.value)

"""Unit tests for the binary trace format's streaming writer/reader."""

import io

import pytest

import oracle
from repro.traces.format import (
    EV_CFORM,
    EV_LOAD,
    EV_STORE,
    MAGIC,
    RECORD_SIZE,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_header,
)


def _write_sample(target, records, header=None, footer=None):
    with TraceWriter(target, header or {"kind": "test"}) as writer:
        for kind, address, arg in records:
            writer.append(kind, address, arg)
        writer.set_footer(footer or {"records": len(records)})


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

    def test_streaming_across_flush_boundaries(self):
        # More records than one writer flush and one reader chunk.
        count = TraceReader.COLUMN_CHUNK_RECORDS + 17
        assert count > TraceWriter.FLUSH_RECORDS
        records = [(EV_LOAD, index * 64, 8) for index in range(count)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        reader = TraceReader(buffer)
        batches = list(reader.column_batches())
        assert [len(batch) for batch in batches] == [
            TraceReader.COLUMN_CHUNK_RECORDS, 17
        ]
        assert batches[1].address.tolist()[-1] == (count - 1) * 64

    def test_read_footer_after_partial_iteration(self):
        """read_footer continues the reader's one column iterator —
        breaking out of an iteration must not lose the buffered chunk."""
        count = TraceReader.COLUMN_CHUNK_RECORDS + 100
        records = [(EV_LOAD, index * 64, 8) for index in range(count)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
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
        # The container stores the full u64/u32 range; the columnar
        # decoder's int64 address column rejects the top half, located.
        records = [(EV_LOAD, 2**64 - 1, 2**32 - 1)]
        buffer = io.BytesIO()
        _write_sample(buffer, records)
        buffer.seek(0)
        assert list(oracle.records(TraceReader(buffer))) == records
        buffer.seek(0)
        with pytest.raises(TraceFormatError, match="int64") as caught:
            list(TraceReader(buffer).column_batches())
        assert caught.value.offset is not None


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
        # Chop the footer and terminator off.
        raw = buffer.getvalue()[: -(RECORD_SIZE + 2)]
        reader = TraceReader(io.BytesIO(raw))
        with pytest.raises(TraceFormatError, match="truncated|terminator"):
            list(reader.column_batches())

    def test_missing_terminator_at_record_boundary(self):
        buffer = io.BytesIO()
        _write_sample(buffer, [(EV_LOAD, 0, 8)], footer={"records": 1})
        # Whole records survive; the terminator and footer are gone.
        raw = buffer.getvalue()[: -(RECORD_SIZE + len('{"records": 1}'))]
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

    def test_path_based_errors_name_file_and_offset(self, tmp_path):
        """Failures must be attributable to one file and one position —
        a multi-shard replay's error is useless without them."""
        path = str(tmp_path / "truncated.trace")
        _write_sample(path, [(EV_LOAD, 0, 8)] * 10)
        size = len(open(path, "rb").read())
        with open(path, "r+b") as handle:
            handle.truncate(size - (RECORD_SIZE + 20))
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
        # The format spec in BENCHMARKS.md documents 13-byte records.
        assert RECORD_SIZE == 13

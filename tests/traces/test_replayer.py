"""Tests for the replay engines: integrity checking, sharding, hierarchy."""

import io

import numpy as np
import pytest

import oracle
from repro.traces import (
    CORPUS,
    CompressedTraceWriter,
    TraceIntegrityError,
    TraceReader,
    record_spec,
    replay_hierarchy,
    replay_shards,
    replay_timing,
    shard_trace,
)
from repro.traces import compress
from repro.traces.format import EV_EPOCH, EV_LOAD, EV_WARM, TraceFormatError


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("replayer") / "small.trace")
    spec = CORPUS["allocator-stress"].scaled(4_000)
    live = record_spec(spec, path)
    return path, live


class TestIntegrity:
    def test_tampered_footer_is_caught(self, small_trace, tmp_path):
        path, _ = small_trace
        with TraceReader(path) as reader:
            header = reader.header
            records = list(oracle.records(reader))
            footer = dict(reader.footer)
        footer["events"] = dict(footer["events"], l1_misses=12345)
        tampered = str(tmp_path / "tampered.trace")
        with CompressedTraceWriter(tampered, header) as writer:
            writer.append_columns(*zip(*records))
            writer.set_footer(footer)
        with pytest.raises(TraceIntegrityError, match="cache events"):
            replay_timing(tampered)
        # Opting out of verification still replays.
        result = replay_timing(tampered, verify=False)
        assert result.events.l1_accesses > 0

    def test_dropped_records_are_caught(self, small_trace, tmp_path):
        path, _ = small_trace
        with TraceReader(path) as reader:
            header = reader.header
            records = list(oracle.records(reader))
            footer = reader.footer
        truncated = str(tmp_path / "truncated.trace")
        with CompressedTraceWriter(truncated, header) as writer:
            writer.append_columns(*zip(*records[: len(records) // 2]))
            writer.set_footer(footer)
        with pytest.raises(TraceIntegrityError):
            replay_timing(truncated)

    def test_warm_record_mid_frame_matches_the_live_footer(
        self, small_trace
    ):
        # The decoder yields one batch per frame and the accountant
        # splits it at the warm record, so the counter reset lands inside
        # a batch and the replay must still match the live run.
        path, live = small_trace
        with TraceReader(path) as reader:
            batches = list(reader.column_batches())
        warm = [
            (batch, np.flatnonzero(batch.kind == EV_WARM).tolist())
            for batch in batches
        ]
        holding = [(batch, at) for batch, at in warm if at]
        assert len(holding) == 1
        batch, (position,) = holding[0]
        assert 0 < position < len(batch) - 1
        assert replay_timing(path) == live


class TestSharding:
    def test_shard_count_and_validity(self, small_trace, tmp_path):
        path, _ = small_trace
        shards = shard_trace(path, str(tmp_path / "s"), shards=4)
        assert len(shards) == 4
        total = 0
        for index, shard_path in enumerate(shards):
            with TraceReader(shard_path) as reader:
                assert reader.header["shard"] == {"index": index, "of": 4}
                footer = reader.read_footer()
                assert footer["kind"] == "shard"
                total += footer["records"]
        with TraceReader(path) as reader:
            source_records = reader.read_footer()["records"]
        assert total == source_records

    def test_epoch_markers_are_the_split_points(self, small_trace, tmp_path):
        """Every shard but the last ends exactly on an epoch boundary, so
        allocation-event clusters are never torn across shards."""
        path, _ = small_trace
        shards = shard_trace(path, str(tmp_path / "b"), shards=3)
        for shard_path in shards[:-1]:
            with TraceReader(shard_path) as reader:
                records = list(oracle.records(reader))
            if records:
                assert records[-1][0] == EV_EPOCH

    def test_more_shards_than_epochs(self, tmp_path):
        spec = CORPUS["scan-heavy"].scaled(2_000)
        path = str(tmp_path / "tiny.trace")
        record_spec(spec, path)
        shards = shard_trace(path, str(tmp_path / "many"), shards=16)
        merged = replay_shards(shards, jobs=1)
        assert merged.shards == 16  # trailing shards are valid empty traces

    def test_shard_walks_the_frames_once(
        self, small_trace, tmp_path, monkeypatch
    ):
        # The footer comes from the end of the bytes, so only the split
        # itself walks (and inflates) the frames.
        path, _ = small_trace
        walks = []
        walk = compress._iter_frames

        def spy(reader):
            walks.append(reader.path)
            return walk(reader)

        monkeypatch.setattr(compress, "_iter_frames", spy)
        shard_trace(path, str(tmp_path / "once"), shards=3)
        assert walks == [path]

    def test_corrupt_frame_leaves_no_shards(self, small_trace, tmp_path):
        path, _ = small_trace
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        with TraceReader(path) as reader:
            first_payload = reader.data_offset + 9  # type byte, two u32s
        data[first_payload + 20 : first_payload + 28] = b"\xff" * 8
        damaged = str(tmp_path / "damaged.trace")
        with open(damaged, "wb") as handle:
            handle.write(data)
        out_dir = tmp_path / "d"
        with pytest.raises(TraceFormatError, match="corrupt frame"):
            shard_trace(damaged, str(out_dir), shards=3)
        assert list(out_dir.glob("*")) == []

    def test_invalid_arguments(self, small_trace, tmp_path):
        path, _ = small_trace
        with pytest.raises(ValueError):
            shard_trace(path, str(tmp_path), shards=0)
        with pytest.raises(ValueError):
            replay_shards([], jobs=1)
        with pytest.raises(ValueError):
            replay_shards([path], mode="quantum")


class TestHierarchyMode:
    def test_deterministic_and_counts_violations(self, small_trace):
        path, _ = small_trace
        first = replay_hierarchy(path)
        second = replay_hierarchy(path)
        assert first == second
        # allocator-stress califorms aggressively: the synthetic line-tail
        # security bytes must trip at least one random field access.
        assert first.violations > 0
        assert first.amat_cycles > 0

    def test_sharded_hierarchy_matches_serial(self, small_trace, tmp_path):
        path, _ = small_trace
        shards = shard_trace(path, str(tmp_path / "h"), shards=3)
        serial = replay_shards(shards, jobs=1, mode="hierarchy")
        parallel = replay_shards(shards, jobs=3, mode="hierarchy")
        assert serial == parallel


class TestAmatLinearity:
    def test_merged_cycles_equal_cycles_of_merged_counts(self, small_trace, tmp_path):
        """The AMAT model is linear, so summing per-shard cycles is the
        same as pricing the summed event counts."""
        from repro.traces.replayer import _amat_cycles, _config_from_header

        path, _ = small_trace
        shards = shard_trace(path, str(tmp_path / "lin"), shards=4)
        merged = replay_shards(shards, jobs=1)
        with TraceReader(path) as reader:
            config = _config_from_header(reader.header)
        assert merged.stats.amat_cycles == _amat_cycles(config, merged.stats.events)


def test_extra_latency_knobs_survive_the_header(tmp_path):
    """A trace recorded under the Figure-10 pessimistic config must be
    priced with that config at replay, not the defaults."""
    from repro.memory.hierarchy import WESTMERE
    from repro.traces.replayer import _config_from_header

    spec = CORPUS["scan-heavy"].scaled(2_000)
    plain_path = str(tmp_path / "plain.trace")
    slow_path = str(tmp_path / "slow.trace")
    record_spec(spec, plain_path)
    record_spec(spec, slow_path, config=WESTMERE.with_extra_latency(1))
    with TraceReader(slow_path) as reader:
        config = _config_from_header(reader.header)
    assert config.l2_extra_cycles == 1
    assert config.l3_extra_cycles == 1
    plain_cycles = replay_shards([plain_path], jobs=1).stats.amat_cycles
    slow_cycles = replay_shards([slow_path], jobs=1).stats.amat_cycles
    assert slow_cycles > plain_cycles


def test_in_memory_round_trip():
    """BytesIO targets work end to end (no filesystem needed)."""
    spec = CORPUS["pointer-chase"].scaled(2_000)
    buffer = io.BytesIO()
    live = record_spec(spec, buffer)
    buffer.seek(0)
    replayed = replay_timing(buffer)
    assert replayed.events == live.events


def test_unknown_record_kind_rejected(tmp_path):
    spec = CORPUS["scan-heavy"].scaled(1_000)
    path = str(tmp_path / "ok.trace")
    record_spec(spec, path)
    with TraceReader(path) as reader:
        header = reader.header
    bad = str(tmp_path / "bad.trace")
    # The production writer refuses the kind, so the per-record oracle
    # writer puts it in the frame.
    with oracle.FrameWriter(bad, header) as writer:
        writer.append(EV_LOAD, 0, 8)
        writer.append(EV_EPOCH + 1, 0, 0)  # not a known EV_* kind
        writer.set_footer({})
    from repro.traces.format import TraceFormatError

    with pytest.raises(TraceFormatError, match="invalid record kind") as error:
        replay_timing(bad, verify=False)
    assert error.value.path == bad

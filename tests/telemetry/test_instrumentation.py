"""End-to-end instrumentation: real decode/replay/corpus work under an
active telemetry sink produces the documented counters and spans."""

import os

from repro.corpus.store import CorpusStore
from repro.telemetry import runtime
from repro.telemetry.export import metrics_document, read_span_log
from repro.traces.recorder import record_spec
from repro.traces.registry import CORPUS
from repro.traces.replayer import replay_timing

INSTRUCTIONS = 2000


def exported(handle):
    handle.flush()
    return metrics_document(
        read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    )


def test_replay_emits_decode_kernel_counters_and_spans(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "server-churn.trace")
    record_spec(spec, trace, compress=True)

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    document = exported(handle)

    counters = document["counters"]
    assert counters["decode_frames_total"] > 0
    assert counters["decode_records_total"] > 0
    assert counters['kernel_accesses_total{level="l1"}'] > 0
    assert counters['kernel_rounds_total{level="l1"}'] > 0
    span_row = document["spans"]["replay/timing"]
    assert span_row["count"] == 1


def test_replay_span_carries_touches(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "t.trace")
    record_spec(spec, trace)

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    handle.flush()
    log = read_span_log(
        os.path.join(handle.directory, runtime.SPAN_LOG_NAME)
    )
    (record,) = [r for r in log.spans if r["name"] == "replay/timing"]
    assert record["attrs"]["touches"] > 0


def test_corpus_resolutions_count_recorded_then_hit(tmp_path):
    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    store.ensure(spec)  # cache miss: records
    store.ensure(spec)  # cache hit
    document = exported(handle)

    counters = document["counters"]
    assert counters['corpus_resolutions_total{outcome="recorded"}'] == 1
    assert counters['corpus_resolutions_total{outcome="hit"}'] == 1
    record_span = document["spans"]["corpus/record"]
    assert record_span["count"] == 1


def test_corpus_verify_counts_outcomes(tmp_path):
    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    store.ensure(CORPUS["server-churn"].scaled(INSTRUCTIONS))
    assert store.verify() == []
    document = exported(handle)
    assert (
        document["counters"]['corpus_verifications_total{outcome="ok"}'] == 1
    )


def test_disabled_run_writes_nothing(tmp_path):
    spec = CORPUS["server-churn"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "t.trace")
    record_spec(spec, trace, compress=True)
    assert runtime.active() is None
    replay_timing(trace)  # must not create any sink
    assert not os.path.exists(str(tmp_path / "tel"))

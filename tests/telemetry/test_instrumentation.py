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
    record_spec(spec, trace)

    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    document = exported(handle)

    counters = document["counters"]
    assert counters["decode_frames_total"] > 0
    assert counters["decode_records_total"] > 0
    accesses = counters['kernel_accesses_total{level="l1"}']
    assert accesses > 0
    # Reported even when no window needed the walk (a short replay).
    assert 0 <= counters['kernel_walk_accesses_total{level="l1"}'] <= accesses
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


def test_recording_reports_its_sweep_as_the_ascending_share(tmp_path):
    # dma-mixed's pre-warm sweep spans several SWEEP_BLOCKs: the live
    # accountant under the recorder applies them in closed form at every
    # level; the bursts after them take the general path.
    spec = CORPUS["dma-mixed"].scaled(INSTRUCTIONS)
    handle = runtime.configure(str(tmp_path / "tel"))
    record_spec(spec, str(tmp_path / "t.trace"))
    counters = exported(handle)["counters"]
    for level in ("l1", "l2", "l3"):
        ascending = counters[f'kernel_ascending_accesses_total{{level="{level}"}}']
        assert 0 < ascending < counters[f'kernel_accesses_total{{level="{level}"}}']


def test_replay_reports_its_sweep_as_the_ascending_share(tmp_path):
    # The replay hands the kernel one decoded frame at a time, split
    # only at the warm record, so the recording's pre-warm sweep fills
    # whole frames and reaches it unmixed with bursts.
    spec = CORPUS["dma-mixed"].scaled(INSTRUCTIONS)
    trace = str(tmp_path / "t.trace")
    record_spec(spec, trace)
    handle = runtime.configure(str(tmp_path / "tel"))
    replay_timing(trace)
    counters = exported(handle)["counters"]
    for level in ("l1", "l2"):
        ascending = counters[f'kernel_ascending_accesses_total{{level="{level}"}}']
        assert 0 < ascending < counters[f'kernel_accesses_total{{level="{level}"}}']


def test_live_run_emits_kernel_spans_under_run_trace(tmp_path):
    from repro.workloads.generator import Scenario, run_trace
    from repro.workloads.specs import SPEC_PROFILES

    handle = runtime.configure(str(tmp_path / "tel"))
    run_trace(SPEC_PROFILES["mcf"], Scenario.baseline(), INSTRUCTIONS)
    handle.flush()
    spans = read_span_log(
        os.path.join(handle.directory, runtime.SPAN_LOG_NAME)
    ).spans
    (run,) = [span for span in spans if span["name"] == "workloads.run_trace"]
    kernel = [span for span in spans if span["name"] == "memory.kernel"]
    parents = {span["id"]: span["parent"] for span in spans}

    def under_run(span):
        parent = span["parent"]
        while parent is not None and parent != run["id"]:
            parent = parents[parent]
        return parent == run["id"]

    assert kernel and all(under_run(span) for span in kernel)
    # The ladder's lower levels run on the pending block inside a span
    # too, up to the final flush that the run's counters read.
    assert any(span["attrs"].get("pending", 0) > 0 for span in kernel)
    assert sum(span["attrs"].get("accesses", 0) for span in kernel) > 0


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
    record_spec(spec, trace)
    assert runtime.active() is None
    replay_timing(trace)  # must not create any sink
    assert not os.path.exists(str(tmp_path / "tel"))


def test_live_figure_emits_one_synthesis_span_per_run(tmp_path, monkeypatch):
    from repro.experiments import fig12_intelligent
    from repro.workloads import generator

    calls = []
    run_trace = generator.run_trace

    def counted(profile, scenario, *arguments, **keywords):
        calls.append((profile.name, scenario.describe()))
        return run_trace(profile, scenario, *arguments, **keywords)

    monkeypatch.setattr(generator, "run_trace", counted)
    handle = runtime.configure(str(tmp_path / "tel"))
    fig12_intelligent.run(instructions=INSTRUCTIONS, benchmarks=["gobmk", "mcf"])
    handle.flush()
    log = read_span_log(os.path.join(handle.directory, runtime.SPAN_LOG_NAME))
    spans = [r for r in log.spans if r["name"] == "workloads.synthesize"]
    assert len(calls) == 14  # two benchmarks x (baseline + six variants)
    assert sorted(
        (r["attrs"]["benchmark"], r["attrs"]["scenario"]) for r in spans
    ) == sorted(calls)
    assert all(r["attrs"]["shared"] for r in spans)
    assert all(r["attrs"]["records"] > 0 for r in spans)


def _covered(parent, children):
    """Seconds of ``parent`` covered by the union of ``children``."""
    low, high = parent["ts"], parent["ts"] + parent["duration_s"]
    covered, reach = 0.0, low
    for start, end in sorted(
        (max(child["ts"], low), min(child["ts"] + child["duration_s"], high))
        for child in children
    ):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def test_a_cold_build_is_covered_by_its_phase_spans(tmp_path):
    from repro.softstack.insertion import Policy
    from repro.workloads.generator import Scenario
    from repro.workloads.specs import SPEC_PROFILES

    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    runs = {}
    scenario = Scenario(policy=Policy.FULL, min_bytes=1, max_bytes=7)
    for name in ("mcf", "gobmk"):
        store.slowdown(SPEC_PROFILES[name], scenario, INSTRUCTIONS, runs=runs)
    handle.flush()
    spans = read_span_log(
        os.path.join(handle.directory, runtime.SPAN_LOG_NAME)
    ).spans
    records = [span for span in spans if span["name"] == "corpus/record"]
    assert len(records) == store.built == 4
    children = {
        span["id"]: [
            child for child in spans if child["parent"] == span["id"]
        ]
        for span in records
    }
    # The draw, then the writer run (synthesis, simulation and the
    # streamed encode and hash) under each build: one draw per benchmark.
    names = [child["name"] for kids in children.values() for child in kids]
    assert names.count("workloads.draw") == 2
    assert names.count("workloads.run_trace") == 4
    covered = sum(_covered(span, children[span["id"]]) for span in records)
    total = sum(span["duration_s"] for span in records)
    assert covered >= 0.9 * total
    # Each build appends its entry; the first append into an empty
    # store also folds the journal into the snapshot.
    manifest = [span for span in spans if span["name"] == "corpus.manifest"]
    ops = [span["attrs"]["op"] for span in manifest]
    assert ops.count("append") == 4
    assert ops.count("compact") >= 1
    assert all(span["parent"] is None for span in manifest)


def test_a_cold_build_emits_encode_spans(tmp_path, monkeypatch):
    # Small frames, so the build encodes frames while it runs and the
    # writer's close encodes the last one.
    from repro.traces import compress

    monkeypatch.setattr(compress, "MAX_FRAME_RECORDS", 1_000)
    handle = runtime.configure(str(tmp_path / "tel"))
    store = CorpusStore(str(tmp_path / "corpus"))
    built = store.ensure(CORPUS["server-churn"].scaled(INSTRUCTIONS))
    handle.flush()
    spans = read_span_log(
        os.path.join(handle.directory, runtime.SPAN_LOG_NAME)
    ).spans
    (record,) = [span for span in spans if span["name"] == "corpus/record"]
    encode = [span for span in spans if span["name"] == "traces.encode"]
    parents = {span["id"]: span["parent"] for span in spans}

    def under_record(span):
        parent = span["parent"]
        while parent is not None and parent != record["id"]:
            parent = parents[parent]
        return parent == record["id"]

    frames = compress.frame_stats(built.path)
    assert len(frames) > 2 and all(under_record(span) for span in encode)
    assert sum(span["attrs"]["frames"] for span in encode) == len(frames)
    assert (
        sum(span["attrs"]["records"] for span in encode)
        == sum(records for records, _ in frames)
        == record["attrs"]["records"]
    )

"""Fast checks of the ``repro run`` benchmark's own machinery.

Stub layers stand in for the program: these tests exercise the span
wrappers, self-time and coverage arithmetic, the metric helpers and the
correctness gate without running a figure sweep.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import hostspeed
import layers
import run
from layers import Span, Tracer


def _clock(*ticks):
    """A fake clock returning the given readings in order."""
    iterator = iter(ticks)
    return lambda: next(iterator)


class _Stub:
    def work(self, n):
        return list(range(n))

    def batches(self, n):
        return iter([[0] * size for size in range(1, n + 1)])


def test_wrap_records_nested_spans_counts_and_restores():
    module = types.SimpleNamespace()
    module.inner = lambda n: n * 2
    module.outer = lambda n: module.inner(n) + 1
    original_inner, original_outer = module.inner, module.outer
    tracer = Tracer(clock=_clock(0.0, 1.0, 3.0, 10.0))
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", lambda args, result: {"doubled": result})
    assert module.outer(5) == 11
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.start, outer.end) == ("outer", None, 0.0, 10.0)
    assert (inner.name, inner.parent, inner.start, inner.end) == ("inner", outer.id, 1.0, 3.0)
    assert tracer.counts == {"doubled": 10}
    tracer.restore()
    assert module.inner is original_inner and module.outer is original_outer


def test_wrap_closes_the_span_when_the_call_raises():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer(clock=_clock(0.0, 2.0))
    tracer.wrap(module, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        module.fail()
    assert tracer.spans[0].duration == 2.0
    assert tracer._stack == []
    tracer.restore()


def test_wrap_methods_and_iteration_steps():
    tracer = Tracer(clock=itertools.count().__next__)
    tracer.wrap(_Stub, "work", "work", lambda args, result: {"items": args[1]})
    tracer.wrap_iteration(
        _Stub, "batches", "step", lambda args, batch: {"rows": len(batch)}
    )
    stub = _Stub()
    try:
        assert stub.work(3) == [0, 1, 2]
        assert [len(batch) for batch in stub.batches(3)] == [1, 2, 3]
    finally:
        tracer.restore()
    assert vars(_Stub)["work"].__name__ == "work"
    assert not hasattr(vars(_Stub)["work"], "__wrapped__")
    names = [span.name for span in tracer.spans]
    # Three batches plus the step that found the iterator exhausted.
    assert names == ["work", "step", "step", "step", "step"]
    assert tracer.counts == {"items": 3, "rows": 6}


def test_region_scales_its_own_work_to_the_reference_speed():
    half = hostspeed.REFERENCE_SAMPLE_S * 2  # samples twice as slow
    region = hostspeed.Region(
        wall_s=10.5, cpu_s=8.5, sample_wall_s=0.5, sample_cpu_s=0.5,
        samples=(half, half),
    )
    assert region.speed == pytest.approx(0.5)
    assert region.ref_wall_s == pytest.approx(5.0)
    assert region.ref_cpu_s == pytest.approx(4.0)
    # A stalled sample weighs little: the mean is over speeds.
    stalled = hostspeed.Region(1.0, 1.0, 0.0, 0.0, (half, half, half, 1.0))
    assert stalled.speed == pytest.approx(0.375, rel=1e-3)


def test_sampler_samples_a_region_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    region = sampler.region
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(region.samples) >= 3
    assert region.sample_wall_s == pytest.approx(sum(region.samples))
    assert 0 < region.ref_wall_s < region.wall_s * region.speed


def test_union_length_merges_overlaps():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, None, "replay", 0.0, 10.0),
        Span(1, 0, "decode", 1.0, 4.0),
        Span(2, 0, "kernel", 3.0, 6.0),  # overlaps decode: counted once
        Span(3, 2, "inner", 3.5, 4.5),  # grandchild: not the replay's child
        Span(4, None, "other", 20.0, 21.0),
    ]
    own = layers.self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_coverage_is_layer_union_over_section_time():
    spans = [
        Span(0, None, layers.SECTION, 0.0, 10.0),
        Span(1, 0, layers.CELL, 0.0, 9.0),  # cells are not layer spans
        Span(2, 1, "corpus.ensure", 1.0, 3.0),
        Span(3, 2, "corpus.digest", 1.5, 2.5),
        Span(4, 1, "traces.replay", 5.0, 8.0),
    ]
    assert layers.coverage(spans) == pytest.approx(0.5)
    assert layers.coverage([]) == 0.0


def test_layer_metrics_on_a_bypassed_path_are_exact_zeros():
    tracer = Tracer(clock=_clock(0.0, 1.0, 3.0, 3.0))
    section = tracer.open(layers.SECTION)
    run_trace = tracer.open("workloads.run_trace")
    tracer.close(run_trace)
    tracer.close(section)
    tracer.add({"workloads.instructions": 4_000_000})
    metrics = layers.layer_metrics(tracer, heals=0)
    assert set(metrics) | {"trace.overhead", "analysis.paper_gap_pp"} == set(
        run.PER_LAYER_UNITS
    )
    assert metrics["workloads.run_trace_calls"] == 1
    assert metrics["workloads.sim_minstr_per_s"] == pytest.approx(2.0)
    assert metrics["trace.coverage"] == pytest.approx(2.0 / 3.0)
    for name in (
        "corpus.ensure_calls", "corpus.hit_ratio", "corpus.digest_mb_per_s",
        "traces.replay_calls", "memory.kernel_calls", "traces.record_calls",
        "traces.decode_records_per_s", "memory.kernel_accesses_per_s",
    ):
        assert metrics[name] == 0


def test_median_metrics_per_key():
    runs = [{"a": 1.0, "b": 5}, {"a": 3.0, "b": 5}, {"a": 2.0, "b": 5}]
    assert layers.median_metrics(runs) == {"a": 2.0, "b": 5}


def test_repro_wrappers_restore_every_attribute():
    from repro.analysis import suite
    from repro.corpus import store
    from repro.experiments import registry
    from repro.memory.kernel import LadderKernel
    from repro.traces import recorder
    from repro.traces.format import TraceReader
    from repro.workloads import generator

    owners = (suite, store, store.CorpusStore, registry.Experiment,
              LadderKernel, TraceReader, recorder, generator)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    layers.install_repro_wrappers(tracer)
    assert store.canonical_digest is not before[1]["canonical_digest"]
    tracer.restore()
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert all(after[key] is value for key, value in snapshot.items())


def _reference(name):
    with open(os.path.join(run.REFERENCE_DIR, f"{name}.json")) as handle:
        return json.load(handle)


def test_paper_gap_reads_each_sections_paper_dict():
    fig10 = _reference("fig10")["data"]
    assert run.paper_gap_pp("fig10", fig10) == pytest.approx(
        abs(fig10["average"] * 100 - 0.83)
    )
    fig12 = _reference("fig12")["data"]
    averages = fig12["averages"]
    cform = {
        entry["benchmark"]: entry["mean"]
        for entry in fig12["configurations"]["intelligent 1-7B +CFORM"][
            "per_benchmark"
        ]
    }
    expected = (
        abs(averages["intelligent 1-7B"] * 100 - 0.2)
        + abs(averages["intelligent 1-7B +CFORM"] * 100 - 1.5)
        + abs(cform["gobmk"] * 100 - 16.1)
        + abs(cform["perlbench"] * 100 - 7.2)
    ) / 4
    assert run.paper_gap_pp("fig12", fig12) == pytest.approx(expected)


def _outcome(data):
    from repro.experiments.results import SectionResult

    document = _reference("fig10")
    document["data"] = data
    return SectionResult.from_json(json.dumps(document))


def test_gate_checks_reference_first_run_and_store_invariants():
    warm = run.WORKLOADS["warm_fig10"]
    store = types.SimpleNamespace(built=0, hits=38)
    gate = run.Gate(seed=0)
    reference = _reference("fig10")["data"]
    gate.judge("ok", _outcome(reference), store, warm)
    assert (gate.attempted, gate.failed) == (1, 0)

    drifted = copy.deepcopy(reference)
    drifted["average"] += 1e-12
    gate.judge("drift", _outcome(drifted), store, warm)
    assert gate.failed == 1
    assert any("data.average" in problem for problem in gate.problems)

    gate.judge("rebuilt", _outcome(reference), types.SimpleNamespace(built=1, hits=37), warm)
    live = run.WORKLOADS["live_fig12"]
    gate.judge("store", _outcome(reference), store, live)
    assert (gate.attempted, gate.failed) == (4, 3)


def test_gate_at_other_seeds_compares_against_the_first_run():
    warm = run.WORKLOADS["warm_fig10"]
    store = types.SimpleNamespace(built=0, hits=38)
    shifted = copy.deepcopy(_reference("fig10")["data"])
    shifted["average"] += 1.0  # not the reference, but self-consistent
    gate = run.Gate(seed=3)
    gate.judge("first", _outcome(shifted), store, warm)
    gate.judge("second", _outcome(shifted), store, warm)
    assert gate.failed == 0
    gate.judge("third", _outcome(_reference("fig10")["data"]), store, warm)
    assert gate.failed == 1


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "repro_run"
    bench.mkdir(parents=True)
    for name in ("run.py", "layers.py", "hostspeed.py"):
        shutil.copy(os.path.join(run.HERE, name), bench / name)
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "warm_fig10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""

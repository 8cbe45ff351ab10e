"""Corpus-resolved experiment sections: identical numbers, zero re-recording."""

import pytest

from repro.corpus.store import CorpusStore
from repro.experiments import (
    fig04_padding_sweep,
    fig10_extra_latency,
    fig11_policies,
    fig12_intelligent,
    loadgen_contention,
    mc_contention,
    trace_checks,
)

QUICK = 6_000
SMALL_SET = ["hmmer", "mcf"]


@pytest.fixture()
def store(tmp_path):
    return CorpusStore(str(tmp_path / "corpus"))


class TestFiguresThroughTheCorpus:
    def test_fig10_equals_live(self, store):
        live = fig10_extra_latency.run(instructions=QUICK, benchmarks=SMALL_SET)
        corpus = fig10_extra_latency.run(
            instructions=QUICK, benchmarks=SMALL_SET, store=store
        )
        assert corpus == live

    def test_fig04_equals_live_and_second_run_replays(self, store):
        live = fig04_padding_sweep.run(
            instructions=QUICK, benchmarks=SMALL_SET, sizes=(1, 3)
        )
        first = fig04_padding_sweep.run(
            instructions=QUICK, benchmarks=SMALL_SET, sizes=(1, 3), store=store
        )
        assert first == live
        built = store.built
        again = fig04_padding_sweep.run(
            instructions=QUICK, benchmarks=SMALL_SET, sizes=(1, 3), store=store
        )
        assert again == live
        assert store.built == built  # zero re-recording on the second run

    def test_figures_share_recorded_baselines(self, store):
        fig10_extra_latency.run(
            instructions=QUICK, benchmarks=SMALL_SET, store=store
        )
        built = store.built
        # Figure 4's baselines are the same recorded objects.
        fig04_padding_sweep.run(
            instructions=QUICK, benchmarks=SMALL_SET, sizes=(1,), store=store
        )
        # Only the fixed-padding variants are new; the baselines hit.
        assert store.built == built + len(SMALL_SET)

    def test_fig12_equals_live_and_shares_fig11_baselines(self, store):
        fig11_policies.run(
            instructions=QUICK, benchmarks=SMALL_SET, store=store
        )
        built = store.built
        corpus = fig12_intelligent.run(
            instructions=QUICK, benchmarks=SMALL_SET, store=store
        )
        # Six intelligent-policy variants per benchmark; the baselines
        # are Figure 11's objects and hit.
        assert store.built == built + 6 * len(SMALL_SET)
        live = fig12_intelligent.run(instructions=QUICK, benchmarks=SMALL_SET)
        assert corpus == live


class TestTraceChecksSection:
    def test_records_then_hits(self, store):
        first = trace_checks.run(instructions=QUICK, store=store)
        assert all(check.source == "recorded" for check in first)
        assert all(check.bit_identical for check in first)
        second = trace_checks.run(instructions=QUICK, store=store)
        assert all(check.source == "corpus hit" for check in second)
        assert [c.trace_slowdown for c in second] == [
            c.trace_slowdown for c in first
        ]

    def test_render_reports_source(self, store):
        text = trace_checks.render(trace_checks.run(QUICK, store=store))
        assert "recorded" in text
        assert "replay==recorded" in text

    def test_standalone_uses_ephemeral_store(self):
        checks = trace_checks.run(instructions=QUICK)
        assert all(check.bit_identical for check in checks)


class TestLoadgenSection:
    def test_second_run_reads_footers_without_replaying(
        self, store, monkeypatch
    ):
        first = loadgen_contention.run(duration_scale=0.05, store=store)
        assert all(row["source"] == "recorded" for row in first)

        def no_replay(*args, **kwargs):
            raise AssertionError("a corpus hit must not be replayed")

        # The body of every ``replay_timing`` call, under whichever name
        # a module imported it.
        monkeypatch.setattr(
            "repro.traces.replayer._replay_timing_columns", no_replay
        )
        second = loadgen_contention.run(duration_scale=0.05, store=store)
        assert all(row["source"] == "corpus hit" for row in second)

        def without_source(rows):
            return [
                {key: value for key, value in row.items() if key != "source"}
                for row in rows
            ]

        assert without_source(second) == without_source(first)


class TestMulticoreSection:
    def test_corpus_and_ephemeral_agree(self, store):
        quick = 2_000
        via_store = mc_contention.run(instructions=quick, store=store)
        ephemeral = mc_contention.run(instructions=quick)
        assert [
            (row.scenario, row.solo_l3_misses, row.contended_l3_misses)
            for row in via_store
        ] == [
            (row.scenario, row.solo_l3_misses, row.contended_l3_misses)
            for row in ephemeral
        ]
        built = store.built
        mc_contention.run(instructions=quick, store=store)
        assert store.built == built  # replayed from the corpus

"""Tests for the suite-level timing sweep machinery."""

import pytest

from repro.analysis import suite
from repro.analysis.suite import (
    BenchmarkSlowdown,
    SuiteResult,
    render_suite,
    sweep,
)
from repro.corpus.store import CorpusStore
from repro.experiments import fig04_padding_sweep, fig11_policies, fig12_intelligent
from repro.memory.hierarchy import WESTMERE
from repro.softstack.insertion import Policy
from repro.workloads import generator
from repro.workloads.generator import Scenario
from repro.workloads.specs import SPEC_PROFILES

SMALL = ["hmmer", "sjeng"]  # fast benchmarks for unit testing
QUICK = 20_000


class TestBenchmarkSlowdown:
    def test_from_samples(self):
        entry = BenchmarkSlowdown.from_samples("x", [0.01, 0.03])
        assert entry.mean == pytest.approx(0.02)
        assert entry.minimum == 0.01
        assert entry.maximum == 0.03


class TestSweep:
    def test_average_and_lookup(self):
        result = sweep(SMALL, Scenario(policy=Policy.OPPORTUNISTIC),
                       instructions=QUICK)
        assert len(result.per_benchmark) == 2
        assert result.benchmark("hmmer").benchmark == "hmmer"
        with pytest.raises(KeyError):
            result.benchmark("quake")

    def test_multiple_binary_seeds_spread(self):
        result = sweep(
            ["gobmk"],
            Scenario(policy=Policy.FULL),
            instructions=QUICK,
            binary_seeds=(0, 1, 2),
        )
        entry = result.benchmark("gobmk")
        assert entry.minimum <= entry.mean <= entry.maximum

    def test_variant_config_applies(self):
        result = sweep(
            SMALL,
            Scenario.baseline(),
            instructions=QUICK,
            variant_config=WESTMERE.with_extra_latency(1),
            label="fig10",
        )
        assert result.label == "fig10"
        assert all(entry.mean > 0 for entry in result.per_benchmark)

    def test_render(self):
        result = sweep(SMALL, Scenario(policy=Policy.INTELLIGENT),
                       instructions=QUICK)
        text = render_suite(result)
        assert "hmmer" in text and "AVG" in text


FIG10_LATENCY = WESTMERE.with_extra_latency(1)


@pytest.fixture()
def run_trace_calls(monkeypatch):
    """Count live simulations: every ``generator.run_trace`` call."""
    calls = []
    real = generator.run_trace

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(generator, "run_trace", counted)
    return calls


class TestSharedBaseline:
    def test_shared_memo_equals_unshared_runs(self):
        """Exact equality with two fresh simulations per cell (the
        memo-free definition of a cell), not just with ``slowdown``."""

        def unshared(name, scenario):
            profile = SPEC_PROFILES[name]
            return generator.relative_slowdown(
                profile,
                generator.run_trace(profile, Scenario.baseline(), QUICK),
                generator.run_trace(profile, scenario, QUICK),
            )

        runs: dict = {}
        for label, scenario in fig12_intelligent._configurations().items():
            shared = sweep(SMALL, scenario, instructions=QUICK,
                           label=label, runs=runs)
            per_cell = SuiteResult(label, tuple(
                BenchmarkSlowdown.from_samples(name, [unshared(name, scenario)])
                for name in SMALL
            ))
            assert shared == per_cell
            assert shared == sweep(SMALL, scenario, instructions=QUICK,
                                   label=label)

    def test_six_configurations_simulate_each_baseline_once(
        self, run_trace_calls
    ):
        runs: dict = {}
        for scenario in fig12_intelligent._configurations().values():
            sweep(SMALL, scenario, instructions=QUICK, runs=runs)
        assert len(run_trace_calls) == len(SMALL) * (1 + 6)
        baselines = [call for call in run_trace_calls
                     if call[1] == Scenario.baseline()]
        assert len(baselines) == len(SMALL)
        assert len(runs) == len(run_trace_calls)
        assert all(isinstance(run, generator.RunResult)
                   for run in runs.values())

    def test_fig10_cell_simulates_once(self, run_trace_calls):
        sweep(SMALL, Scenario.baseline(), instructions=QUICK,
              variant_config=FIG10_LATENCY)
        assert len(run_trace_calls) == len(SMALL)

    @pytest.mark.parametrize("figure, configurations", [
        (fig04_padding_sweep, len(fig04_padding_sweep.PADDING_SIZES)),
        (fig11_policies, len(fig11_policies._configurations())),
        (fig12_intelligent, len(fig12_intelligent._configurations())),
    ])
    def test_figure_shares_one_memo_across_its_sweeps(
        self, run_trace_calls, figure, configurations
    ):
        figure.run(instructions=QUICK, benchmarks=SMALL)
        assert len(run_trace_calls) == len(SMALL) * (1 + configurations)

    def test_store_path_never_calls_the_live_slowdown(
        self, tmp_path, monkeypatch
    ):
        live = sweep(SMALL, Scenario.baseline(), instructions=QUICK,
                     variant_config=FIG10_LATENCY)

        def refuse(*args, **kwargs):
            raise AssertionError("a store-backed sweep ran a live cell")

        monkeypatch.setattr(suite, "slowdown", refuse)
        store = CorpusStore(str(tmp_path / "corpus"))
        via_store = sweep(SMALL, Scenario.baseline(), instructions=QUICK,
                          variant_config=FIG10_LATENCY, store=store,
                          runs={})
        assert via_store == live
        assert store.built == len(SMALL)

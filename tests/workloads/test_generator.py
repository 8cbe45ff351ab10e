"""Tests for the benchmark profiles and the trace/timing engine."""

from dataclasses import replace

import pytest

from repro.memory.hierarchy import WESTMERE
from repro.softstack.insertion import Policy
from repro.workloads.generator import (
    Scenario,
    build_type_catalog,
    run_trace,
    slowdown,
)
from repro.workloads.specs import (
    FIG10_BENCHMARKS,
    FIG11_BENCHMARKS,
    SPEC_PROFILES,
    profile,
)

QUICK = 20_000  # instructions; tests favour speed over precision


class TestProfiles:
    def test_nineteen_benchmarks(self):
        assert len(FIG10_BENCHMARKS) == 19

    def test_fig11_excludes_three(self):
        assert len(FIG11_BENCHMARKS) == 16
        for name in ("dealII", "omnetpp", "gcc"):
            assert name not in FIG11_BENCHMARKS

    def test_lookup(self):
        assert profile("mcf").name == "mcf"
        with pytest.raises(KeyError):
            profile("quake")

    def test_profile_values_sane(self):
        for p in SPEC_PROFILES.values():
            assert p.heap_kb > 0
            assert 0 < p.mem_ratio < 1
            assert 0 < p.locality_skew <= 1
            assert 0 <= p.scan_fraction <= 1
            assert 0 <= p.stack_fraction < 1
            assert 0 <= p.struct_fraction <= 1
            assert 0 <= p.ptr_array_fraction <= 1
            assert p.overlap >= 1
            assert p.base_cpi > 0

    # At zero, burst_length and mem_ratio leave draw's budget loop
    # unending, heap_kb leaves it no object and locality_skew divides.
    @pytest.mark.parametrize(
        "field", ["heap_kb", "mem_ratio", "locality_skew", "burst_length"]
    )
    def test_a_zero_that_synthesis_cannot_run_is_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            replace(SPEC_PROFILES["mcf"], **{field: 0})


class TestScenario:
    def test_describe(self):
        assert Scenario.baseline().describe() == "baseline"
        assert Scenario(policy=("fixed", 3)).describe() == "fixed-3B"
        text = Scenario(policy=Policy.FULL, with_cform=True).describe()
        assert "full" in text and "+CFORM" in text


class TestTypeCatalog:
    def test_protected_sizes_never_shrink(self):
        natural = build_type_catalog(Scenario.baseline())
        for policy in (Policy.OPPORTUNISTIC, Policy.FULL, Policy.INTELLIGENT):
            protected = build_type_catalog(Scenario(policy=policy))
            for base, var in zip(natural, protected):
                assert var.size >= base.size

    def test_baseline_never_hooks(self):
        assert all(not info.hooked for info in build_type_catalog(Scenario.baseline()))

    def test_opportunistic_hooks_every_type(self):
        catalog = build_type_catalog(Scenario(policy=Policy.OPPORTUNISTIC))
        assert all(info.hooked for info in catalog)

    def test_intelligent_hooks_only_span_types(self):
        catalog = build_type_catalog(Scenario(policy=Policy.INTELLIGENT))
        for info in catalog:
            assert info.hooked == (info.cform_lines > 0)

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_memo_keeps_value_types(self, order):
        # Equal scenarios whose binary seeds differ in type seed the
        # catalog's RNG differently ("catalog:1" against "catalog:1.0").
        build_type_catalog.cache_clear()
        for seed in order:
            scenario = Scenario(policy=Policy.FULL, binary_seed=seed)
            assert build_type_catalog(scenario) == (
                build_type_catalog.__wrapped__(scenario)
            )


class TestRunTrace:
    def test_deterministic(self):
        p = SPEC_PROFILES["hmmer"]
        a = run_trace(p, Scenario.baseline(), instructions=QUICK)
        b = run_trace(p, Scenario.baseline(), instructions=QUICK)
        assert a.events == b.events
        assert a.instructions == b.instructions

    def test_seed_changes_events(self):
        p = SPEC_PROFILES["hmmer"]
        a = run_trace(p, Scenario.baseline(), instructions=QUICK, seed=0)
        b = run_trace(p, Scenario.baseline(), instructions=QUICK, seed=1)
        assert a.events != b.events

    def test_same_logical_work_across_scenarios(self):
        """Scenarios replay the same allocation events (fair comparison)."""
        p = SPEC_PROFILES["gobmk"]
        runs = [
            run_trace(p, scenario, instructions=QUICK)
            for scenario in (
                Scenario.baseline(),
                Scenario(policy=Policy.FULL),
                Scenario(policy=Policy.FULL, with_cform=True),
            )
        ]
        assert len({r.alloc_events for r in runs}) == 1

    def test_baseline_issues_no_cform(self):
        p = SPEC_PROFILES["perlbench"]
        result = run_trace(p, Scenario.baseline(), instructions=QUICK)
        assert result.cform_instructions == 0

    def test_cform_scenario_issues_cforms(self):
        p = SPEC_PROFILES["perlbench"]
        result = run_trace(
            p, Scenario(policy=Policy.FULL, with_cform=True), instructions=QUICK
        )
        assert result.cform_instructions > 0
        assert result.instructions > QUICK

    def test_event_counts_are_consistent(self):
        p = SPEC_PROFILES["astar"]
        events = run_trace(p, Scenario.baseline(), instructions=QUICK).events
        assert events.l1_accesses >= events.l1_misses
        assert events.l1_misses >= events.l2_misses
        assert events.l2_misses >= events.l3_misses


class TestSlowdowns:
    def test_padding_slows_struct_heavy_benchmarks(self):
        value = slowdown(
            SPEC_PROFILES["mcf"], Scenario(policy=Policy.FULL), instructions=50_000
        )
        assert value > 0.05  # mcf is the paper's padding-sensitive outlier

    def test_extra_latency_slows_everything(self):
        for name in ("hmmer", "mcf"):
            value = slowdown(
                SPEC_PROFILES[name],
                Scenario.baseline(),
                instructions=QUICK,
                variant_config=WESTMERE.with_extra_latency(1),
            )
            assert value > 0

    def test_compute_bound_benchmark_barely_notices_padding(self):
        value = slowdown(
            SPEC_PROFILES["lbm"], Scenario(policy=Policy.FULL), instructions=QUICK
        )
        assert abs(value) < 0.02  # raw-buffer heap: policies do not touch it

    def test_cform_adds_over_layout_only(self):
        p = SPEC_PROFILES["gobmk"]
        layout_only = slowdown(
            p, Scenario(policy=Policy.FULL), instructions=50_000
        )
        with_cform = slowdown(
            p, Scenario(policy=Policy.FULL, with_cform=True), instructions=50_000
        )
        assert with_cform > layout_only

"""The columnar synthesis path against the per-record oracle.

:func:`repro.workloads.generator.emit_trace` draws a benchmark's
scenario-free script once (:func:`~repro.workloads.generator.draw`) and
lays it out with numpy (:func:`~repro.workloads.generator.render`).
``oracle.emit_trace`` is the one-record-at-a-time generator it replaced:
one RNG call and one buffer call per record or burst, the heap simulated
for every object, one burst end per burst.  Both must hand a
:class:`~repro.memory.kernel.RecordBuffer` the same record columns and
the same burst ends, and return the same instruction count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.experiments import fig12_intelligent
from repro.memory.kernel import RecordBuffer
from repro.softstack.insertion import Policy
from repro.workloads import generator
from repro.workloads.generator import Scenario, draw, run_trace
from repro.workloads.specs import SPEC_PROFILES


class _Capture:
    """A consumer keeping every record block and every burst end."""

    def __init__(self):
        self.blocks = []
        self.ends = []

    def consume(self, kinds, addresses, args):
        self.blocks.append((kinds, addresses, args))

    def bursts(self, ends):
        self.ends.extend(ends.tolist())


def emitted(emit, *arguments):
    """``(instructions, (kinds, addresses, args), burst ends)`` of one emit."""
    capture = _Capture()
    records = RecordBuffer(capture)
    instructions = emit(records, *arguments)
    records.flush()
    columns = tuple(np.concatenate(column) for column in zip(*capture.blocks))
    return instructions, columns, capture.ends


SCENARIOS = st.one_of(
    st.just(Scenario.baseline()),
    st.builds(
        lambda pad, cform: Scenario(policy=("fixed", pad), with_cform=cform),
        st.integers(0, 7),
        st.booleans(),
    ),
    st.builds(
        lambda policy, cform, low, extra, binary_seed: Scenario(
            policy=policy,
            with_cform=cform,
            min_bytes=low,
            max_bytes=min(low + extra, 7),
            binary_seed=binary_seed,
        ),
        st.sampled_from(
            [Policy.OPPORTUNISTIC, Policy.INTELLIGENT, Policy.FULL]
        ),
        st.booleans(),
        st.integers(1, 7),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
)


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
@settings(max_examples=6, deadline=None)
@given(
    SCENARIOS,
    st.integers(1_000, 30_000),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0, 1, 16]),
)
def test_columnar_emit_matches_the_oracle(
    name, scenario, instructions, seed, warmup_fraction, quarantine_delay
):
    arguments = (
        SPEC_PROFILES[name], scenario, instructions, seed,
        warmup_fraction, quarantine_delay,
    )
    expected = emitted(oracle.emit_trace, *arguments)
    actual = emitted(generator.emit_trace, *arguments)
    assert actual[0] == expected[0]
    assert actual[2] == expected[2]
    for got, want in zip(actual[1], expected[1]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_a_burst_touches_its_object_before_its_own_churn_moves_it():
    # hmmer at seed 9 frees and reallocates the target of burst 159 in
    # that burst's churn: its touches use the old address, the next
    # burst's the new one.
    profile = SPEC_PROFILES["hmmer"]
    script = draw(profile, 5_000, seed=9, warmup_fraction=0.0)
    moved = [
        burst
        for victim, burst in zip(script.victims, script.victim_bursts)
        if script.kinds[burst] != generator.BURST_STACK
        and script.targets[burst] == victim
    ]
    assert moved == [159]
    scenario = Scenario(policy=Policy.FULL, with_cform=True)
    arguments = (profile, scenario, 5_000, 9, 0.0, 16)
    expected = emitted(oracle.emit_trace, *arguments)
    actual = emitted(generator.emit_trace, *arguments)
    assert actual[0] == expected[0] and actual[2] == expected[2]
    for got, want in zip(actual[1], expected[1]):
        np.testing.assert_array_equal(got, want)


def test_one_script_serves_every_scenario():
    profile = SPEC_PROFILES["gobmk"]
    script = draw(profile, 5_000)
    for scenario in (
        Scenario.baseline(),
        Scenario(policy=Policy.FULL, with_cform=True),
    ):
        assert run_trace(profile, scenario, 5_000, script=script) == (
            run_trace(profile, scenario, 5_000)
        )


def test_a_script_drawn_for_other_inputs_is_refused():
    script = draw(SPEC_PROFILES["gobmk"], 5_000)
    with pytest.raises(ValueError, match="different run"):
        run_trace(
            SPEC_PROFILES["gobmk"], Scenario.baseline(), 5_000, seed=1,
            script=script,
        )


def test_a_figure_draws_each_benchmark_once(monkeypatch):
    calls = []

    def counted(profile, *arguments, **keywords):
        calls.append(profile.name)
        return draw(profile, *arguments, **keywords)

    monkeypatch.setattr(generator, "draw", counted)
    benchmarks = ["gobmk", "hmmer", "mcf"]
    fig12_intelligent.run(instructions=2_000, benchmarks=benchmarks)
    assert sorted(calls) == benchmarks

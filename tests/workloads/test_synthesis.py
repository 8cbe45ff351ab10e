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

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.experiments import fig12_intelligent
from repro.memory import kernel
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


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_draw_matches_the_randrange_reference(name):
    # Production inlines randrange's rejection loop over getrandbits; the
    # oracle calls random.Random.randrange, so a Python whose randrange
    # consumes other words fails here.
    profile = SPEC_PROFILES[name]
    for seed, warmup_fraction in ((0, 1.0), (7, 0.5)):
        script = draw(profile, 5_000, seed, warmup_fraction)
        reference = oracle.draw(profile, 5_000, seed, warmup_fraction)
        for field in (
            "types", "raw_sizes", "kinds", "targets", "raw_offsets",
            "fields", "victims", "victim_bursts",
        ):
            expected = getattr(reference, field)
            assert getattr(script, field).dtype == expected.dtype
            assert np.array_equal(getattr(script, field), expected), field
        assert script.warm_burst == reference.warm_burst
        assert script.app_instructions == reference.app_instructions


def _assert_same_script(script, reference):
    for field in (
        "types", "raw_sizes", "kinds", "targets", "raw_offsets",
        "fields", "victims", "victim_bursts",
    ):
        expected = getattr(reference, field)
        assert getattr(script, field).dtype == expected.dtype, field
        assert np.array_equal(getattr(script, field), expected), field
    assert script.warm_burst == reference.warm_burst
    assert script.app_instructions == reference.app_instructions


@pytest.mark.parametrize("burst_length", [1, 5])
@pytest.mark.parametrize(
    "overrides",
    [
        # Raw bursts only: every burst's touches come from one batched
        # getrandbits.
        {"struct_fraction": 0.0, "scan_fraction": 0.0, "stack_fraction": 0.0},
        # No raw buffers, so no raw bursts.
        {"struct_fraction": 1.0},
    ],
    ids=["raw-only", "no-raw"],
)
def test_raw_bursts_match_the_scalar_reference(overrides, burst_length):
    profile = replace(
        SPEC_PROFILES["mcf"], burst_length=burst_length, **overrides
    )
    for seed, warmup_fraction in ((0, 1.0), (3, 0.5)):
        script = draw(profile, 20_000, seed, warmup_fraction)
        _assert_same_script(
            script, oracle.draw(profile, 20_000, seed, warmup_fraction)
        )
        raw_bursts = np.count_nonzero(script.kinds == generator.BURST_RAW)
        assert script.raw_offsets.size == raw_bursts * burst_length
        if overrides["struct_fraction"] == 1.0:
            assert raw_bursts == 0  # an empty int32 column, as compared
        else:
            assert raw_bursts == script.kinds.size


def _searched_sweep(homes, sizes, block):
    """The pre-warm sweep's addresses by a per-line search: each line's
    owner is found in the objects' cumulative line counts."""
    lines = (np.maximum(sizes, 1) + 63) // 64
    line_ends = np.cumsum(lines)
    line_starts = line_ends - lines
    total = int(line_ends[-1])
    for start in range(0, total, block):
        line = np.arange(start, min(start + block, total))
        owner = np.searchsorted(line_ends, line, side="right")
        yield homes[owner] + (line - line_starts[owner]) * 64


@pytest.mark.parametrize("block", [7, 64, kernel.SWEEP_BLOCK])
def test_sweep_blocks_match_the_per_line_search(monkeypatch, block):
    # Zero-size objects (one line each), sizes at and around a line,
    # objects longer than a block, and homes off the 64-byte grid; the
    # sweep spans several blocks at every block size.
    monkeypatch.setattr(kernel, "SWEEP_BLOCK", block)
    rng = np.random.default_rng(block)
    sizes = np.concatenate([
        [0, 0, 1, 63, 64, 65, 0, 128, 200_000, 0],
        rng.integers(0, 4096, 300),
        [64 * 3 * block + 1, 0],
    ]).astype(np.int64)
    carved = (sizes + 15) & ~15
    homes = 0x10_0008 + np.cumsum(carved) - carved
    assert (homes % 64 != 0).any()
    blocks = list(generator._sweep_blocks(homes, sizes))
    expected = list(_searched_sweep(homes, sizes, block))
    assert len(blocks) == len(expected) >= 3
    for (kinds, addresses, args, ends), reference in zip(blocks, expected):
        assert addresses.dtype == np.int64
        assert np.array_equal(addresses, reference)
        assert (kinds == generator.EV_LOAD).all() and (args == 8).all()
        assert kinds.size == args.size == addresses.size and ends is None

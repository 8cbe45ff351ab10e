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


def _scattered_bursts(script, catalog, types, sizes, homes, new_addresses, churn):
    """Burst blocks by per-touch scatters: touches assigned through 2D
    boolean masks, each touch record scattered to its position and the
    churn to the positions left over, and each block's relocations
    searched again with unsorted needles."""
    churn_kinds, churn_addresses, churn_args, churn_bursts = churn
    burst_count = len(script.kinds)
    burst_length = script.profile.burst_length
    steps = np.arange(burst_length, dtype=np.int64)
    targets = script.targets.astype(np.int64)
    relocation_keys = (
        script.victims.astype(np.int64) * (burst_count + 1)
        + script.victim_bursts
    )
    order = np.argsort(relocation_keys, kind="stable")
    relocation_keys = relocation_keys[order]
    relocation_objects = script.victims[order]
    relocation_addresses = new_addresses[order]
    field_offsets = np.zeros(
        (len(catalog), max(len(info.field_offsets) for info in catalog)),
        dtype=np.int64,
    )
    for index, info in enumerate(catalog):
        field_offsets[index, : len(info.field_offsets)] = info.field_offsets
    per_burst = burst_length + np.bincount(churn_bursts, minlength=burst_count)
    if script.warm_burst >= 0:
        per_burst[script.warm_burst] += 1
    burst_ends = np.cumsum(per_burst)
    raw_cursor = field_cursor = 0
    first = 0
    while first < burst_count:
        base = int(burst_ends[first - 1]) if first else 0
        stop = min(
            int(np.searchsorted(burst_ends, base + kernel.TOUCH_BLOCK)) + 1,
            burst_count,
        )
        kinds = script.kinds[first:stop]
        touches = np.empty((stop - first, burst_length), dtype=np.int64)
        stack = kinds == generator.BURST_STACK
        touches[stack] = (
            generator._STACK_BASE + targets[first:stop][stack, None] + steps * 8
        )
        heap = ~stack
        objects = targets[first:stop][heap]
        addresses = homes[objects]
        if len(relocation_keys):
            keys = objects * (burst_count + 1) + np.arange(first, stop)[heap]
            last = np.searchsorted(relocation_keys, keys, side="left") - 1
            relocated = last >= 0
            last[~relocated] = 0
            relocated &= relocation_objects[last] == objects
            addresses = np.where(relocated, relocation_addresses[last], addresses)
        offsets = np.empty((len(objects), burst_length), dtype=np.int64)
        heap_kinds = kinds[heap]
        scan = heap_kinds == generator.BURST_SCAN
        offsets[scan] = steps * 8 % np.maximum(sizes[objects[scan]], 8)[:, None]
        raw = heap_kinds == generator.BURST_RAW
        count = int(raw.sum()) * burst_length
        offsets[raw] = script.raw_offsets[
            raw_cursor : raw_cursor + count
        ].reshape(-1, burst_length)
        raw_cursor += count
        field = heap_kinds == generator.BURST_FIELD
        count = int(field.sum()) * burst_length
        offsets[field] = field_offsets[
            types[objects[field]][:, None],
            script.fields[field_cursor : field_cursor + count].reshape(
                -1, burst_length
            ),
        ]
        field_cursor += count
        touches[heap] = addresses[:, None] + offsets
        ends = burst_ends[first:stop] - base
        starts = ends - per_burst[first:stop]
        size = int(ends[-1])
        record_kinds = np.empty(size, dtype=np.uint8)
        record_addresses = np.empty(size, dtype=np.int64)
        record_args = np.empty(size, dtype=np.int64)
        churn_slots = np.ones(size, dtype=bool)
        if first <= script.warm_burst < stop:
            warm_at = int(starts[script.warm_burst - first])
            record_kinds[warm_at] = generator.EV_WARM
            record_addresses[warm_at] = record_args[warm_at] = 0
            churn_slots[warm_at] = False
            starts[script.warm_burst - first] += 1
        positions = (starts[:, None] + steps).ravel()
        record_kinds[positions] = np.where(
            stack, generator.EV_STORE, generator.EV_LOAD
        ).repeat(burst_length)
        record_addresses[positions] = touches.ravel()
        record_args[positions] = 8
        churn_slots[positions] = False
        low, high = np.searchsorted(churn_bursts, (first, stop))
        positions = np.flatnonzero(churn_slots)
        record_kinds[positions] = churn_kinds[low:high]
        record_addresses[positions] = churn_addresses[low:high]
        record_args[positions] = churn_args[low:high]
        yield record_kinds, record_addresses, record_args, ends
        first = stop


def _rendered_bursts(script, scenario):
    """The burst blocks of one :func:`~repro.workloads.generator.render`."""
    _, blocks = generator.render(script, scenario)
    return [block for block in blocks if block[3] is not None]


def _reference_bursts(monkeypatch, script, scenario):
    """:func:`_rendered_bursts` with :func:`_scattered_bursts` laying out
    the bursts."""
    with monkeypatch.context() as patch:
        patch.setattr(generator, "_burst_blocks", _scattered_bursts)
        return _rendered_bursts(script, scenario)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"allocs_per_kinst": 0.0},  # no victims, so no relocations
        {"struct_fraction": 0.0},  # no field bursts
        {"struct_fraction": 1.0},  # no raw bursts
        {"burst_length": 1},
    ],
    ids=["small-heap", "no-victims", "no-fields", "no-raw", "one-touch"],
)
@pytest.mark.parametrize("warmup_fraction", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("block", [1, 7, kernel.TOUCH_BLOCK])
def test_burst_blocks_match_the_scatter_reference(
    monkeypatch, block, warmup_fraction, overrides
):
    # Warmup 1.0 and 0.5 put the warm record mid-block, or at a block
    # start when a block is one burst; 0.0 leaves it out.  A 16 KB heap
    # has few objects, so the churn often moves one a later burst
    # touches.
    monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
    profile = replace(SPEC_PROFILES["perlbench"], heap_kb=16, **overrides)
    script = draw(profile, 2_000, seed=1, warmup_fraction=warmup_fraction)
    kinds = set(script.kinds.tolist())
    assert (generator.BURST_FIELD in kinds) != (profile.struct_fraction == 0)
    assert (generator.BURST_RAW in kinds) != (profile.struct_fraction == 1)
    assert (script.relocations[0].size > 0) == (profile.allocs_per_kinst > 0)
    assert (script.warm_burst >= 0) == (warmup_fraction > 0)
    for scenario in (
        Scenario.baseline(), *fig12_intelligent._configurations().values()
    ):
        blocks = _rendered_bursts(script, scenario)
        expected = _reference_bursts(monkeypatch, script, scenario)
        assert len(blocks) == len(expected)
        for got, want in zip(blocks, expected):
            for column, reference in zip(got, want):
                assert column.dtype == reference.dtype
                np.testing.assert_array_equal(column, reference)


def test_an_object_moved_twice_takes_its_later_address(monkeypatch):
    # Object 1 is freed and reallocated once in the churn of burst 0
    # and twice in burst 1's: burst 1 touches it where the first move
    # put it and burst 3 where the third did.  Burst 2 is a stack burst
    # at offset 1, which is no object and never moves.
    scan, stack = generator.BURST_SCAN, generator.BURST_STACK
    script = generator.Script(
        profile=replace(SPEC_PROFILES["mcf"], burst_length=2),
        instructions=0,
        seed=0,
        warmup_fraction=0.0,
        types=np.full(3, -1, dtype=np.int16),
        raw_sizes=np.full(3, 64, dtype=np.int32),
        kinds=np.array([scan, scan, stack, scan], dtype=np.int8),
        targets=np.array([1, 1, 1, 1], dtype=np.int32),
        raw_offsets=np.zeros(0, dtype=np.int32),
        fields=np.zeros(0, dtype=np.uint8),
        victims=np.array([1, 1, 1], dtype=np.int32),
        victim_bursts=np.array([0, 1, 1], dtype=np.int32),
        warm_burst=-1,
        app_instructions=0.0,
    )
    bursts, events = script.relocations
    assert bursts.tolist() == [1, 3] and events.tolist() == [0, 2]
    # The three objects fill [heap, heap + 192); a quarantined free is
    # not reused, so each move bumps the cursor by 64.
    heap = generator._HEAP_BASE
    expected = [heap + 64, heap + 192, generator._STACK_BASE + 1, heap + 320]
    for blocks in (
        _rendered_bursts(script, Scenario.baseline()),
        _reference_bursts(monkeypatch, script, Scenario.baseline()),
    ):
        kinds, addresses, _, _ = (np.concatenate(c) for c in zip(*blocks))
        touches = addresses[kinds <= generator.EV_STORE]
        assert touches.tolist() == [
            base + step for base in expected for step in (0, 8)
        ]


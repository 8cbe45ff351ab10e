"""The live writers' statistics do not depend on the record block size.

Every writer (the workload generator, the attack driver and the loadgen
composer) emits its records into a
:class:`~repro.memory.kernel.RecordBuffer`, which hands them to the
timing accountant (and, when recording, to the trace writer) in blocks
of at most :data:`~repro.memory.kernel.TOUCH_BLOCK` records, flushed at
burst ends.  The accountant is exact however the stream is cut — the
warm boundary may fall anywhere inside a block — so the ``RunResult``
must be identical for any block size, down to one record per block.
Patching ``TOUCH_BLOCK`` varies only the writers' and the buffer's cut:
the accountant splits a block only at warm records, and the ladder's
pending block (``PENDING_TOUCHES``) keeps its own size.
"""

from dataclasses import replace

import pytest

from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.memory import kernel
from repro.traces import CORPUS
from repro.traces.recorder import live_run

INSTRUCTIONS = 3_000

#: Blocks to compare against the default: one record per block, and a
#: size that cuts bursts at odd places.
BLOCKS = (1, 7)

#: A composition whose warm boundary falls mid-stream.  Both profiles
#: carve few, large objects, so the one-flush-per-burst runs stay cheap.
LOAD = LoadScenario(
    name="block-mix",
    description="loadgen stream for the flush-block suite",
    arrival=ArrivalSpec(kind="poisson", lambda_per_s=150.0),
    mix=(
        MixEntry(profile="scan-heavy", weight=2.0),
        MixEntry(profile="dma-mixed", weight=1.0),
    ),
    tenants=2,
    duration_s=0.1,
    warmup_s=0.03,
    seed=5,
)


def writer_specs(warmup_fraction: float):
    """A generator spec with CFORM work and an attack-driver spec."""
    generator = CORPUS["dma-mixed"].scaled(INSTRUCTIONS)
    attack = CORPUS["attack-replay"].scaled(INSTRUCTIONS)
    # A smaller victim arena keeps the pre-warm sweep to a few hundred
    # bursts' worth of flushes at block 1.
    attack = replace(attack, profile=replace(attack.profile, heap_kb=64))
    return [
        replace(spec, warmup_fraction=warmup_fraction)
        for spec in (generator, attack)
    ]


@pytest.mark.parametrize("warmup_fraction", [0.0, 1.0])
def test_run_result_is_independent_of_the_flush_block(
    warmup_fraction, monkeypatch
):
    specs = writer_specs(warmup_fraction)
    default = [live_run(spec) for spec in specs]
    assert all(result.events.l1_accesses for result in default)
    for block in BLOCKS:
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
        assert [live_run(spec) for spec in specs] == default


def test_composed_result_is_independent_of_the_flush_block(monkeypatch):
    spec = compose_spec(LOAD)
    default = live_run(spec)
    for block in BLOCKS:
        monkeypatch.setattr(kernel, "TOUCH_BLOCK", block)
        assert live_run(spec) == default

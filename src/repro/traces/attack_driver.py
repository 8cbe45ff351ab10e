"""Attack-replay trace driver: exploit-suite probes as a workload.

:mod:`repro.analysis.attacks` models nine concrete exploit access
patterns (intra-object overflows, adjacent over-reads, jump overflows,
use-after-free, heap scans, ...) against the schemes' functional models.
This driver turns the *memory behaviour* of that suite into a recordable
workload with the same contract as
:func:`repro.workloads.generator.run_trace`: a deterministic campaign of
heap grooming plus attack probe bursts, emitted as ``EV_*`` records
(:func:`emit_attack_trace`) and counted by the same timing accountant as
every other writer, with the record blocks optionally handed to a
trace-engine sink too.  A
recorded ``attack-replay`` trace therefore replays bit-identically
through the standard replayers — the corpus can persist
adversarial traffic next to the benign mixes, and cache-side studies
(e.g. how probing sweeps pollute a co-runner's shared L3) run from the
same artifacts.

The campaign structure per burst:

1. pick a victim object (zipf-style, like the generator's locality);
2. run one attack pattern from the suite — the probe addresses reuse
   the geometry constants of :mod:`repro.analysis.attacks` (victim
   size, array end, jump distance), placed at the victim's address;
3. apply allocation churn at the profile's rate — the *grooming* side
   of a real exploit: frees and reallocations that recycle addresses
   (use-after-free probes deliberately target recently freed victims).

Instruction accounting mirrors the generator (``burst_length /
mem_ratio`` application instructions per burst, warmup discarded at the
``EV_WARM`` boundary), so pipeline-model cycles are comparable across
benign and adversarial traces; the driver counts only those
instructions, the accountant everything else.
"""

from __future__ import annotations

import random
from collections import deque

from repro.analysis.attacks import (
    _ARRAY_END,
    _VICTIM_SIZE,
    ATTACK_NAMES,
)
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.memory.kernel import (
    EV_ALLOC,
    EV_FREE,
    EV_LOAD,
    EV_STORE,
    EV_WARM,
    RecordBuffer,
)
from repro.workloads.generator import RunResult, Scenario, counted_run
from repro.workloads.specs import BenchmarkProfile

#: Heap placement mirrors the generator's synthetic address space.
_ARENA_BASE = 0x0200_0000

#: Victims are carved at the suite's object size plus a gap, so adjacent
#: and jump overflow probes land on neighbour/unallocated addresses the
#: way the suite's placement does.
_VICTIM_STRIDE = _VICTIM_SIZE + 64

#: Jump overflow distance (clears victim redzone and neighbour, as in
#: the suite's ``jump_overflow`` probe).
_JUMP_DISTANCE = _VICTIM_SIZE + 240

#: heap_scan probes per burst (the suite sweeps 32 random offsets).
_SCAN_PROBES = 32


def run_attack_trace(
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    config: HierarchyConfig = WESTMERE,
    warmup_fraction: float = 1.0,
    sink=None,
    quarantine_delay: int = 16,
) -> RunResult:
    """Simulate one attack campaign; same contract as ``run_trace``.

    The sink consumes the same record blocks the accountant counts, so
    a recorded campaign is bit-identical to an unrecorded one (the
    round-trip invariant).  ``scenario`` participates only through the
    result (attack traffic probes raw memory; no layout inflation or
    CFORM work is modelled).
    """
    return counted_run(
        profile.name,
        scenario,
        config,
        sink,
        lambda records: emit_attack_trace(
            records, profile, scenario, instructions, seed,
            warmup_fraction, quarantine_delay,
        ),
    )


def emit_attack_trace(
    records: RecordBuffer,
    profile: BenchmarkProfile,
    scenario: Scenario,
    instructions: int = 200_000,
    seed: int = 0,
    warmup_fraction: float = 1.0,
    quarantine_delay: int = 16,
) -> int:
    """Emit one attack campaign's record stream; return its instructions."""
    rng = random.Random(f"{profile.name}:{seed}")
    append = records.append
    run = records.run
    burst_end = records.burst_end
    burst_length = profile.burst_length

    # -- victim population --------------------------------------------------
    # A fixed-stride arena of victim slots; grooming recycles them
    # through a quarantine so UAF probes hit genuinely stale addresses.
    victim_count = max(8, (profile.heap_kb * 1024) // _VICTIM_STRIDE)
    victims = [
        _ARENA_BASE + index * _VICTIM_STRIDE for index in range(victim_count)
    ]
    next_slot = _ARENA_BASE + victim_count * _VICTIM_STRIDE
    quarantine: deque[int] = deque()
    recently_freed: deque[int] = deque(maxlen=16)

    # Pre-warm every victim line once, like the generator's first-touch
    # sweep, so measured misses reflect probe behaviour, not cold starts.
    records.sweep(
        EV_LOAD,
        (
            line
            for base in victims
            for line in range(base, base + _VICTIM_SIZE, 64)
        ),
        8,
    )

    skew_exponent = 1.0 / profile.locality_skew
    burst_instructions = burst_length / profile.mem_ratio
    app_instructions = 0.0
    alloc_accumulator = 0.0

    attack_kinds = ATTACK_NAMES

    warmup_budget = instructions * warmup_fraction
    total_budget = warmup_budget + instructions
    warm = warmup_fraction == 0.0

    while app_instructions < total_budget:
        if not warm and app_instructions >= warmup_budget:
            warm = True
            app_instructions -= warmup_budget
            total_budget -= warmup_budget
            append(EV_WARM, 0, 0)
        app_instructions += burst_instructions

        index = int(victim_count * rng.random() ** skew_exponent)
        base = victims[min(index, victim_count - 1)]
        attack = attack_kinds[rng.randrange(len(attack_kinds))]

        if attack == "intra_overflow":
            probe = base + _ARRAY_END - 4
            run(EV_STORE, range(probe, probe + burst_length), 8)
        elif attack == "intra_overread":
            probe = base + _ARRAY_END - 4
            run(EV_LOAD, range(probe, probe + burst_length), 8)
        elif attack == "adjacent_overflow":
            probe = base + _VICTIM_SIZE
            run(EV_STORE, range(probe, probe + burst_length), 8)
        elif attack == "adjacent_overread":
            probe = base + _VICTIM_SIZE
            run(EV_LOAD, range(probe, probe + burst_length), 8)
        elif attack == "off_by_one":
            append(EV_STORE, base + _VICTIM_SIZE, 8)
        elif attack == "jump_overflow":
            append(EV_STORE, base + _JUMP_DISTANCE, 8)
        elif attack == "underflow":
            append(EV_STORE, base - 4, 8)
        elif attack == "use_after_free":
            # Dereference a recently recycled victim when grooming has
            # produced one; otherwise fall back to the chosen victim.
            stale = (recently_freed[-1] if recently_freed else base) + 16
            run(EV_LOAD, range(stale, stale + burst_length * 8, 8), 8)
        else:  # heap_scan
            run(
                EV_LOAD,
                [
                    base + rng.randrange(_VICTIM_SIZE)
                    for _ in range(_SCAN_PROBES)
                ],
                8,
            )

        # Grooming churn at the profile's allocation rate.
        alloc_accumulator += profile.allocs_per_kinst * burst_instructions / 1000.0
        while alloc_accumulator >= 1.0:
            alloc_accumulator -= 1.0
            victim_index = rng.randrange(victim_count)
            old = victims[victim_index]
            append(EV_FREE, old, _VICTIM_SIZE)
            quarantine.append(old)
            recently_freed.append(old)
            if len(quarantine) > quarantine_delay:
                new_base = quarantine.popleft()
            else:
                new_base = next_slot
                next_slot += _VICTIM_STRIDE
            victims[victim_index] = new_base
            append(EV_ALLOC, new_base, _VICTIM_SIZE)

        burst_end()

    return int(app_instructions)

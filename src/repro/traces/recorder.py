"""Recorder: persist a live writer's record stream.

The writers own the workload logic; the recorder only listens.  A
:class:`RecordingSink` is handed to a writer (``run_trace``,
``run_attack_trace`` or the loadgen composer) as its ``sink``: the
writer's :class:`~repro.memory.kernel.RecordBuffer` hands every block of
records to the streaming
:class:`~repro.traces.compress.CompressedTraceWriter` as well as to the
timing accountant, and the sink drops an EPOCH marker
into the stream every ``epoch_bursts`` bursts (the shard split points).
The trace therefore holds exactly the stream the live
:class:`~repro.workloads.generator.RunResult` was counted from;
:func:`record_spec` returns that result alongside the trace it wrote,
and the footer stores its statistics for replay-time verification.  A
:class:`~repro.traces.format.CanonicalHash` handed to the sink is fed
the same blocks, so a recording's canonical digest is taken in the one
pass that writes it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.traces.compress import CompressedTraceWriter
from repro.traces.format import EV_EPOCH, MAGIC, CanonicalHash
from repro.traces.registry import SPEC_VERSION, TraceScenarioSpec
from repro.workloads.generator import RunResult, Script, run_trace


class RecordingSink:
    """A writer's recording tap: the trace writer plus EPOCH placement,
    and optionally a :class:`CanonicalHash` of the same stream."""

    __slots__ = ("_append", "_canonical", "epochs", "_epoch_bursts", "_bursts")

    def __init__(
        self,
        writer: CompressedTraceWriter,
        epoch_bursts: int,
        canonical: CanonicalHash | None = None,
    ):
        self._append = writer.append_columns
        self._canonical = canonical
        self._epoch_bursts = epoch_bursts
        self._bursts = 0
        self.epochs = 0

    def consume(self, kinds, addresses, args) -> None:
        """A block of the writer's records: hashed, then written."""
        if self._canonical is not None:
            self._canonical.consume(kinds, addresses, args)
        self._append(kinds, addresses, args)

    def bursts(self, ends):
        """A batch of bursts (+ their churn) just finished: an EPOCH
        marker after every ``epoch_bursts``-th burst of the run."""
        before = self._bursts
        self._bursts += len(ends)
        # Bursts are numbered from 1; burst n ends an epoch when n is a
        # multiple of epoch_bursts.
        marked = np.arange(
            before // self._epoch_bursts + 1,
            self._bursts // self._epoch_bursts + 1,
            dtype=np.int64,
        )
        if not len(marked):
            return None
        which = marked * self._epoch_bursts - before - 1
        epochs = np.arange(self.epochs, self.epochs + len(which), dtype=np.int64)
        self.epochs += len(which)
        return (
            which,
            np.full(len(which), EV_EPOCH, dtype=np.uint8),
            epochs,
            np.zeros(len(which), dtype=np.int64),
        )


def _geometry_dict(config: HierarchyConfig) -> dict:
    return {
        "l1": [config.l1_geometry.size_bytes, config.l1_geometry.associativity],
        "l2": [config.l2_geometry.size_bytes, config.l2_geometry.associativity],
        "l3": [config.l3_geometry.size_bytes, config.l3_geometry.associativity],
        "latencies": [
            config.l1_latency, config.l2_latency,
            config.l3_latency, config.dram_latency,
        ],
        # Figure 10's pessimistic-latency knobs: without these the
        # replayed cycle model would silently differ from the recorded
        # config's.
        "extra_cycles": [config.l2_extra_cycles, config.l3_extra_cycles],
    }


def _driver_for(spec: TraceScenarioSpec):
    """Resolve the spec's trace driver (the function that runs the
    workload live, with or without a sink).  ``generator`` is the
    synthetic SPEC-like engine; ``attacks`` replays the exploit-suite
    probe patterns of :mod:`repro.analysis.attacks` (heap grooming,
    overflow probes, scans) through the same cache ladder."""
    if spec.driver == "generator":
        return run_trace
    if spec.driver == "attacks":
        from repro.traces.attack_driver import run_attack_trace

        return run_attack_trace
    if spec.driver == "loadgen":
        # The composition is defined by the spec's driver_config (the
        # LoadScenario document), not by the call-site knobs, so the
        # driver is a per-spec closure.
        from repro.loadgen.compose import driver_for_spec

        return driver_for_spec(spec)
    raise ValueError(f"unknown trace driver {spec.driver!r}")


def live_run(spec: TraceScenarioSpec, config: HierarchyConfig = WESTMERE) -> RunResult:
    """Run a spec's workload live, unrecorded (driver-dispatched)."""
    return _driver_for(spec)(
        spec.profile,
        spec.build_scenario(),
        instructions=spec.instructions,
        seed=spec.seed,
        config=config,
        warmup_fraction=spec.warmup_fraction,
        quarantine_delay=spec.quarantine_delay,
    )


def record_spec(
    spec: TraceScenarioSpec,
    target,
    config: HierarchyConfig = WESTMERE,
    canonical: CanonicalHash | None = None,
    script: Script | None = None,
) -> RunResult:
    """Record one registry scenario to ``target`` (path or file object).

    Runs the spec's driver live with the recording sink attached and
    returns the live :class:`RunResult`; the trace's footer carries the
    result's statistics so any replay can verify itself against the
    recording.

    ``canonical``, a fresh :class:`CanonicalHash`, is fed the header,
    every record block and the footer as they are written: afterwards
    it holds what :func:`repro.corpus.store.canonical_digest` of the
    finished file computes.  ``script`` is the
    :func:`~repro.workloads.generator.draw` of a generator spec, drawn
    once and shared (the run's memo); without one the driver draws.
    """
    header = {
        "format": MAGIC.decode("ascii"),
        "spec_version": SPEC_VERSION,
        "spec": spec.to_dict(),
        "geometry": _geometry_dict(config),
    }
    try:
        return _record_to_writer(
            spec, target, config, header, canonical, script
        )
    except BaseException:
        # A failed/interrupted recording must not leave a terminator-less
        # file behind for a later replay glob to choke on.
        if isinstance(target, str):
            try:
                os.remove(target)
            except OSError:
                pass
        raise


def _record_to_writer(
    spec, target, config, header, canonical, script
) -> RunResult:
    shared = {} if script is None else {"script": script}
    if canonical is not None:
        canonical.begin(header)
    with CompressedTraceWriter(target, header) as writer:
        sink = RecordingSink(writer, spec.epoch_bursts, canonical)
        result = _driver_for(spec)(
            spec.profile,
            spec.build_scenario(),
            instructions=spec.instructions,
            seed=spec.seed,
            config=config,
            warmup_fraction=spec.warmup_fraction,
            sink=sink,
            quarantine_delay=spec.quarantine_delay,
            **shared,
        )
        footer = {
            "benchmark": result.benchmark,
            "instructions": result.instructions,
            "cform_instructions": result.cform_instructions,
            "alloc_events": result.alloc_events,
            "events": {
                "l1_accesses": result.events.l1_accesses,
                "l1_misses": result.events.l1_misses,
                "l2_misses": result.events.l2_misses,
                "l3_misses": result.events.l3_misses,
            },
            "records": writer.record_count,
            "epochs": sink.epochs,
        }
        writer.set_footer(footer)
        if canonical is not None:
            canonical.end(footer)
    return result

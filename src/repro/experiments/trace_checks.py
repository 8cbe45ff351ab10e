"""Trace-engine cross-check: experiment figures driven from the corpus.

Demonstrates (and continuously verifies) that recorded workloads are
first-class, *shared* artifacts: for a slice of the scenario registry
the section resolves protected and baseline traces through the
content-addressed corpus store (:mod:`repro.corpus`) — recording on the
first runner invocation, replaying pure corpus hits thereafter — then
checks that the replayed statistics are bit-identical to the recorded
run's and computes a Figure-11-style slowdown entirely from the
persisted artifacts.  The rendered table reports, per scenario, whether
this invocation hit the corpus or had to record, and what the CALTRC02
compression bought.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace

from repro.corpus.store import CorpusStore
from repro.experiments.context import RunContext
from repro.experiments.registry import experiment, section
from repro.experiments.results import SectionResult
from repro.memory.hierarchy import WESTMERE
from repro.traces.registry import CORPUS, TraceScenarioSpec
from repro.traces.replayer import replay_timing
from repro.workloads.generator import relative_slowdown

#: Registry slice exercised by the report section (kept small: the
#: section runs inside the quick-mode experiment runner).
CHECK_SCENARIOS = ("server-churn", "allocator-stress", "pointer-chase")


@dataclass(frozen=True)
class TraceCheck:
    """Outcome of one corpus-resolve→replay→compare round."""

    name: str
    records: int
    stored_bytes: int
    compression_ratio: float
    source: str  # "corpus hit" or "recorded"
    recorded_cycles: float  # from the footer's persisted statistics
    replayed_cycles: float
    trace_slowdown: float  # protected-vs-baseline, computed from traces

    @property
    def bit_identical(self) -> bool:
        return self.recorded_cycles == self.replayed_cycles


def _cycles(spec: TraceScenarioSpec, result) -> float:
    return result.cycles(WESTMERE, spec.profile)


def _replay(store: CorpusStore, spec: TraceScenarioSpec, runs: dict):
    """Resolve a spec through the store; returns (replayed result, object).

    The object's own ``result`` — the recording's, or on a hit its
    footer's — is the comparison's other arm, independent of the replay.
    ``runs`` is the section's script memo: a mix and its unprotected
    twin record from one draw.
    """
    resolved = store.ensure(spec, runs=runs)
    return replay_timing(resolved.path), resolved


def run(instructions: int = 20_000, store: CorpusStore | None = None) -> list[TraceCheck]:
    """Resolve, replay and cross-check a slice of the scenario registry.

    Without a ``store`` an ephemeral one is used (standalone invocation);
    the runner passes its persistent default store, so a second runner
    invocation performs zero re-recording.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-corpus-") as workdir:
            return run(instructions, CorpusStore(workdir))
    checks: list[TraceCheck] = []
    runs: dict = {}
    for name in CHECK_SCENARIOS:
        spec = CORPUS[name].scaled(instructions)
        replayed, resolved = _replay(store, spec, runs)
        # The slowdown figure's other trace: the same mix, unprotected —
        # the figure is then computed purely from persisted artifacts.
        baseline_spec = replace(
            spec, name=f"{name}-baseline", policy=None, with_cform=False
        )
        baseline_replayed, _ = _replay(store, baseline_spec, runs)
        checks.append(
            TraceCheck(
                name=name,
                records=resolved.entry.records,
                stored_bytes=resolved.entry.stored_bytes,
                compression_ratio=resolved.entry.compression_ratio,
                source="recorded" if resolved.built else "corpus hit",
                recorded_cycles=_cycles(spec, resolved.result),
                replayed_cycles=_cycles(spec, replayed),
                trace_slowdown=relative_slowdown(
                    spec.profile, baseline_replayed, replayed
                ),
            )
        )
    return checks


def render(checks: list[TraceCheck]) -> str:
    lines = [
        "scenario             records  stored B  ratio  replay==recorded"
        "  slowdown  source",
        "-------------------- ------- --------- ------ -----------------"
        " --------- ----------",
    ]
    for check in checks:
        lines.append(
            f"{check.name:20s} {check.records:7d} {check.stored_bytes:9d} "
            f"{check.compression_ratio:5.1f}x "
            f"{'yes' if check.bit_identical else 'NO':>17s} "
            f"{check.trace_slowdown * 100.0:8.2f}%  {check.source}"
        )
    lines.append("")
    lines.append(
        "replay==recorded: replaying the corpus object reproduces the "
        "recorded run's cycle statistics bit-identically;"
    )
    lines.append(
        "the slowdown column is a Figure-11-style protected-vs-baseline "
        "ratio computed entirely from corpus traces;"
    )
    lines.append(
        "source shows whether this invocation reused the corpus "
        "('corpus hit') or had to record ('recorded')."
    )
    return "\n".join(lines)


@experiment(
    name="traces",
    title="Trace engine — figures from recorded traces",
    tags=("trace",),
    needs=("instructions", "corpus"),
    order=120,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    # A fraction of the figure trace length keeps the recorded files and
    # this section's runtime small; the invariant is length-independent.
    checks = run(instructions=ctx.instructions // 4, store=ctx.store)
    data = {
        "scenarios": list(CHECK_SCENARIOS),
        "checks": checks,
        "all_bit_identical": all(check.bit_identical for check in checks),
    }
    return section("traces", data, render(checks))

"""Figure 10: slowdown from +1 cycle on both L2 and L3 access latency.

Paper: per-benchmark slowdowns from 0.24 % (hmmer) to 1.37 %
(xalancbmk); average 0.83 % — "well in the range of error when executed
on real systems".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.suite import SuiteResult, sweep
from repro.experiments.context import RunContext
from repro.experiments.registry import experiment, section
from repro.experiments.results import SectionResult
from repro.memory.hierarchy import WESTMERE
from repro.workloads.generator import Scenario
from repro.workloads.specs import FIG10_BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore

#: Paper headline values (percent).
PAPER = {"average": 0.83, "minimum": 0.24, "maximum": 1.37,
         "lowest_benchmark": "hmmer", "highest_benchmark": "xalancbmk"}


def run(
    instructions: int = 100_000,
    benchmarks: list[str] | None = None,
    extra_cycles: int = 1,
    store: "CorpusStore | None" = None,
    runs: dict | None = None,
) -> SuiteResult:
    """``store`` resolves the per-benchmark baselines through the
    recorded-trace corpus; both latency configurations price the same
    recorded event stream (one trace per benchmark serves both).
    ``runs`` is the run's memo (see :func:`repro.analysis.suite.sweep`)."""
    return sweep(
        benchmarks or FIG10_BENCHMARKS,
        Scenario.baseline(),
        instructions=instructions,
        variant_config=WESTMERE.with_extra_latency(extra_cycles),
        label=f"+{extra_cycles} cycle L2/L3 latency",
        store=store,
        runs=runs,
    )


def render(result: SuiteResult) -> str:
    lines = ["Figure 10: slowdown with +1-cycle L2/L3 latency", ""]
    for entry in result.per_benchmark:
        lines.append(f"  {entry.benchmark:11s} {entry.mean * 100:5.2f}%")
    lines.append(f"  {'AVG':11s} {result.average * 100:5.2f}%  (paper 0.83%)")
    return "\n".join(lines)


@experiment(
    name="fig10",
    title="Figure 10 — +1-cycle L2/L3 latency",
    tags=("figure", "trace"),
    needs=("instructions", "corpus"),
    order=60,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    result = run(
        instructions=ctx.instructions, store=ctx.store, runs=ctx.runs
    )
    data = {"paper": PAPER, "average": result.average, "suite": result}
    return section("fig10", data, render(result))

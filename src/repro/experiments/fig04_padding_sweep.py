"""Figure 4: average slowdown as fixed padding grows from 1 B to 7 B.

Paper: monotonic growth from 3.0 % (1 B) to 7.6 % (7 B) across the 19
SPEC benchmarks, "mainly due to ineffective cache usage".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.suite import SuiteResult, sweep
from repro.experiments.context import RunContext
from repro.experiments.registry import experiment, section
from repro.experiments.results import SectionResult
from repro.workloads.generator import Scenario
from repro.workloads.specs import FIG10_BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore

#: Paper values: average slowdown per padding size (percent).
PAPER = {1: 3.0, 2: 5.4, 3: 5.8, 4: 5.8, 5: 6.0, 6: 6.2, 7: 7.6}

PADDING_SIZES = tuple(range(1, 8))


@dataclass(frozen=True)
class PaddingSweepResult:
    per_size: dict[int, SuiteResult]

    def averages(self) -> dict[int, float]:
        return {size: result.average for size, result in self.per_size.items()}


def run(
    instructions: int = 100_000,
    benchmarks: list[str] | None = None,
    sizes: tuple[int, ...] = PADDING_SIZES,
    store: "CorpusStore | None" = None,
    runs: dict | None = None,
) -> PaddingSweepResult:
    """The padding sizes share one baseline run per benchmark: live, the
    sweeps share one ``runs`` memo (the run's, when given, so figures of
    one run share draws and baselines); with a ``store``
    (:class:`repro.corpus.CorpusStore`) every cell resolves through the
    recorded-trace corpus, where the baseline is one recorded object."""
    benchmarks = benchmarks or FIG10_BENCHMARKS
    runs = {} if runs is None else runs
    per_size = {
        size: sweep(
            benchmarks,
            Scenario(policy=("fixed", size)),
            instructions=instructions,
            label=f"fixed {size}B padding",
            store=store,
            runs=runs,
        )
        for size in sizes
    }
    return PaddingSweepResult(per_size=per_size)


def render(result: PaddingSweepResult) -> str:
    lines = ["Figure 4: slowdown vs fixed per-field padding", ""]
    lines.append("padding  measured  paper")
    for size, average in sorted(result.averages().items()):
        paper = PAPER.get(size)
        paper_text = f"{paper:5.1f}%" if paper is not None else "    -"
        lines.append(f"  {size}B     {average * 100:6.2f}%   {paper_text}")
    return "\n".join(lines)


@experiment(
    name="fig04",
    title="Figure 4 — fixed padding sweep",
    tags=("figure", "trace"),
    needs=("instructions", "corpus"),
    order=20,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    result = run(
        instructions=ctx.instructions, store=ctx.store, runs=ctx.runs
    )
    data = {
        "paper": PAPER,
        "averages": result.averages(),
        "per_size": result.per_size,
    }
    return section("fig04", data, render(result))

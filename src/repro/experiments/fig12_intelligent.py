"""Figure 12: the intelligent insertion policy, ± CFORM.

Paper: without CFORM the layout inflation is nearly free (avg 0.2 % for
1-7 B spans, nothing above 5 %); with CFORM the average is 1.5 % with two
outliers — gobmk 16.1 % and perlbench 7.2 %.  The caption quotes 2.0 % as
the overall figure average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.suite import SuiteResult, sweep
from repro.experiments.context import RunContext
from repro.experiments.registry import experiment, section
from repro.experiments.results import SectionResult
from repro.softstack.insertion import Policy
from repro.workloads.generator import Scenario
from repro.workloads.specs import FIG11_BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore

PAPER = {
    "intelligent 1-7B": 0.2,
    "intelligent 1-7B +CFORM": 1.5,
    "gobmk +CFORM": 16.1,
    "perlbench +CFORM": 7.2,
}

SPAN_RANGES = ((1, 3), (1, 5), (1, 7))


@dataclass(frozen=True)
class Fig12Result:
    configurations: dict[str, SuiteResult]

    def averages(self) -> dict[str, float]:
        return {k: v.average for k, v in self.configurations.items()}


def _configurations() -> dict[str, Scenario]:
    configs: dict[str, Scenario] = {}
    for with_cform in (False, True):
        for low, high in SPAN_RANGES:
            suffix = " +CFORM" if with_cform else ""
            configs[f"intelligent {low}-{high}B{suffix}"] = Scenario(
                policy=Policy.INTELLIGENT,
                min_bytes=low,
                max_bytes=high,
                with_cform=with_cform,
            )
    return configs


def run(
    instructions: int = 100_000,
    benchmarks: list[str] | None = None,
    binary_seeds: tuple[int, ...] = (0,),
    store: "CorpusStore | None" = None,
) -> Fig12Result:
    """The six configurations share one baseline run per benchmark:
    live, the sweeps share one ``runs`` memo; with a ``store`` every cell
    resolves through the recorded-trace corpus, where the baselines are
    Figure 11's objects, so only the variants are new."""
    benchmarks = benchmarks or FIG11_BENCHMARKS
    runs: dict = {}
    return Fig12Result(
        configurations={
            label: sweep(
                benchmarks,
                scenario,
                instructions=instructions,
                binary_seeds=binary_seeds,
                label=label,
                store=store,
                runs=runs,
            )
            for label, scenario in _configurations().items()
        }
    )


def render(result: Fig12Result) -> str:
    lines = ["Figure 12: intelligent policy (± CFORM)", ""]
    lines.append(f"{'configuration':28s} measured   paper")
    for label, suite in result.configurations.items():
        paper = PAPER.get(label)
        paper_text = f"{paper:5.1f}%" if paper is not None else "    -"
        lines.append(f"{label:28s} {suite.average * 100:7.2f}%   {paper_text}")
    cform_suite = result.configurations["intelligent 1-7B +CFORM"]
    lines.append("")
    lines.append("with-CFORM outliers (paper: gobmk 16.1%, perlbench 7.2%):")
    for name in ("gobmk", "perlbench"):
        entry = cform_suite.benchmark(name)
        lines.append(f"  {name:11s} {entry.mean * 100:5.1f}%")
    return "\n".join(lines)


@experiment(
    name="fig12",
    title="Figure 12 — intelligent policy",
    tags=("figure", "trace"),
    needs=("instructions", "seeds", "corpus"),
    order=80,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    result = run(
        instructions=ctx.instructions, binary_seeds=ctx.seeds, store=ctx.store
    )
    data = {
        "paper": PAPER,
        "averages": result.averages(),
        "configurations": result.configurations,
    }
    return section("fig12", data, render(result))

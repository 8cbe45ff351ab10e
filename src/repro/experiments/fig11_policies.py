"""Figure 11: opportunistic and full insertion policies, ± CFORM.

Seven bar groups per benchmark in the paper:

* full policy with random 1-3 / 1-5 / 1-7 B spans, **without** CFORM
  (layout inflation only; avg 5.5 / 5.6 / 6.5 %),
* opportunistic **with** CFORM (pure CFORM work; avg 7.9 %; gobmk,
  h264ref and perlbench above 10 %),
* full with random spans **with** CFORM (avg up to 14.0-14.2 %).
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

#: Paper averages (percent) per configuration key.
PAPER = {
    "full 1-3B": 5.5,
    "full 1-5B": 5.6,
    "full 1-7B": 6.5,
    "opportunistic +CFORM": 7.9,
    "full 1-3B +CFORM": 13.5,
    "full 1-5B +CFORM": 13.7,
    "full 1-7B +CFORM": 14.0,
}

SPAN_RANGES = ((1, 3), (1, 5), (1, 7))


@dataclass(frozen=True)
class Fig11Result:
    configurations: dict[str, SuiteResult]

    def averages(self) -> dict[str, float]:
        return {k: v.average for k, v in self.configurations.items()}


def _configurations() -> dict[str, Scenario]:
    configs: dict[str, Scenario] = {}
    for low, high in SPAN_RANGES:
        configs[f"full {low}-{high}B"] = Scenario(
            policy=Policy.FULL, min_bytes=low, max_bytes=high
        )
    configs["opportunistic +CFORM"] = Scenario(
        policy=Policy.OPPORTUNISTIC, with_cform=True
    )
    for low, high in SPAN_RANGES:
        configs[f"full {low}-{high}B +CFORM"] = Scenario(
            policy=Policy.FULL, min_bytes=low, max_bytes=high, with_cform=True
        )
    return configs


def run(
    instructions: int = 100_000,
    benchmarks: list[str] | None = None,
    binary_seeds: tuple[int, ...] = (0,),
    store: "CorpusStore | None" = None,
    runs: dict | None = None,
) -> Fig11Result:
    """The seven configurations share one baseline run per benchmark:
    live, the sweeps share one ``runs`` memo (the run's, when given, so
    figures of one run share draws and baselines); with a ``store`` every cell
    resolves through the recorded-trace corpus, where the baseline is
    one recorded object."""
    benchmarks = benchmarks or FIG11_BENCHMARKS
    runs = {} if runs is None else runs
    return Fig11Result(
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


def render(result: Fig11Result) -> str:
    lines = ["Figure 11: opportunistic and full policies (± CFORM)", ""]
    lines.append(f"{'configuration':24s} measured   paper")
    for label, suite in result.configurations.items():
        paper = PAPER.get(label)
        paper_text = f"{paper:5.1f}%" if paper is not None else "    -"
        lines.append(f"{label:24s} {suite.average * 100:7.2f}%   {paper_text}")
    outliers = result.configurations["opportunistic +CFORM"]
    lines.append("")
    lines.append("opportunistic+CFORM outliers (paper: gobmk, h264ref, perlbench >10%):")
    for entry in sorted(outliers.per_benchmark, key=lambda e: -e.mean)[:3]:
        lines.append(f"  {entry.benchmark:11s} {entry.mean * 100:5.1f}%")
    return "\n".join(lines)


@experiment(
    name="fig11",
    title="Figure 11 — opportunistic & full policies",
    tags=("figure", "trace"),
    needs=("instructions", "seeds", "corpus"),
    order=70,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    result = run(
        instructions=ctx.instructions,
        binary_seeds=ctx.seeds,
        store=ctx.store,
        runs=ctx.runs,
    )
    data = {
        "paper": PAPER,
        "averages": result.averages(),
        "configurations": result.configurations,
    }
    return section("fig11", data, render(result))

"""Suite-level timing sweeps: the machinery behind Figures 4, 10, 11, 12.

Wraps :func:`repro.workloads.generator.slowdown` with the paper's
aggregation methodology:

* multiple *binaries* per configuration (different layout-randomisation
  seeds — the error bars of Figures 11/12),
* arithmetic-mean speedup aggregation over the benchmark list
  (Section 8.2, footnote 5),
* per-figure benchmark sets (19 for Figure 10, 16 for Figures 11/12).

Every configuration of a figure is priced against the same unprotected
run of each benchmark (Section 8.2), and both ways of resolving a cell
compute that run once:

* **Live** (no store): the cell's two ``RunResult`` objects go into a
  ``runs`` memo (a plain dict, see :func:`sweep`).  A run passes one
  memo to all of its sweeps, so each baseline is simulated once per
  run, not once per configuration.
* **Corpus** (a :class:`repro.corpus.CorpusStore`): every (benchmark,
  scenario, seed) cell resolves through the content-addressed trace
  corpus — recorded on first use; thereafter a hit reads the verified
  footer of the stored object — so the shared baseline is one object
  and repeated figure runs share one persisted corpus.

Either way the ``runs`` memo also holds each benchmark's drawn
:class:`~repro.workloads.generator.Script`, so every live run and every
corpus build of one benchmark renders the one draw.

The footer holds the live run's counts bit-identically, and both paths
price a cell with :func:`repro.workloads.generator.relative_slowdown`,
so the numbers are identical either way; only where the counts come
from changes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.workloads.generator import Scenario, slowdown
from repro.workloads.specs import SPEC_PROFILES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore


@dataclass(frozen=True)
class BenchmarkSlowdown:
    """Slowdown of one benchmark under one configuration."""

    benchmark: str
    mean: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, benchmark: str, samples: list[float]) -> "BenchmarkSlowdown":
        return cls(benchmark, statistics.mean(samples), min(samples), max(samples))


@dataclass(frozen=True)
class SuiteResult:
    """All per-benchmark slowdowns for one configuration."""

    label: str
    per_benchmark: tuple[BenchmarkSlowdown, ...]

    @property
    def average(self) -> float:
        """Arithmetic mean across benchmarks (the paper's AVG bars)."""
        return statistics.mean(entry.mean for entry in self.per_benchmark)

    def benchmark(self, name: str) -> BenchmarkSlowdown:
        for entry in self.per_benchmark:
            if entry.benchmark == name:
                return entry
        raise KeyError(name)


def sweep(
    benchmarks: list[str],
    scenario: Scenario,
    instructions: int = 100_000,
    binary_seeds: tuple[int, ...] = (0,),
    baseline_config: HierarchyConfig = WESTMERE,
    variant_config: HierarchyConfig | None = None,
    label: str | None = None,
    store: "CorpusStore | None" = None,
    runs: dict | None = None,
) -> SuiteResult:
    """Run one configuration over a benchmark list.

    ``binary_seeds`` generates differently-randomised layouts of the same
    program (the paper compiles three binaries per random-span setup).
    ``store`` (a :class:`repro.corpus.CorpusStore`, or ``None`` for live
    synthesis) resolves each cell through the recorded-trace corpus; the
    experiment layer resolves the default store in exactly one place —
    :attr:`repro.experiments.context.RunContext.store` — so this function
    never guesses a corpus root itself.

    ``runs`` is the run's memo, handed to every cell's
    :func:`repro.workloads.generator.slowdown` (or the store's): pass
    the same dict to each sweep of a run so the sweeps share one draw
    per benchmark and, live, one baseline run.  Without one, the sweep
    makes its own.
    """
    compute = partial(
        slowdown if store is None else store.slowdown,
        runs={} if runs is None else runs,
    )
    entries = []
    for name in benchmarks:
        profile = SPEC_PROFILES[name]
        samples = [
            compute(
                profile,
                replace(scenario, binary_seed=seed),
                instructions=instructions,
                baseline_config=baseline_config,
                variant_config=variant_config,
            )
            for seed in binary_seeds
        ]
        entries.append(BenchmarkSlowdown.from_samples(name, samples))
    return SuiteResult(
        label=label or scenario.describe(), per_benchmark=tuple(entries)
    )


def render_suite(result: SuiteResult, percent: bool = True) -> str:
    """One line per benchmark plus the AVG row, like the paper's charts."""
    scale = 100.0 if percent else 1.0
    unit = "%" if percent else "x"
    lines = [f"== {result.label} =="]
    for entry in result.per_benchmark:
        lines.append(
            f"  {entry.benchmark:11s} {entry.mean * scale:7.2f}{unit}"
            f"  [{entry.minimum * scale:.2f}, {entry.maximum * scale:.2f}]"
        )
    lines.append(f"  {'AVG':11s} {result.average * scale:7.2f}{unit}")
    return "\n".join(lines)

"""Loadgen cross-check: composed multi-tenant traffic vs solo tenants.

For a benchmark-set selection (``repro run --set ...``; default
``synthetic``) the section composes each load scenario into one
interleaved trace through the corpus store, then records a *solo
baseline* per workload profile the mix apportions — the same per-tenant
arrival rate, one tenant, no co-runners — and compares shared-ladder
miss behaviour: the composed trace's L3 miss rate against the
tenant-weighted average of the solo rates.  The delta is the cache
contention the open-loop composition creates, the single-socket
analogue of the paper's SPEC-co-runner interference arguments.

Every trace resolves through the content-addressed corpus
(:meth:`~repro.corpus.store.CorpusStore.ensure`): the first runner
invocation records and uses the recording's own counts; on a later
invocation each trace is a corpus hit, whose counts are read from the
verified footer — the ``source`` column makes that visible per row.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from repro.corpus.store import CorpusStore
from repro.experiments.context import PROFILES, RunContext
from repro.experiments.registry import experiment, section
from repro.experiments.results import SectionResult
from repro.loadgen.compose import apportion_tenants, compose_spec
from repro.loadgen.schema import LoadScenario, MixEntry
from repro.loadgen.sets import load_scenarios, resolve

#: Set tokens used when the context carries no ``--set`` selection.
DEFAULT_SETS = ("synthetic",)


def _miss_rate(result) -> float:
    """L3 misses per cache touch (touches == L1 accesses)."""
    if result.events.l1_accesses == 0:
        return 0.0
    return result.events.l3_misses / result.events.l1_accesses


def _solo_scenario(load: LoadScenario, profile_name: str) -> LoadScenario:
    """One tenant of ``profile_name`` at the composition's per-tenant rate."""
    return replace(
        load,
        name=f"{load.name}--solo-{profile_name}",
        description=f"solo baseline of {load.name}: one {profile_name} "
        "tenant, no co-runners",
        arrival=replace(
            load.arrival,
            lambda_per_s=load.arrival.lambda_per_s / load.tenants,
        ),
        mix=(MixEntry(profile=profile_name, weight=1.0),),
        tenants=1,
    )


def run(
    sets: tuple[str, ...] = DEFAULT_SETS,
    duration_scale: float = 1.0,
    store: CorpusStore | None = None,
) -> list[dict]:
    """Compose, baseline and compare every scenario of the selection.

    Without a ``store`` an ephemeral one is used (standalone
    invocation); the runner passes its persistent default store, so a
    second runner invocation performs zero re-recording.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as workdir:
            return run(sets, duration_scale, CorpusStore(workdir))
    rows: list[dict] = []
    for scenario in resolve(sets, load_scenarios()):
        load = scenario.scaled(duration_scale)
        composed = store.ensure(compose_spec(load))
        tenants = apportion_tenants(load)
        solo_rates: dict[str, float] = {}
        for profile_name in dict.fromkeys(tenants):  # distinct, mix order
            solo = store.run_result(
                compose_spec(_solo_scenario(load, profile_name))
            )
            solo_rates[profile_name] = _miss_rate(solo)
        weighted_solo = sum(
            solo_rates[name] for name in tenants
        ) / len(tenants)
        composed_rate = _miss_rate(composed.result)
        rows.append(
            {
                "scenario": scenario.name,
                "tenants": load.tenants,
                "records": composed.entry.records,
                "source": "recorded" if composed.built else "corpus hit",
                "composed_l3_rate": composed_rate,
                "solo_l3_rate": weighted_solo,
                "contention_pp": (composed_rate - weighted_solo) * 100.0,
                "solo_rates": solo_rates,
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        "scenario              tenants  records  composed L3  solo L3 "
        " contention  source",
        "--------------------- ------- -------- ------------ --------"
        " ----------- ----------",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:21s} {row['tenants']:7d} "
            f"{row['records']:8d} {row['composed_l3_rate'] * 100.0:10.2f}% "
            f"{row['solo_l3_rate'] * 100.0:7.2f}% "
            f"{row['contention_pp']:+9.2f}pp  {row['source']}"
        )
    lines.append("")
    lines.append(
        "composed/solo L3: shared-ladder L3 misses per cache touch for "
        "the interleaved multi-tenant trace vs the tenant-weighted "
        "average of per-profile solo runs at the same per-tenant rate;"
    )
    lines.append(
        "contention is the difference in percentage points — the cache "
        "interference the open-loop composition creates."
    )
    return "\n".join(lines)


@experiment(
    name="loadgen_contention",
    title="Load generator — multi-tenant contention vs solo tenants",
    tags=("trace", "loadgen"),
    needs=("instructions", "corpus"),
    order=140,
)
def run_experiment(ctx: RunContext) -> SectionResult:
    # Scale the open-loop timeline with the profile's instruction knob
    # so quick runs compose proportionally shorter traffic.
    duration_scale = ctx.instructions / PROFILES["full"][0]
    sets = ctx.load_sets or DEFAULT_SETS
    rows = run(sets, duration_scale=duration_scale, store=ctx.store)
    data = {
        "sets": list(sets),
        "duration_scale": duration_scale,
        "rows": rows,
    }
    return section("loadgen_contention", data, render(rows))

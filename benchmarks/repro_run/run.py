"""Benchmark of ``python -m repro run``: warm, cold and live figure sweeps.

    python3 benchmarks/repro_run/run.py --workload warm_fig10 --seed 0 \\
        --seconds 20 --trace 0

Runs from the root of a source checkout (``src/`` and
``results/reference/`` beside this directory; there is nothing to
build).  Each invocation runs one workload in this one process as a
closed loop with one client: set-up, then section runs back to back
through the runner's public entry points (``RunContext.create`` ->
``registry.select`` -> ``runner.execute_report``, plus the report and
results writers ``repro run`` calls) at the ``quick`` profile with
one job, until ``--seconds`` have passed.  Every run is gated for
correctness.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are scaled to a reference host speed that :mod:`hostspeed`
samples during every timed region, so a shared host's slow and fast
minutes do not move them.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced runs with runs traced through the
wrappers of :mod:`layers` and reports the per-layer metrics; the spans
are written to ``benchmarks/repro_run/out/``.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import time

# Set-up is timed from here, so it includes importing the program.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from hostspeed import Region, SpeedSampler  # noqa: E402
from layers import (  # noqa: E402
    Tracer,
    install_repro_wrappers,
    layer_metrics,
    median_metrics,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(ROOT, "results", "reference")
#: Scratch space inside the checkout: per-invocation corpus and results
#: directories (removed on exit) and the span files of traced runs.
OUT_DIR = os.path.join(HERE, "out")

#: Switches that would silently change what gets measured: a leaked
#: telemetry sink or fault plan, or a corpus/scenario location that
#: points the run at state outside its own temporary directories.
ISOLATED_ENV = (
    "REPRO_TELEMETRY",
    "REPRO_FAULTS",
    "REPRO_CORPUS_DIR",
    "REPRO_SCENARIO_DIR",
)

#: Set-up passes of an untraced invocation; ``setup_s`` reports their
#: median.  A traced invocation reports no set-up time and sets up once.
SETUP_REPEATS = 2

#: End-to-end metric units (``--trace 0``).
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "fraction",
}

#: Per-layer metric units (``--trace 1``); names are ``<repro module>.<metric>``.
PER_LAYER_UNITS = {
    "corpus.ensure_calls": "count",
    "corpus.hit_ratio": "fraction",
    "corpus.builds": "count",
    "corpus.heals": "count",
    "corpus.digest_calls": "count",
    "corpus.digest_s": "s",
    "corpus.digest_mb_per_s": "MB/s",
    "corpus.manifest_calls": "count",
    "corpus.manifest_s": "s",
    "traces.decode_s": "s",
    "traces.decode_records_per_s": "records/s",
    "traces.replay_calls": "count",
    "traces.replay_self_s": "s",
    "memory.kernel_calls": "count",
    "memory.kernel_s": "s",
    "memory.kernel_accesses_per_s": "accesses/s",
    "traces.record_calls": "count",
    "traces.record_self_s": "s",
    "traces.record_records_per_s": "records/s",
    "workloads.run_trace_calls": "count",
    "workloads.run_trace_s": "s",
    "workloads.sim_minstr_per_s": "Minstr/s",
    "analysis.cells": "count",
    "analysis.paper_gap_pp": "pp",
    "experiments.section_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One corpus state and the section that runs against it.

    ``built``/``hits`` are the store counters every timed run must end
    with; ``None`` means the run has no store at all.
    """

    name: str
    section: str
    corpus: str  # "populated", "empty" or "absent"
    built: int | None
    hits: int | None


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Read path: verified corpus hits, decode and kernel replay.
        Workload("warm_fig10", "fig10", "populated", built=0, hits=38),
        # Write path beside the reads: record, encode, hash, manifest.
        Workload("cold_fig10", "fig10", "empty", built=19, hits=19),
        # Live synthesis plus tag-cache simulation; no corpus at all.
        Workload("live_fig12", "fig12", "absent", built=None, hits=None),
    )
}

#: Store counters of the set-up pass that populates the warm corpus.
POPULATE = WORKLOADS["cold_fig10"]


def paper_gap_pp(section: str, data: dict) -> float:
    """Mean absolute gap, in percentage points, to the section's ``PAPER``.

    Measured values are fractions, paper values percent.  Figure 10
    compares its average; Figure 12 its ``intelligent 1-7B`` averages
    with and without CFORM and the per-benchmark ``+CFORM`` entries,
    which the paper quotes for the 1-7B span configuration.
    """
    paper = data["paper"]
    if section == "fig10":
        return abs(data["average"] * 100 - paper["average"])
    cform = data["configurations"]["intelligent 1-7B +CFORM"]["per_benchmark"]
    per_benchmark = {entry["benchmark"]: entry["mean"] for entry in cform}
    gaps = []
    for key, expected in paper.items():
        if key in data["averages"]:
            measured = data["averages"][key]
        else:
            measured = per_benchmark[key.removesuffix(" +CFORM")]
        gaps.append(abs(measured * 100 - expected))
    return statistics.mean(gaps)


class Gate:
    """Correctness of every section run of one invocation.

    A run passes when its section produced a result, every run's data
    equals the first run's (the warm workload's first run is its set-up
    pass), at seed 0 the data equals ``results/reference/`` at zero
    tolerance with the reference's own ``ignore_keys``, and the store
    counters hold the workload's invariants.
    """

    def __init__(self, seed: int):
        from repro.experiments.check import Tolerances

        self.seed = seed
        self.tolerances = Tolerances.load(REFERENCE_DIR)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(
        self, label: str, outcome, store, expect: Workload, ensure_calls=None
    ) -> None:
        from repro.experiments.check import check_outcomes, diff_data
        from repro.experiments.results import SectionFailure

        problems = []
        if isinstance(outcome, SectionFailure):
            problems.append(f"section failed: {outcome.error}")
        else:
            if self.seed == 0:
                report = check_outcomes(
                    [outcome], REFERENCE_DIR, self.tolerances
                )
                problems.extend(drift.describe() for drift in report.drifts)
            if self.first is None:
                self.first = outcome
            else:
                problems.extend(
                    drift.describe()
                    for drift in diff_data(
                        self.first.data, outcome.data, self.tolerances,
                        outcome.name,
                    )
                )
        if expect.built is None:
            if store is not None:
                problems.append("a corpus store was opened")
            if ensure_calls:
                problems.append(f"{ensure_calls} corpus ensure call(s)")
        elif (store.built, store.hits) != (expect.built, expect.hits):
            problems.append(
                f"store built {store.built}, hits {store.hits}; expected "
                f"built {expect.built}, hits {expect.hits}"
            )
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


class WorkloadRunner:
    """Runs one workload's sections inside a private scratch directory."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.corpus: str | None = None

    def context(self, corpus: str | None):
        from repro.experiments.context import RunContext

        return RunContext.create(
            "quick",
            corpus=corpus,
            no_corpus=corpus is None,
            jobs=1,
            seeds=(self.seed,),
        )

    def run_section(self, ctx) -> tuple[object, Region]:
        """One ``repro run`` of the section; returns (outcome, region)."""
        from repro.experiments.registry import select
        from repro.experiments.runner import (
            execute_report,
            write_report,
            write_results,
        )

        results_dir = tempfile.mkdtemp(prefix="results-", dir=self.work_dir)
        with SpeedSampler() as sampler:
            report = execute_report(select([self.workload.section]), ctx)
            write_report(
                report.outcomes, os.path.join(results_dir, "EXPERIMENTS.md")
            )
            write_results(
                report.outcomes, results_dir, profile=ctx.profile,
                incidents=report.incidents,
            )
        shutil.rmtree(results_dir)
        return report.outcomes[0], sampler.region

    def set_up(self, gate: Gate) -> float:
        """One set-up pass; returns its seconds at the reference speed.

        The warm workload populates a fresh verifying corpus by running
        the section once, as a user's first ``repro run`` does; the
        other workloads only build their run context.
        """
        if self.workload.corpus == "populated":
            self.corpus = tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir)
        with SpeedSampler() as sampler:
            ctx = self.context(self.corpus)
        seconds = sampler.region.ref_wall_s
        if self.workload.corpus == "populated":
            outcome, region = self.run_section(ctx)
            seconds += region.ref_wall_s
            gate.judge("set-up", outcome, ctx.store, POPULATE)
        return seconds

    def timed_run(self, gate: Gate, label: str, tracer: Tracer | None = None):
        """One timed run on the workload's corpus state.

        With a ``tracer`` the layer wrappers are installed for this run
        only and restored before it returns.  Returns the run's timed
        region and its per-layer metrics (None untraced).
        """
        corpus = None
        if self.workload.corpus == "populated":
            corpus = self.corpus
        elif self.workload.corpus == "empty":
            corpus = tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir)
        ctx = self.context(corpus)
        gc.collect()
        if tracer is None:
            outcome, region = self.run_section(ctx)
            metrics = None
        else:
            install_repro_wrappers(tracer)
            try:
                outcome, region = self.run_section(ctx)
            finally:
                tracer.restore()
            metrics = layer_metrics(
                tracer, ctx.store.healed if ctx.store else 0
            )
        gate.judge(
            label, outcome, ctx.store, self.workload,
            ensure_calls=metrics["corpus.ensure_calls"] if metrics else None,
        )
        if self.workload.corpus == "empty":
            shutil.rmtree(corpus)
        print(
            f"{label}: wall {region.wall_s:.3f} s, cpu {region.cpu_s:.3f} s; "
            f"host speed {region.speed:.3f} of the reference; at reference "
            f"speed wall {region.ref_wall_s:.3f} s, cpu {region.ref_cpu_s:.3f} s",
            file=sys.stderr,
        )
        return region, metrics


def _import_program() -> None:
    """Import the program and load its experiment registry."""
    sys.path.insert(0, SRC)
    from repro.experiments.registry import select

    select()


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one invocation of the benchmark; returns the result object."""
    for key in ISOLATED_ENV:
        os.environ.pop(key, None)
    # The interpreter's start-up and the benchmark's own imports are too
    # short to sample; they are scaled by the speed of the program's.
    before_s = time.perf_counter() - _STARTED
    with SpeedSampler() as sampler:
        _import_program()
    imports = sampler.region
    import_s = before_s * imports.speed + imports.ref_wall_s
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tempfile.tempdir = work_dir
    try:
        gate = Gate(seed)
        runner = WorkloadRunner(workload, seed, work_dir)
        setups = [
            runner.set_up(gate) for _ in range(1 if trace else SETUP_REPEATS)
        ]
        if trace:
            metrics = _traced_loop(runner, gate, seconds)
        else:
            metrics = _untraced_loop(runner, gate, seconds)
            metrics["setup_s"] = import_s + statistics.median(setups)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics["analysis.paper_gap_pp"] = (
            paper_gap_pp(workload.section, gate.first.data)
            if gate.first is not None
            else 0.0
        )
    else:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        metrics["pass_fraction"] = (gate.attempted - gate.failed) / gate.attempted
    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _untraced_loop(runner: WorkloadRunner, gate: Gate, seconds: float) -> dict:
    walls, cpus = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        region, _ = runner.timed_run(gate, f"run {len(walls) + 1}")
        walls.append(region.ref_wall_s)
        cpus.append(region.ref_cpu_s)
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}


def _traced_loop(runner: WorkloadRunner, gate: Gate, seconds: float) -> dict:
    """Alternate untraced and traced runs; per-layer medians + overhead."""
    untraced, traced, runs, spans = [], [], [], []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        region, _ = runner.timed_run(gate, f"untraced run {len(runs) + 1}")
        untraced.append(region.ref_wall_s)
        tracer = Tracer()
        region, metrics = runner.timed_run(
            gate, f"traced run {len(runs) + 1}", tracer
        )
        traced.append(region.ref_wall_s)
        runs.append(metrics)
        spans.append([vars(span) for span in tracer.spans])
    metrics = median_metrics(runs)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(
        untraced
    )
    path = os.path.join(
        OUT_DIR, f"spans-{runner.workload.name}-seed{runner.seed}.json"
    )
    with open(path, "w") as handle:
        json.dump({"workload": runner.workload.name, "runs": spans}, handle)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seed < 0 or arguments.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for required in (os.path.join(SRC, "repro"), REFERENCE_DIR):
        if not os.path.isdir(required):
            print(f"error: {required} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    result = measure(
        WORKLOADS[arguments.workload], arguments.seed, arguments.seconds,
        bool(arguments.trace),
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

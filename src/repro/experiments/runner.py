"""Generic experiment executor: selection → parallel map → assemble.

The runner knows nothing about individual figures or tables any more —
it resolves a selection against :mod:`repro.experiments.registry`, fans
the chosen experiments out over worker processes, and assembles the two
output artifacts:

* ``EXPERIMENTS.md`` — the rendered paper-vs-measured report, and
* ``results/<name>.json`` — one structured, machine-readable
  :class:`~repro.experiments.results.SectionResult` document per
  section (the regression-gateable trajectory).

The entry point is ``python -m repro run`` (see :mod:`repro.cli`).

Trace-consuming sections (Figures 4/10/11, the trace cross-checks and
the multi-core study) resolve their workloads through the
content-addressed corpus store carried by the
:class:`~repro.experiments.context.RunContext`: the first invocation
records, every later invocation replays pure corpus hits.
"""

from __future__ import annotations

import json
import os
import time
import traceback as traceback_module

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.corpus.manifest import ManifestLockTimeout
from repro.experiments.context import RunContext
from repro.experiments.registry import Experiment
from repro.experiments.results import (
    SectionFailure,
    SectionOutcome,
    SectionResult,
)
from repro.reliability.faults import trip_section_fault
from repro.telemetry.profiler import profiled_section
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import flush as telemetry_flush
from repro.telemetry.runtime import span as telemetry_span

#: Schema tag of ``results/index.json`` (see docs/API.md).
INDEX_SCHEMA = "repro-run-index/v1"

#: Default directory for the per-section JSON results.
DEFAULT_RESULTS_DIR = "results"

#: Total tries per section: one run plus one bounded retry, granted
#: only to infrastructure-class failures (a worker crash, a lock
#: timeout, an I/O error).  A section whose own code raises is
#: deterministic — retrying it would just fail again.
MAX_ATTEMPTS = 2

#: Failure classes that earn the retry.  ``BrokenProcessPool`` is the
#: killed/OOMed worker; ``ManifestLockTimeout`` and ``OSError`` are the
#: environment misbehaving underneath a correct section.
INFRASTRUCTURE_ERRORS = (OSError, ManifestLockTimeout, BrokenProcessPool)


def _timed_run(name: str, run, ctx: RunContext) -> tuple[SectionResult, float]:
    """Run one section under its telemetry span; returns (result, seconds).

    The wall-clock measurement always happens (it feeds the index's
    ``timing`` stanza when telemetry is on); the span, the optional
    cProfile capture and the flush are no-ops without an active sink.
    The flush matters in pool workers, which exit without ``atexit``.
    """
    started = time.perf_counter()
    with telemetry_span(f"section/{name}", profile=ctx.profile):
        with profiled_section(name, enabled=ctx.profile_sections):
            result = run()
    seconds = time.perf_counter() - started
    telemetry_flush()
    return result, seconds


def _run_by_name(task: tuple[str, RunContext]) -> tuple[SectionResult, float]:
    """Process-pool entry point: run one registered experiment by name."""
    name, ctx = task
    from repro.experiments.registry import get

    trip_section_fault(name, ctx.faults)
    return _timed_run(name, lambda: get(name).run(ctx), ctx)


@dataclass
class RunReport:
    """Everything one :func:`execute_report` invocation observed.

    ``outcomes`` holds one entry per selected experiment in report
    order — a :class:`SectionResult` or, for sections that exhausted
    their attempts, a :class:`SectionFailure`.  ``incidents`` is the
    attempt ledger: every failed attempt, including the ones a retry
    later recovered (so a run that *looks* clean but needed a retry is
    still diagnosable from ``results/index.json``).
    """

    outcomes: list[SectionOutcome] = field(default_factory=list)
    incidents: list[dict] = field(default_factory=list)
    #: Per-section wall-clock seconds of the successful attempt (absent
    #: for sections that never completed).  Observability only — the
    #: deterministic artifacts never include these numbers.
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> list[SectionFailure]:
        return [o for o in self.outcomes if isinstance(o, SectionFailure)]

    @property
    def ok(self) -> bool:
        return not self.failures


def _classify(error: BaseException) -> tuple[str, bool]:
    """(failure kind, earns-a-retry) for one caught section error."""
    if isinstance(error, BrokenProcessPool):
        return "worker-crash", True
    if isinstance(error, INFRASTRUCTURE_ERRORS):
        return "infrastructure", True
    return "exception", False


def _format_error(error: BaseException) -> tuple[str, str]:
    """(one-line message, full traceback) for a section failure record."""
    message = f"{type(error).__name__}: {error}"
    trace = "".join(
        traceback_module.format_exception(
            type(error), error, error.__traceback__
        )
    )
    return message, trace


def _attempt_round(
    pending: list[Experiment], ctx: RunContext
) -> tuple[dict[str, SectionResult], dict[str, BaseException]]:
    """Try every pending section once; returns (results, errors) by name,
    where each result is a ``(SectionResult, wall seconds)`` pair.

    With ``jobs > 1`` the sections fan out over a fresh process pool —
    fresh so that a pool broken by a crashed worker in an earlier round
    cannot poison this one.  A broken pool surfaces as a
    ``BrokenProcessPool`` on every section that did not complete; the
    caller's retry loop re-runs those, so one killed worker costs one
    bounded re-execution, not the run.
    """
    results: dict[str, tuple[SectionResult, float]] = {}
    errors: dict[str, BaseException] = {}
    if ctx.jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=ctx.jobs) as pool:
            futures = {
                experiment.name: pool.submit(
                    _run_by_name, (experiment.name, ctx)
                )
                for experiment in pending
            }
            for name, future in futures.items():
                try:
                    results[name] = future.result()
                except Exception as error:
                    errors[name] = error
        return results, errors
    for experiment in pending:
        try:
            trip_section_fault(experiment.name, ctx.faults)
            results[experiment.name] = _timed_run(
                experiment.name, lambda: experiment.run(ctx), ctx
            )
        except Exception as error:
            errors[experiment.name] = error
    return results, errors


def execute_report(
    experiments: list[Experiment], ctx: RunContext
) -> RunReport:
    """Run the selected experiments with per-section fault isolation.

    A section that raises — or whose worker process dies — becomes a
    structured :class:`SectionFailure` instead of aborting the run;
    infrastructure-class failures get one bounded retry first.  Report
    order is preserved regardless of which sections failed or retried.
    """
    by_name = {experiment.name: experiment for experiment in experiments}
    attempts = {name: 0 for name in by_name}
    outcomes: dict[str, SectionOutcome] = {}
    incidents: list[dict] = []
    timing: dict[str, float] = {}
    tel = telemetry_active()
    pending = list(experiments)
    while pending:
        results, errors = _attempt_round(pending, ctx)
        retry: list[Experiment] = []
        for experiment in pending:
            name = experiment.name
            attempts[name] += 1
            if name in results:
                outcomes[name], timing[name] = results[name]
                continue
            error = errors[name]
            kind, retryable = _classify(error)
            message, trace = _format_error(error)
            will_retry = retryable and attempts[name] < MAX_ATTEMPTS
            incidents.append(
                {
                    "section": name,
                    "kind": kind,
                    "error": message,
                    "attempt": attempts[name],
                    "retried": will_retry,
                }
            )
            if tel is not None:
                tel.inc("runner_section_failures_total", kind=kind)
                if will_retry:
                    tel.inc("runner_retries_total")
            if will_retry:
                retry.append(experiment)
                continue
            outcomes[name] = SectionFailure(
                name=name,
                title=experiment.title,
                error=message,
                kind=kind,
                attempts=attempts[name],
                traceback=trace,
                tags=tuple(sorted(experiment.tags)),
            )
        pending = retry
    if tel is not None:
        tel.inc("runner_sections_total", len(experiments))
        tel.flush()
    return RunReport(
        outcomes=[outcomes[experiment.name] for experiment in experiments],
        incidents=incidents,
        timing=timing,
    )


def execute(
    experiments: list[Experiment], ctx: RunContext
) -> list[SectionOutcome]:
    """Run the selected experiments, preserving report order.

    ``ctx.jobs > 1`` fans the independent experiments out over worker
    processes.  The corpus store's manifest updates are lock-serialised,
    so parallel sections building overlapping corpora are safe.  Failed
    sections come back as :class:`SectionFailure` values (see
    :func:`execute_report` for the incident ledger).
    """
    return execute_report(experiments, ctx).outcomes


_PREAMBLE = """# EXPERIMENTS — paper vs. measured

Regenerated by ``python -m repro run``.  Absolute numbers
come from a functional Python simulator with an analytical timing model
(see DESIGN.md substitutions); the reproduction target is the *shape* of
each result — orderings, rough factors and crossovers.  Known divergences
are listed at the end.

"""

_DIVERGENCES = """
## Known divergences from the paper

* **Figure 10** averages ~1.6 % here vs 0.83 % in the paper: the
  analytical in-order stall model pays relatively more L2/L3 cycles than
  the validated OoO ZSim core.  Ordering (compute-bound lowest,
  cache-resident-but-L2-missing highest) is preserved.
* **Figure 4** starts at 4.77 % at 1 B vs the paper's 3.0 %: in our
  layout engine one inserted byte frequently costs a full alignment slot
  (up to 8 B) for the following field, so small paddings are relatively
  more expensive.  The paper's curve grows monotonically; ours dips from
  3 to 4 B (5.28 → 5.25 %) and from 6 to 7 B (6.724 → 6.716 %) at the
  quick profile, and only from 6 to 7 B at the full profile.  It ends at
  6.7 % vs the paper's 7.6 %.
* **Figure 11** opportunistic+CFORM averages 4.88 % vs 7.9 %.  Of the
  paper's outliers (gobmk, perlbench, h264ref), gobmk and perlbench are
  our top two; h264ref is our fourth, behind povray.
* **Table 2/7** delay/area/power are structural estimates calibrated to
  the paper's baseline row only; they land within a few percent of the
  paper's overhead percentages, and all orderings (spill ≫ fill, 4B
  slowest variant, 8B largest metadata) are structural, not fitted.
"""


def write_report(results: list[SectionResult], path: str) -> None:
    """Write the rendered EXPERIMENTS.md for a list of section results."""
    parts = [_PREAMBLE]
    for result in results:
        parts.append(f"## {result.title}\n\n```text\n{result.markdown}\n```\n")
    parts.append(_DIVERGENCES)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write("\n".join(parts))


def write_results(
    results: list[SectionOutcome],
    directory: str = DEFAULT_RESULTS_DIR,
    profile: str = "quick",
    incidents: list[dict] | None = None,
    corpus_events: list[dict] | None = None,
    check: dict | None = None,
    timing: dict[str, float] | None = None,
    telemetry: str | None = None,
) -> list[str]:
    """Persist one ``<name>.json`` per section plus an ``index.json``.

    The documents are deterministic (no timestamps), so two identical
    runs produce byte-identical files — the property the ``--check``
    regression gate (:mod:`repro.experiments.check`) relies on.  Failed
    sections write a failure document (``repro-section-failure/v1``);
    the index records every section's status plus the run's attempt
    ledger (``incidents``) and any corpus self-heal events
    (``corpus_events``), so one file answers "did this run see any
    fault?" — all three are empty lists on a clean run.  When the run
    was gated, ``check`` embeds the gate's verdict and every drifted
    metric under the index's ``"check"`` key.

    ``timing`` (per-section wall seconds) and ``telemetry`` (the sink
    directory) populate the index's observability stanza; both are
    ``null`` unless the run opted into telemetry, which keeps the
    default index byte-identical across runs — timing keys are also on
    the check gate's ignore list, so a gated telemetry run never fails
    on wall-clock drift.
    """
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for result in results:
        path = os.path.join(directory, f"{result.name}.json")
        with open(path, "w") as handle:
            handle.write(result.to_json())
            handle.write("\n")
        paths.append(path)
    index = {
        "schema": INDEX_SCHEMA,
        "profile": profile,
        "sections": [
            {
                "name": result.name,
                "title": result.title,
                "tags": list(result.tags),
                "status": (
                    "failed" if isinstance(result, SectionFailure) else "ok"
                ),
            }
            for result in results
        ],
        "failures": [
            {
                "name": result.name,
                "kind": result.kind,
                "error": result.error,
                "attempts": result.attempts,
            }
            for result in results
            if isinstance(result, SectionFailure)
        ],
        "incidents": list(incidents or ()),
        "corpus_events": list(corpus_events or ()),
        # Observability stanza: null unless the run opted into telemetry
        # (default runs must stay byte-identical across invocations).
        "timing": (
            {name: round(seconds, 6) for name, seconds in sorted(timing.items())}
            if timing
            else None
        ),
        "telemetry": telemetry,
    }
    if check is not None:
        index["check"] = check
    index_path = os.path.join(directory, "index.json")
    with open(index_path, "w") as handle:
        json.dump(index, handle, indent=2)
        handle.write("\n")
    paths.append(index_path)
    return paths

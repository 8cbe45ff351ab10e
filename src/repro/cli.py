"""One front door: ``python -m repro``.

Subcommands::

    run       run registered experiments (by name/tag/--set; default: all)
              and write EXPERIMENTS.md + results/*.json
    perf      the perf harness          (= python -m repro.perf ...)
    trace     the trace engine          (= python -m repro.traces ...)
    corpus    the corpus store          (= python -m repro.corpus ...)
    faults    fault injection           (= python -m repro.reliability ...)
    loadgen   the traffic engine        (= python -m repro.loadgen ...)
    telemetry run introspection         (= python -m repro.telemetry ...)
    serve     corpus/experiment service (= python -m repro.serve ...)

``run`` is implemented here against the experiment registry; the others
delegate verbatim to the existing module CLIs, so every flag those
tools document works unchanged.  Examples::

    python -m repro run                        # all sections, quick
    python -m repro run fig10 fig11            # two sections by name
    python -m repro run --tag trace            # everything trace-backed
    python -m repro run --full --jobs 4        # the paper-scale report
    python -m repro run --list                 # what exists
    python -m repro run --set synthetic        # a loadgen benchmark set
    python -m repro run --check                # gate vs results/reference/
    python -m repro run --update-reference     # reseed the committed refs
    python -m repro run --telemetry            # spans + metrics sidecar
    python -m repro run --profile-sections     # + per-section cProfile
    python -m repro telemetry summarize        # read the sidecar back
    python -m repro perf --quick
    python -m repro trace list
    python -m repro corpus ls
    python -m repro faults matrix              # the CI faults-smoke
    python -m repro loadgen list               # committed load scenarios
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.context import PROFILES, RunContext
from repro.experiments.registry import (
    UnknownExperimentError,
    all_experiments,
    select,
)
from repro.experiments.runner import (
    DEFAULT_RESULTS_DIR,
    execute_report,
    write_report,
    write_results,
)


def _cmd_list() -> int:
    experiments = all_experiments()
    width = max(len(experiment.name) for experiment in experiments)
    for experiment in experiments:
        tags = ",".join(sorted(experiment.tags))
        needs = ",".join(sorted(experiment.needs)) or "-"
        print(
            f"{experiment.name:{width}s}  {tags:18s} needs={needs:28s} "
            f"{experiment.title}"
        )
    return 0


def _cmd_run(arguments: argparse.Namespace) -> int:
    if arguments.list:
        return _cmd_list()
    if arguments.reference is None:
        from repro.experiments.check import DEFAULT_REFERENCE_DIR

        arguments.reference = DEFAULT_REFERENCE_DIR
    profile = "full" if arguments.full else arguments.profile
    sets = tuple(arguments.set or ())
    try:
        ctx = RunContext.create(
            profile=profile,
            corpus=arguments.corpus,
            no_corpus=arguments.no_corpus,
            jobs=arguments.jobs,
            faults=arguments.faults,
            sets=sets,
            profile_sections=arguments.profile_sections,
        )
    except ValueError as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    names = list(arguments.names)
    if sets and "loadgen_contention" not in names:
        # --set targets the loadgen section; compose with any explicit
        # name/tag selection rather than replacing it.
        names.append("loadgen_contention")
    experiments = select(names, arguments.tag or ())
    # A name/tag/--set selection defaults its artifacts to partial
    # locations (EXPERIMENTS.partial.md, results/partial/) so it never
    # clobbers the canonical all-sections report and results trajectory;
    # an explicit --output/--results-dir always wins.
    partial = bool(arguments.names or arguments.tag or sets)
    output = arguments.output or (
        "EXPERIMENTS.partial.md" if partial else "EXPERIMENTS.md"
    )
    results_dir = arguments.results_dir or (
        os.path.join(DEFAULT_RESULTS_DIR, "partial")
        if partial
        else DEFAULT_RESULTS_DIR
    )
    # Telemetry is opt-in (--telemetry / --profile-sections) and implied
    # by paper-scale runs (--full); --no-telemetry always wins.  Default
    # (quick) runs stay telemetry-free so their artifacts — including
    # index.json's null observability stanza — are byte-identical across
    # invocations.
    telemetry_enabled = (
        arguments.telemetry is not None
        or profile == "full"
        or arguments.profile_sections
    ) and not arguments.no_telemetry
    telemetry_dir = None
    if telemetry_enabled:
        from repro import telemetry as telemetry_module

        telemetry_dir = arguments.telemetry or os.path.join(
            results_dir, "telemetry"
        )
        telemetry_module.configure(telemetry_dir, fresh=True)
    started = time.time()
    # Snapshot the corpus heal ledger so this run reports exactly the
    # self-heal events it caused (workers append to the same file).
    heal_cursor = ctx.store.heal_log_size() if ctx.store else 0
    try:
        report = execute_report(experiments, ctx)
    finally:
        # Final flush + close + drop the env switch, even on a failed
        # run, so an in-process caller never inherits a stale sink.
        if telemetry_dir is not None:
            telemetry_module.shutdown()
    results = report.outcomes
    corpus_events = (
        ctx.store.heal_events(since=heal_cursor) if ctx.store else []
    )
    telemetry_paths = None
    if telemetry_dir is not None:
        from repro.telemetry.export import export_run

        telemetry_paths = export_run(telemetry_dir)
    check_report = None
    if arguments.check:
        from repro.experiments.check import check_outcomes

        check_report = check_outcomes(results, arguments.reference)
    write_report(results, output)
    if not arguments.no_results:
        paths = write_results(
            results,
            results_dir,
            profile=ctx.profile,
            incidents=report.incidents,
            corpus_events=corpus_events,
            check=check_report.to_index() if check_report else None,
            timing=report.timing if telemetry_dir is not None else None,
            telemetry=telemetry_dir,
        )
        print(f"results: {len(paths) - 1} section file(s) in {results_dir}/")
    if telemetry_paths is not None:
        print(
            f"telemetry: {', '.join(sorted(os.path.basename(p) for p in telemetry_paths.values()))} "
            f"in {telemetry_dir}/ "
            f"(inspect: python -m repro telemetry summarize {telemetry_dir})"
        )
    if arguments.update_reference:
        from repro.experiments.check import update_reference

        try:
            written = update_reference(results, arguments.reference)
        except ValueError as error:
            print(f"--update-reference: {error}", file=sys.stderr)
            return 1
        print(f"reference: {len(written)} file(s) in {arguments.reference}/")
    if ctx.corpus_root is not None:
        print(f"corpus: {ctx.corpus_root}")
    for event in corpus_events:
        print(
            f"corpus self-heal: {event.get('scenario')}: "
            f"{event.get('reason')}",
            file=sys.stderr,
        )
    print(
        f"wrote {output} ({len(results)} section(s)) "
        f"in {time.time() - started:.0f}s"
    )
    if check_report is not None:
        stream = sys.stdout if check_report.ok else sys.stderr
        for line in check_report.summary():
            print(line, file=stream)
    if report.failures:
        for failure in report.failures:
            print(
                f"FAILED {failure.name} ({failure.kind}, "
                f"{failure.attempts} attempt(s)): {failure.error}",
                file=sys.stderr,
            )
        print(
            f"{len(report.failures)} of {len(results)} section(s) failed "
            f"(see {results_dir + '/index.json' if not arguments.no_results else output})",
            file=sys.stderr,
        )
        return 1
    if check_report is not None and not check_report.ok:
        return 1
    return 0


#: Delegated subcommands: name -> import path of the module CLI's main.
#: Dispatched before argparse sees the argv tail, because
#: ``nargs=REMAINDER`` refuses tails that start with an option token
#: (``python -m repro perf --list``).
_DELEGATED = {
    "perf": "repro.perf.__main__",
    "trace": "repro.traces.__main__",
    "corpus": "repro.corpus.__main__",
    "faults": "repro.reliability.__main__",
    "loadgen": "repro.loadgen.__main__",
    "telemetry": "repro.telemetry.__main__",
    "serve": "repro.serve.__main__",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _DELEGATED:
        import importlib

        module = importlib.import_module(_DELEGATED[argv[0]])
        return module.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Califorms reproduction: experiments, perf harness, "
        "trace engine and corpus store behind one CLI.",
    )
    from repro import package_version

    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="run registered experiments and write EXPERIMENTS.md + "
        "results/*.json",
    )
    run.add_argument(
        "names", nargs="*", metavar="NAME",
        help="experiment names to run (default: all; see --list)",
    )
    run.add_argument(
        "--tag", action="append", metavar="TAG",
        help="also select every experiment carrying TAG (repeatable)",
    )
    run.add_argument(
        "--set", action="append", metavar="SET",
        help="run the loadgen_contention section over this benchmark "
        "set, scenario or counted alias (repeatable; see python -m "
        "repro loadgen sets)",
    )
    run.add_argument(
        "--profile", choices=sorted(PROFILES), default="quick",
        help="workload scale (default: quick)",
    )
    run.add_argument(
        "--full", action="store_true",
        help="shorthand for --profile full (long traces, 3 seeds)",
    )
    run.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the experiment sections (default: 1)",
    )
    run.add_argument(
        "--output", default=None,
        help="report path (default: EXPERIMENTS.md; name/tag selections "
        "default to EXPERIMENTS.partial.md)",
    )
    run.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help=f"per-section JSON output directory (default: "
        f"{DEFAULT_RESULTS_DIR}/; name/tag selections default to "
        f"{DEFAULT_RESULTS_DIR}/partial/)",
    )
    run.add_argument(
        "--no-results", action="store_true",
        help="skip writing the per-section JSON documents",
    )
    run.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus store root for the trace-consuming sections "
        "(default: $REPRO_CORPUS_DIR or ./.repro-corpus)",
    )
    run.add_argument(
        "--no-corpus", action="store_true",
        help="synthesise every workload live instead of using the corpus",
    )
    run.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="JSON fault plan to inject during the run (testing; see "
        "python -m repro faults plan)",
    )
    run.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="DIR",
        help="capture spans + metrics into DIR (default: "
        "<results dir>/telemetry); implied by --full and "
        "--profile-sections.  Deterministic artifacts are unaffected.",
    )
    run.add_argument(
        "--no-telemetry", action="store_true",
        help="disable telemetry even where it is implied (--full, "
        "--profile-sections)",
    )
    run.add_argument(
        "--profile-sections", action="store_true",
        help="cProfile each section into the telemetry sink "
        "(profiles/*.pstats + hotspot records; implies --telemetry)",
    )
    run.add_argument(
        "--check", action="store_true",
        help="gate this run's section data against the committed "
        "reference results; any metric drift exits non-zero and is "
        "summarised in results/index.json",
    )
    run.add_argument(
        "--reference", default=None, metavar="DIR",
        help="reference results directory for --check/--update-reference "
        "(default: results/reference/)",
    )
    run.add_argument(
        "--update-reference", action="store_true",
        help="write this run's section documents into the reference "
        "directory (refused if any section failed)",
    )
    run.add_argument(
        "--list", action="store_true",
        help="list registered experiments (name, tags, needs) and exit",
    )

    # Registered for `python -m repro -h` discoverability; actual
    # dispatch happened above, before argparse.
    for name, help_text in (
        ("perf", "perf harness (= python -m repro.perf ...)"),
        ("trace", "trace engine (= python -m repro.traces ...)"),
        ("corpus", "corpus store (= python -m repro.corpus ...)"),
        ("faults", "fault injection (= python -m repro.reliability ...)"),
        ("loadgen", "traffic engine (= python -m repro.loadgen ...)"),
        ("telemetry", "run introspection (= python -m repro.telemetry ...)"),
        ("serve", "corpus/experiment service (= python -m repro.serve ...)"),
    ):
        commands.add_parser(name, help=help_text, add_help=False)

    arguments = parser.parse_args(argv)
    if arguments.jobs < 1:
        parser.error("--jobs must be >= 1")
    if arguments.set:
        from repro.loadgen.sets import load_scenarios, resolve

        try:  # fail fast on unknown sets/scenarios, not mid-run
            resolve(arguments.set, load_scenarios())
        except (KeyError, ValueError, OSError) as error:
            message = (
                str(error.args[0])
                if isinstance(error, KeyError) and error.args
                else str(error)
            )
            parser.error(f"--set: {message}")
    if arguments.faults:
        from repro.reliability.faults import FaultPlan

        try:  # fail fast, not as a per-section failure mid-run
            FaultPlan.from_json(arguments.faults)
        except Exception as error:
            parser.error(f"--faults is not a valid fault plan: {error}")
    try:
        return _cmd_run(arguments)
    except UnknownExperimentError as error:
        parser.error(str(error.args[0]) if error.args else str(error))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())

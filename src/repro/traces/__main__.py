"""CLI for the trace engine: ``python -m repro.traces``.

Subcommands::

    list                              show the scenario corpus (and mixes)
    record  --scenario NAME --out F   record a registry scenario
    info    TRACE [--frames]          header + footer + compression stats
    replay  TRACE [--mode ...]        single-process replay
    shard   TRACE --out-dir D -n N    split into N per-epoch-range shards
    replay-shards F... [--jobs N]     replay shards, merged accounting
    replay-mc F... [--cores N]        multi-core shared-L3 replay, one
                                      trace per core (or --mix NAME)

Examples::

    python -m repro.traces record --scenario server-churn --out sc.trace
    python -m repro.traces info sc.trace
    python -m repro.traces replay sc.trace
    python -m repro.traces shard sc.trace --out-dir shards -n 4
    python -m repro.traces replay-shards shards/*.trace --jobs 4
    python -m repro.traces replay-mc sc.trace --cores 2 --jobs 2
    python -m repro.traces replay-mc --mix server-vs-scan --instructions 8000

See the "Scenarios & traces" section of BENCHMARKS.md for the format
specification and the corpus table.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.traces.compress import compression_summary
from repro.traces.format import TraceFormatError, TraceIntegrityError, TraceReader
from repro.traces.recorder import record_spec
from repro.traces.registry import (
    CORPUS,
    MULTICORE_MIXES,
    corpus_spec,
    load_spec,
    multicore_mix,
)
from repro.traces.replayer import (
    replay_hierarchy,
    replay_multicore,
    replay_shards,
    replay_timing,
    shard_trace,
)


def _cmd_list(arguments: argparse.Namespace) -> int:
    width = max(len(name) for name in CORPUS)
    for spec in CORPUS.values():
        policy = spec.policy or "baseline"
        if spec.with_cform:
            policy += "+CFORM"
        print(
            f"{spec.name:{width}s}  {policy:20s} "
            f"seed={spec.seed:<3d} {spec.instructions:>7d} instr  "
            f"{spec.description}"
        )
    print()
    mix_width = max(len(name) for name in MULTICORE_MIXES)
    for mix in MULTICORE_MIXES.values():
        print(
            f"{mix.name:{mix_width}s}  {len(mix.cores)} cores "
            f"({' + '.join(mix.cores)})  {mix.description}"
        )
    return 0


def _resolve_spec(arguments: argparse.Namespace):
    if arguments.spec:
        spec = load_spec(arguments.spec)
    else:
        spec = corpus_spec(arguments.scenario)
    if arguments.instructions is not None:
        spec = spec.scaled(arguments.instructions)  # 0 → spec ValueError
    return spec


def _cmd_record(arguments: argparse.Namespace) -> int:
    spec = _resolve_spec(arguments)
    result = record_spec(spec, arguments.out)
    events = result.events
    print(
        f"recorded {spec.name} -> {arguments.out}\n"
        f"  instructions {result.instructions}  "
        f"alloc events {result.alloc_events}  "
        f"cform instructions {result.cform_instructions}\n"
        f"  l1 {events.l1_accesses} accesses / {events.l1_misses} misses  "
        f"l2 {events.l2_misses} misses  l3 {events.l3_misses} misses"
    )
    return 0


def _cmd_info(arguments: argparse.Namespace) -> int:
    with TraceReader(arguments.trace) as reader:
        header = reader.header
        footer = reader.read_footer()
    spec = header.get("spec", {})
    print(f"format   {header.get('format')} (per-epoch compressed frames)")
    print(
        f"scenario {spec.get('name')}  policy {spec.get('policy') or 'baseline'}"
        f"{' +CFORM' if spec.get('with_cform') else ''}  seed {spec.get('seed')}"
    )
    geometry = header.get("geometry", {})
    for level in ("l1", "l2", "l3"):
        size, ways = geometry.get(level, (0, 0))
        print(f"{level}       {size // 1024} KB, {ways}-way")
    if "shard" in header:
        shard = header["shard"]
        print(f"shard    {shard['index'] + 1} of {shard['of']}")
    for key in (
        "benchmark", "instructions", "cform_instructions",
        "alloc_events", "records", "epochs", "counts",
    ):
        if key in footer:
            print(f"{key:19s}{footer[key]}")
    if "events" in footer:
        print(f"{'events':19s}{footer['events']}")
    summary = compression_summary(arguments.trace, footer.get("records", 0))
    print(
        f"{'compression':19s}{summary['ratio']:.1f}x "
        f"({summary['raw_record_bytes']} B of records in "
        f"{summary['payload_bytes']} B of frame payload)"
    )
    print(
        f"{'frames':19s}{summary['frames']}  "
        f"records/frame min {summary['records_per_frame_min']} / "
        f"avg {summary['records_per_frame_avg']:.0f} / "
        f"max {summary['records_per_frame_max']}"
    )
    if arguments.frames:
        for index, (records, payload) in enumerate(summary["frame_detail"]):
            bytes_per_record = payload / records if records else 0.0
            print(
                f"  frame {index:4d}  {records:8d} records  "
                f"{payload:8d} B  {bytes_per_record:5.2f} B/record"
            )
    return 0


def _print_stats(stats, label: str) -> None:
    events = stats.events
    print(
        f"{label}: {stats.touches} touches  "
        f"l1 {events.l1_accesses}/{events.l1_misses}  "
        f"l2m {events.l2_misses}  l3m {events.l3_misses}  "
        f"cform lines {stats.cform_lines}  allocs {stats.alloc_events}  "
        f"violations {stats.violations}  amat cycles {stats.amat_cycles}"
    )


def _cmd_replay(arguments: argparse.Namespace) -> int:
    from repro.traces.format import read_header

    shard = read_header(arguments.trace).get("shard")
    if shard is not None:
        # Shard files carry no whole-run summary; replay them with the
        # region engine (cold ladder, warm markers ignored).
        merged = replay_shards([arguments.trace], jobs=1, mode=arguments.mode)
        _print_stats(
            merged.stats,
            f"region replay of shard {shard['index'] + 1}/{shard['of']} "
            f"({arguments.mode})",
        )
        return 0
    if arguments.mode == "hierarchy":
        stats = replay_hierarchy(arguments.trace)
        _print_stats(stats, "hierarchy replay")
        return 0
    result = replay_timing(arguments.trace, verify=not arguments.no_verify)
    events = result.events
    verdict = (
        "verification skipped" if arguments.no_verify else "verified bit-identical"
    )
    print(
        f"timing replay of {result.benchmark} "
        f"({result.scenario.describe()}): {verdict}\n"
        f"  instructions {result.instructions}  "
        f"cform instructions {result.cform_instructions}  "
        f"alloc events {result.alloc_events}\n"
        f"  l1 {events.l1_accesses} accesses / {events.l1_misses} misses  "
        f"l2 {events.l2_misses} misses  l3 {events.l3_misses} misses"
    )
    return 0


def _cmd_shard(arguments: argparse.Namespace) -> int:
    paths = shard_trace(arguments.trace, arguments.out_dir, arguments.shards)
    for path in paths:
        print(path)
    return 0


def _cmd_replay_shards(arguments: argparse.Namespace) -> int:
    merged = replay_shards(
        arguments.shards, jobs=arguments.jobs, mode=arguments.mode
    )
    _print_stats(merged.stats, f"merged over {merged.shards} shards")
    return 0


def _replay_mc_and_print(sources: list, labels: list[str], jobs: int) -> int:
    replay = replay_multicore(sources, jobs=jobs)
    for core, stats in enumerate(replay.per_core):
        _print_stats(stats, f"core {core} ({labels[core]})")
    _print_stats(replay.merged, f"merged over {replay.cores} cores")
    return 0


def _cmd_replay_mc(arguments: argparse.Namespace) -> int:
    import tempfile

    if bool(arguments.traces) == bool(arguments.mix):
        raise ValueError(
            "replay-mc needs either trace files or --mix NAME (not both)"
        )
    jobs = arguments.jobs
    if arguments.mix:
        mix = multicore_mix(arguments.mix)
        specs = mix.specs(arguments.instructions)
        if arguments.cores is not None:
            if arguments.cores <= 0:
                raise ValueError("--cores must be positive")
            specs = [specs[i % len(specs)] for i in range(arguments.cores)]
        with tempfile.TemporaryDirectory(prefix="repro-mc-") as workdir:
            recorded: dict[str, str] = {}
            sources = []
            for spec in specs:
                if spec.name not in recorded:
                    path = os.path.join(workdir, f"{spec.name}.trace")
                    record_spec(spec, path)
                    recorded[spec.name] = path
                sources.append(recorded[spec.name])
            return _replay_mc_and_print(
                sources, [spec.name for spec in specs], jobs
            )
    sources = list(arguments.traces)
    if arguments.cores is not None:
        if arguments.cores <= 0:
            raise ValueError("--cores must be positive")
        # Fewer files than cores: cycle them, the homogeneous
        # multi-programmed study (N instances of one workload).
        sources = [sources[i % len(sources)] for i in range(arguments.cores)]
    labels = [os.path.basename(source) for source in sources]
    return _replay_mc_and_print(sources, labels, jobs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces",
        description="Record, inspect, shard and replay memory traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show the scenario corpus")

    record = commands.add_parser("record", help="record a scenario to a file")
    record.add_argument(
        "--scenario", default="server-churn",
        help=f"corpus scenario name (known: {', '.join(sorted(CORPUS))})",
    )
    record.add_argument(
        "--spec", default=None,
        help="path to a JSON spec document (overrides --scenario)",
    )
    record.add_argument(
        "--instructions", type=int, default=None,
        help="override the spec's trace length",
    )
    record.add_argument("--out", required=True, help="output trace path")

    info = commands.add_parser(
        "info", help="print header/footer/compression summary"
    )
    info.add_argument("trace")
    info.add_argument(
        "--frames", action="store_true",
        help="also list per-epoch frame statistics",
    )

    replay = commands.add_parser("replay", help="replay one trace file")
    replay.add_argument("trace")
    replay.add_argument(
        "--mode", choices=("timing", "hierarchy"), default="timing",
        help="timing: tag-only ladder, bit-identical verification; "
        "hierarchy: data-carrying stack with exception accounting",
    )
    replay.add_argument(
        "--no-verify", action="store_true",
        help="skip footer verification in timing mode",
    )

    shard = commands.add_parser("shard", help="split into per-epoch shards")
    shard.add_argument("trace")
    shard.add_argument("--out-dir", required=True)
    shard.add_argument("--shards", "-n", type=int, default=4)

    rs = commands.add_parser(
        "replay-shards", help="replay shard files with merged accounting"
    )
    rs.add_argument("shards", nargs="+", help="shard trace files")
    rs.add_argument("--jobs", "-j", type=int, default=1)
    rs.add_argument("--mode", choices=("timing", "hierarchy"), default="timing")

    mc = commands.add_parser(
        "replay-mc",
        help="multi-core shared-L3 replay: one trace stream per core",
    )
    mc.add_argument(
        "traces", nargs="*",
        help="one trace file per core (cycled up to --cores when fewer)",
    )
    mc.add_argument(
        "--mix", default=None,
        help="record and replay a named registry mix instead of files "
        f"(known: {', '.join(sorted(MULTICORE_MIXES))}; or an inline "
        "list like 'server-churn,2x pointer-chase')",
    )
    mc.add_argument(
        "--instructions", type=int, default=None,
        help="trace length per core when recording a --mix",
    )
    mc.add_argument(
        "--cores", "-c", type=int, default=None,
        help="number of cores (default: one per trace / mix entry)",
    )
    mc.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the per-core ladder phase "
        "(statistics are identical at any value)",
    )

    arguments = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "record": _cmd_record,
        "info": _cmd_info,
        "replay": _cmd_replay,
        "shard": _cmd_shard,
        "replay-shards": _cmd_replay_shards,
        "replay-mc": _cmd_replay_mc,
    }[arguments.command]
    try:
        return handler(arguments)
    except (TraceFormatError, TraceIntegrityError, OSError) as error:
        # Runtime failures (corrupt/divergent/missing traces) are not
        # usage errors: report plainly, exit 1, no usage banner.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        # str(KeyError) is the repr of its argument — unwrap so the
        # message is not printed inside stray quotes.
        if isinstance(error, KeyError) and error.args:
            parser.error(str(error.args[0]))
        else:
            parser.error(str(error))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())

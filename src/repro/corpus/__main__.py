"""CLI for the corpus store: ``python -m repro.corpus``.

Subcommands::

    build   [--scenario NAME ...] [--instructions N]
            record any registry mixes missing from the store
    ls      manifest table: scenario, fingerprint, digest, sizes, ratio
    verify  re-hash every object against its manifest digest and stored
            hash, and replay it against its footer; non-zero exit on
            problems, ``--repair`` self-heals them (quarantine +
            re-record from the manifest-stored spec)
    gc      drop unreferenced objects, stale manifest entries and
            quarantined damage older than ``--keep-days``
    key     print the registry fingerprint (the CI cache key)
    pack    frame objects (all, or ``--scenario`` selections) into one
            content-addressed ``.pack`` container for distribution
    unpack  install a pack's objects + manifest bindings into the store

The store root is ``--root``, else ``$REPRO_CORPUS_DIR``, else
``./.repro-corpus``.  Examples::

    python -m repro.corpus build --instructions 8000
    python -m repro.corpus ls
    python -m repro.corpus verify
    python -m repro.corpus verify --repair
    python -m repro.corpus gc --keep-days 3
    python -m repro.corpus key
    python -m repro.corpus pack
    python -m repro.corpus pack --scenario server-churn --out churn.pack
    python -m repro.corpus unpack churn.pack

See the "Corpus & compression" section of BENCHMARKS.md for the store
layout and measured compression ratios.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.corpus.store import (
    DEFAULT_ROOT,
    ENV_ROOT,
    CorpusStore,
    registry_fingerprint,
)
from repro.traces.format import TraceFormatError
from repro.traces.registry import CORPUS


def _store(arguments: argparse.Namespace) -> CorpusStore:
    return CorpusStore(arguments.root)


def _cmd_build(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    names = arguments.scenario or sorted(CORPUS)
    unknown = sorted(set(names) - set(CORPUS))
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(CORPUS))}"
        )
    outcomes = store.build_registry(names, arguments.instructions)
    width = max(len(outcome.entry.scenario) for outcome in outcomes)
    for outcome in outcomes:
        entry = outcome.entry
        print(
            f"{entry.scenario:{width}s}  "
            f"{'recorded' if outcome.built else 'corpus hit':10s} "
            f"{entry.records:>8d} records  "
            f"{entry.stored_bytes:>9d} B stored  "
            f"{entry.compression_ratio:6.1f}x  {entry.digest[:12]}"
        )
    print(
        f"\n{store.built} recorded, {store.hits} reused "
        f"(root {store.root})"
    )
    return 0


def _cmd_ls(arguments: argparse.Namespace) -> int:
    entries = sorted(
        _store(arguments).manifest().entries.values(),
        key=lambda entry: entry.scenario,
    )
    if not entries:
        print(f"empty corpus (root {arguments.root})")
        return 0
    width = max(len(entry.scenario) for entry in entries)
    print(
        f"{'scenario':{width}s}  {'driver':9s} {'instr':>8s} {'records':>8s} "
        f"{'raw B':>9s} {'stored B':>9s} {'ratio':>6s}  digest"
    )
    for entry in entries:
        print(
            f"{entry.scenario:{width}s}  {entry.driver:9s} "
            f"{entry.instructions:>8d} {entry.records:>8d} "
            f"{entry.raw_bytes:>9d} {entry.stored_bytes:>9d} "
            f"{entry.compression_ratio:>5.1f}x  {entry.digest[:16]}"
        )
    return 0


def _print_heal_summary(store: CorpusStore) -> None:
    """One-line view of the quarantine ledger (events.jsonl), if any."""
    summary = store.heal_summary()
    if not summary["events"]:
        return
    print(
        f"heal ledger: {summary['events']} event(s), "
        f"{summary['quarantined']} quarantined file(s) "
        f"({store.heal_log_path})"
    )
    for name, count in sorted(summary["scenarios"].items()):
        print(f"  {name}: {count} event(s)")


def _cmd_verify(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    entries = len(store.manifest().entries)
    if arguments.repair:
        problems, actions = store.repair()
        for problem, action in zip(problems, actions):
            print(f"FAIL {problem}", file=sys.stderr)
            print(f"HEAL {action}", file=sys.stderr)
        remaining = store.verify()
        if remaining:
            for problem in remaining:
                print(f"FAIL (unrepaired) {problem}", file=sys.stderr)
            return 1
        print(
            f"ok: {len(problems)} problem(s) healed, "
            f"{len(store.manifest().entries)} entries verified "
            f"(quarantine: {store.quarantine_dir})"
        )
        _print_heal_summary(store)
        return 0
    problems = store.verify()
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(
            f"{len(problems)} problem(s) across {entries} entries "
            f"(rerun with --repair to self-heal)",
            file=sys.stderr,
        )
        _print_heal_summary(store)
        return 1
    print(
        f"ok: {entries} entries, every object hash verified and every "
        "footer replayed"
    )
    _print_heal_summary(store)
    return 0


def _cmd_gc(arguments: argparse.Namespace) -> int:
    store = _store(arguments)
    removed = store.gc(keep_days=arguments.keep_days)
    for item in removed:
        print(f"removed {item}")
    print(
        f"{len(removed)} item(s) removed, "
        f"{store.reclaimed_bytes} B reclaimed"
    )
    return 0


def _cmd_pack(arguments: argparse.Namespace) -> int:
    from repro.corpus.packs import write_pack

    path, identifier, count = write_pack(
        _store(arguments), out=arguments.out, names=arguments.scenario
    )
    print(f"packed {count} object(s) -> {path}")
    print(f"pack id {identifier}")
    return 0


def _cmd_unpack(arguments: argparse.Namespace) -> int:
    from repro.corpus.packs import unpack, verify_pack

    problems = verify_pack(arguments.pack)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    installed, skipped = unpack(arguments.pack, _store(arguments))
    for digest in installed:
        print(f"installed {digest[:16]}")
    print(
        f"{len(installed)} object(s) installed, {len(skipped)} already "
        f"present (root {arguments.root})"
    )
    return 0


def _cmd_key(arguments: argparse.Namespace) -> int:
    print(registry_fingerprint())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="Build, inspect and verify the content-addressed "
        "trace corpus.",
    )
    parser.add_argument(
        "--root",
        default=os.environ.get(ENV_ROOT, DEFAULT_ROOT),
        help=f"store root (default: ${ENV_ROOT} or {DEFAULT_ROOT})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="record any registry mixes missing from the store"
    )
    build.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="registry mix to build (repeatable; default: all "
        f"{len(CORPUS)} mixes)",
    )
    build.add_argument(
        "--instructions", type=int, default=None,
        help="override every spec's trace length",
    )

    commands.add_parser("ls", help="list manifest entries")
    verify = commands.add_parser(
        "verify",
        help="re-hash objects against the manifest and replay them "
        "against their footers",
    )
    verify.add_argument(
        "--repair", action="store_true",
        help="self-heal: quarantine damaged objects and re-record them "
        "from their manifest-stored specs",
    )
    gc = commands.add_parser(
        "gc",
        help="remove unreferenced objects and old quarantined damage",
    )
    from repro.corpus.store import QUARANTINE_KEEP_DAYS

    gc.add_argument(
        "--keep-days", type=float, default=QUARANTINE_KEEP_DAYS,
        metavar="DAYS",
        help="keep quarantined damage younger than DAYS for diagnosis "
        f"(default: {QUARANTINE_KEEP_DAYS:g}; the events.jsonl ledger "
        "is always kept)",
    )
    commands.add_parser(
        "key", help="print the registry fingerprint (CI cache key)"
    )
    pack = commands.add_parser(
        "pack",
        help="frame corpus objects into one .pack container",
    )
    pack.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="scenario to include (repeatable; default: every recorded "
        "object)",
    )
    pack.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default: <root>/packs/<pack id>.pack)",
    )
    unpack = commands.add_parser(
        "unpack",
        help="verify a pack and install its objects + bindings",
    )
    unpack.add_argument("pack", help="pack file to install")

    arguments = parser.parse_args(argv)
    handler = {
        "build": _cmd_build,
        "ls": _cmd_ls,
        "verify": _cmd_verify,
        "gc": _cmd_gc,
        "key": _cmd_key,
        "pack": _cmd_pack,
        "unpack": _cmd_unpack,
    }[arguments.command]
    try:
        return handler(arguments)
    except (TraceFormatError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyError as error:
        parser.error(str(error.args[0]) if error.args else str(error))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())

"""The fault × consumer matrix: every injectable fault against every
consumer that must survive it.

One :func:`run_matrix` call builds a tiny pristine corpus once, then for
each case copies it into a scratch root, injects exactly one fault and
drives one consumer (``ensure`` / ``run_result`` / ``verify --repair`` /
the experiment runner / the manifest lock), asserting the reliability
contract:

* the consumer completes instead of crashing,
* the store converges back to the *byte-identical* object (content
  addressing makes this checkable: healed digest == pristine digest)
  and to the pristine manifest entries,
* the damage is quarantined and recorded in the heal ledger, and
* a follow-up ``verify`` is clean.

This is the ``make faults-smoke`` payload (``python -m repro faults
matrix``) and the engine behind ``tests/reliability/test_selfheal.py``
— CI runs the same matrix the tests parametrise over.
"""

from __future__ import annotations

import filecmp
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass

from repro.corpus.manifest import ManifestLockTimeout, manifest_lock
from repro.corpus.store import CorpusStore
from repro.traces.registry import CORPUS

from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    hold_manifest_lock,
    inject_store_faults,
)

#: Trace length of the matrix's scratch corpus: long enough to span
#: several compressed epochs (so truncation can land mid-stream), short
#: enough that a full matrix run re-records in well under a second per
#: case.
MATRIX_INSTRUCTIONS = 4_000

#: (fault kind, consumer) cells.  ``orphan-entry`` is invisible to
#: ``ensure``/``run_result`` by construction (its fingerprint belongs to
#: no real spec), so only the bulk repair path owns it.  A
#: ``torn-journal`` store heals at its next manifest write: a rebuild's
#: append, or ``repair``'s cut.
CORPUS_CASES: tuple[tuple[str, str], ...] = (
    ("bitflip", "ensure"),
    ("bitflip", "run_result"),
    ("bitflip", "repair"),
    ("truncate", "ensure"),
    ("truncate", "run_result"),
    ("truncate", "repair"),
    ("delete", "ensure"),
    ("delete", "run_result"),
    ("delete", "repair"),
    ("corrupt-entry", "ensure"),
    ("corrupt-entry", "repair"),
    ("orphan-entry", "repair"),
    ("torn-journal", "ensure"),
    ("torn-journal", "run_result"),
    ("torn-journal", "repair"),
)


@dataclass(frozen=True)
class FaultCase:
    """Outcome of one matrix cell."""

    case: str
    ok: bool
    detail: str


def _matrix_spec():
    """The one workload the corpus cells damage and re-heal."""
    name = sorted(CORPUS)[0]
    return CORPUS[name].scaled(MATRIX_INSTRUCTIONS)


def _build_template(root: str) -> str:
    """Record the pristine single-object store; returns its digest."""
    store = CorpusStore(root)
    return store.ensure(_matrix_spec()).entry.digest


def _corpus_case(
    template: str, root: str, kind: str, consumer: str, digest: str
) -> FaultCase:
    """Copy the pristine store, break it one way, heal it one way."""
    name = f"corpus/{kind}/{consumer}"
    shutil.copytree(template, root)
    inject_store_faults(
        CorpusStore(root), FaultPlan((FaultSpec(kind=kind, seed=1),))
    )
    store = CorpusStore(root)  # a fresh handle, as a new run opens
    spec = _matrix_spec()
    try:
        if consumer == "ensure":
            healed = store.ensure(spec).entry.digest
            if healed != digest:
                return FaultCase(
                    name, False, f"healed digest {healed[:12]} != pristine"
                )
        elif consumer == "run_result":
            store.run_result(spec)
        elif consumer == "repair":
            problems, actions = store.repair()
            if not problems:
                return FaultCase(
                    name, False, "repair saw no problem in a damaged store"
                )
            if len(problems) != len(actions):
                return FaultCase(name, False, "problems/actions mismatch")
        else:  # pragma: no cover - matrix definition error
            return FaultCase(name, False, f"unknown consumer {consumer!r}")
    except Exception as error:  # the contract: consumers never crash
        return FaultCase(name, False, f"{type(error).__name__}: {error}")
    if store.healed == 0:
        return FaultCase(name, False, "no heal event was recorded")
    remaining = CorpusStore(root).verify()
    if remaining:
        return FaultCase(name, False, f"still damaged: {remaining[0]}")
    # ensure/run_result must have restored the binding in place; repair
    # leaves a lost binding (a torn journal line's) to the next ensure.
    resolved = CorpusStore(root).ensure(spec)
    if consumer != "repair" and resolved.built:
        return FaultCase(name, False, "store did not converge")
    if resolved.entry.digest != digest:
        return FaultCase(name, False, "store did not converge")
    if not _same_state(template, root, digest):
        return FaultCase(
            name, False, "healed store differs from the pristine one"
        )
    if not os.path.isdir(os.path.join(root, "quarantine")) and kind not in (
        "corrupt-entry",
        "orphan-entry",
        "delete",
    ):
        return FaultCase(name, False, "damaged bytes were not quarantined")
    return FaultCase(name, True, f"healed after {kind}")


def _same_state(template: str, root: str, digest: str) -> bool:
    """Whether ``root`` holds the template's manifest entries and the
    template's object bytes."""
    pristine, healed = CorpusStore(template), CorpusStore(root)
    return pristine.manifest().entries == healed.manifest().entries and (
        filecmp.cmp(
            pristine.object_path(digest), healed.object_path(digest),
            shallow=False,
        )
    )


def _lock_case(root: str) -> FaultCase:
    """An antagonist holds the manifest lock; acquisition must time out
    with diagnostics instead of hanging."""
    name = "lock/timeout"
    os.makedirs(root, exist_ok=True)
    holder = multiprocessing.Process(
        target=hold_manifest_lock, args=(root, 2.5)
    )
    holder.start()
    try:
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            try:
                with manifest_lock(root, timeout=0.05):
                    pass  # antagonist not holding yet; try again
            except ManifestLockTimeout as error:
                if "manifest lock" not in str(error):
                    return FaultCase(
                        name, False, f"timeout lacks diagnostics: {error}"
                    )
                return FaultCase(name, True, "timed out with diagnostics")
            if not holder.is_alive():
                return FaultCase(
                    name, False, "holder exited before contention was seen"
                )
            time.sleep(0.01)
        return FaultCase(name, False, "never observed lock contention")
    finally:
        holder.join()


def _runner_fail_case(stamp_root: str) -> FaultCase:
    """An injected deterministic section failure becomes a recorded
    ``SectionFailure``; the other sections still complete."""
    from repro.experiments.context import RunContext
    from repro.experiments.registry import select
    from repro.experiments.results import SectionFailure, SectionResult
    from repro.experiments.runner import execute_report

    name = "runner/fail-section"
    plan = FaultPlan(
        (FaultSpec(kind="fail-section", target="table2"),),
        stamp_dir=os.path.join(stamp_root, "fail"),
    )
    ctx = RunContext.create(
        profile="quick", no_corpus=True, jobs=1, faults=plan
    )
    report = execute_report(select(["table1", "table2"]), ctx)
    failed = {o.name: o for o in report.outcomes if isinstance(o, SectionFailure)}
    if set(failed) != {"table2"}:
        return FaultCase(
            name, False, f"expected table2 to fail; failed={sorted(failed)}"
        )
    if failed["table2"].kind != "exception" or failed["table2"].attempts != 1:
        return FaultCase(name, False, "deterministic failure was retried")
    if not isinstance(report.outcomes[0], SectionResult):
        return FaultCase(name, False, "healthy section did not complete")
    return FaultCase(name, True, "isolated to one SectionFailure")


def _runner_kill_case(stamp_root: str) -> FaultCase:
    """A worker killed mid-section breaks the pool once; the bounded
    retry completes the run cleanly (the incident stays on the ledger)."""
    from repro.experiments.context import RunContext
    from repro.experiments.registry import select
    from repro.experiments.results import SectionResult
    from repro.experiments.runner import execute_report

    name = "runner/kill-section"
    plan = FaultPlan(
        (FaultSpec(kind="kill-section", target="table1", count=1),),
        stamp_dir=os.path.join(stamp_root, "kill"),
    )
    ctx = RunContext.create(
        profile="quick", no_corpus=True, jobs=2, faults=plan
    )
    report = execute_report(select(["table1", "table2"]), ctx)
    if not all(isinstance(o, SectionResult) for o in report.outcomes):
        return FaultCase(
            name, False, f"run did not recover: {report.failures}"
        )
    crash = [i for i in report.incidents if i["kind"] == "worker-crash"]
    if not crash or not all(i["retried"] for i in crash):
        return FaultCase(
            name, False, f"no retried worker-crash incident: {report.incidents}"
        )
    return FaultCase(name, True, "worker crash recovered by bounded retry")


def run_matrix(root: str, runner_cases: bool = True) -> list[FaultCase]:
    """Run every matrix cell under ``root``; returns one case per cell."""
    cases: list[FaultCase] = []
    if os.path.isdir(root):  # a scratch dir: previous runs are disposable
        shutil.rmtree(root)
    template = os.path.join(root, "template")
    digest = _build_template(template)
    for kind, consumer in CORPUS_CASES:
        case_root = os.path.join(root, f"{kind}-{consumer}")
        cases.append(_corpus_case(template, case_root, kind, consumer, digest))
    cases.append(_lock_case(os.path.join(root, "lock")))
    if runner_cases:
        stamp_root = os.path.join(root, "stamps")
        cases.append(_runner_fail_case(stamp_root))
        cases.append(_runner_kill_case(stamp_root))
    return cases

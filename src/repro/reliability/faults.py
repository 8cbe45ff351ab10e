"""Deterministic fault injection for the corpus store and the runner.

A fault is data: a :class:`FaultSpec` names a *kind*, a *target* (a
glob over scenario names for corpus faults, over section names for
runner faults), a *seed* (which byte/bit a flip or truncation hits is a
pure function of seed + object digest, so a test can re-inject the
exact same damage) and a firing budget.  A :class:`FaultPlan` bundles
specs and travels as JSON — through the ``REPRO_FAULTS`` environment
variable into worker processes, through
:attr:`repro.experiments.context.RunContext.faults` into the runner,
or applied immediately with :func:`inject_store_faults` (the
``python -m repro faults inject`` path).

Corpus fault kinds (applied to a store's on-disk state):

``bitflip``
    Flip one seeded bit inside a matching object file.
``truncate``
    Cut a matching object file to a seeded fraction of its length.
``delete``
    Remove a matching object file.
``corrupt-entry``
    Rewrite a matching manifest entry's content digest so it binds to
    bytes that do not exist.
``orphan-entry``
    Insert a manifest entry (fingerprint and digest both synthetic)
    whose object was never recorded and whose spec is unknown.
``torn-journal``
    Leave a matching entry's binding as a build killed mid-append
    leaves it: the entry is dropped and the manifest journal ends in a
    seeded prefix of the line that would have bound it (its object
    stays published).

Runner fault kinds (tripped by :func:`trip_section_fault` inside the
executor, once per stamp budget):

``fail-section``
    Raise :class:`InjectedSectionError` — a deterministic experiment
    failure (never retried; becomes a ``SectionFailure``).
``kill-section``
    Die without unwinding — ``os._exit`` in a worker process (the pool
    sees a broken worker, exactly like an OOM kill), a raised
    :class:`InjectedWorkerCrash` when inline.  Infrastructure-class, so
    the runner's bounded retry recovers if the budget is spent.

Lock fault:

``hold-lock``
    :func:`hold_manifest_lock` grabs the store's manifest lock for
    ``seconds`` — the antagonist for lock-timeout tests.

Firing budgets use *stamp files*: a spec with ``count=1`` fires once
across every process that shares the plan's ``stamp_dir``, because each
firing claims a stamp with ``O_CREAT | O_EXCL``.  Without a
``stamp_dir`` runner faults fire on every match (corpus faults are
one-shot by nature — they mutate state).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace

#: Environment variable carrying a JSON-serialised plan into workers.
ENV_FAULTS = "REPRO_FAULTS"

CORPUS_FAULT_KINDS = (
    "bitflip",
    "truncate",
    "delete",
    "corrupt-entry",
    "orphan-entry",
    "torn-journal",
)
SECTION_FAULT_KINDS = ("fail-section", "kill-section")
FAULT_KINDS = CORPUS_FAULT_KINDS + SECTION_FAULT_KINDS + ("hold-lock",)

#: Exit status of a kill-section worker (distinctive in pool tracebacks).
KILL_EXIT_CODE = 73

#: Truncation keeps at least this many bytes so the magic sniff still
#: identifies the file as a trace (mid-stream truncation, the realistic
#: crashed-writer shape).
MIN_TRUNCATED_BYTES = 16


class InjectedSectionError(RuntimeError):
    """A deterministic, injected experiment failure (never retried)."""


class InjectedWorkerCrash(OSError):
    """Inline stand-in for a killed worker (infrastructure-class)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault (see module docstring for the kinds)."""

    kind: str
    target: str = "*"
    seed: int = 0
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def matches(self, name: str) -> bool:
        return fnmatch.fnmatchcase(name, self.target)

    def stamp_key(self) -> str:
        """Stable identity for the stamp files of this spec."""
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs plus the stamp directory bounding firings."""

    specs: tuple[FaultSpec, ...] = ()
    stamp_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- serialisation (env var / RunContext field) --------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "specs": [asdict(spec) for spec in self.specs],
                "stamp_dir": self.stamp_dir,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        document = json.loads(text)
        return cls(
            specs=tuple(
                FaultSpec(**spec) for spec in document.get("specs", ())
            ),
            stamp_dir=document.get("stamp_dir"),
        )

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultPlan | None":
        text = environ.get(ENV_FAULTS)
        return cls.from_json(text) if text else None

    def to_env(self, environ=os.environ) -> None:
        environ[ENV_FAULTS] = self.to_json()

    # -- firing --------------------------------------------------------------

    def claim(self, spec: FaultSpec) -> bool:
        """Claim one firing of ``spec``; False once the budget is spent.

        Atomic across processes sharing :attr:`stamp_dir` (``O_EXCL``
        stamp creation).  Without a stamp dir the budget is unbounded.
        """
        if self.stamp_dir is None:
            return True
        os.makedirs(self.stamp_dir, exist_ok=True)
        key = spec.stamp_key()
        for firing in range(spec.count):
            stamp = os.path.join(self.stamp_dir, f"{key}.{firing}")
            try:
                os.close(os.open(stamp, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False

    def section_specs(self, section: str) -> list[FaultSpec]:
        return [
            spec
            for spec in self.specs
            if spec.kind in SECTION_FAULT_KINDS and spec.matches(section)
        ]


def merged_plan(
    context_faults: str | None = None, environ=os.environ
) -> FaultPlan | None:
    """The active plan: RunContext-carried specs plus ``$REPRO_FAULTS``.

    When both are present their specs concatenate; the context plan's
    stamp dir wins (one budget ledger per run).
    """
    context_plan = (
        FaultPlan.from_json(context_faults) if context_faults else None
    )
    env_plan = FaultPlan.from_env(environ)
    if context_plan is None:
        return env_plan
    if env_plan is None:
        return context_plan
    return replace(
        context_plan,
        specs=context_plan.specs + env_plan.specs,
        stamp_dir=context_plan.stamp_dir or env_plan.stamp_dir,
    )


def trip_section_fault(
    section: str, context_faults: str | None = None, environ=os.environ
) -> None:
    """Fire any armed runner fault targeting ``section`` (or return).

    Called by the experiment executor at the top of every section, in
    the process that will run it — worker or inline.  ``kill-section``
    in a worker exits the process without unwinding (the pool observes
    a broken worker); inline it degrades to an
    :class:`InjectedWorkerCrash` so a single-process run survives to
    exercise the same retry path.
    """
    plan = merged_plan(context_faults, environ)
    if plan is None:
        return
    for spec in plan.section_specs(section):
        if not plan.claim(spec):
            continue
        if spec.kind == "fail-section":
            raise InjectedSectionError(
                f"injected failure in section {section!r} "
                f"(fault target {spec.target!r})"
            )
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(KILL_EXIT_CODE)
        raise InjectedWorkerCrash(
            f"injected worker crash in section {section!r} "
            f"(inline stand-in for kill-section)"
        )


# -- corpus-side injection ----------------------------------------------------


def _object_rng_offset(digest: str, seed: int, span: int) -> int:
    """A seeded position inside ``span`` bytes, stable per (digest, seed)."""
    payload = f"{digest}:{seed}".encode()
    value = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    return value % span if span else 0


def inject_object_fault(path: str, digest: str, kind: str, seed: int) -> str:
    """Damage one object file in place; returns a description."""
    if kind == "delete":
        os.remove(path)
        return f"deleted {path}"
    size = os.path.getsize(path)
    if kind == "bitflip":
        offset = _object_rng_offset(digest, seed, size)
        bit = _object_rng_offset(digest, seed + 1, 8)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            (byte,) = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        return f"flipped bit {bit} of byte {offset} in {path}"
    if kind == "truncate":
        keep = MIN_TRUNCATED_BYTES + _object_rng_offset(
            digest, seed, max(1, size - MIN_TRUNCATED_BYTES)
        )
        keep = min(keep, max(MIN_TRUNCATED_BYTES, size - 1))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        return f"truncated {path} from {size} to {keep} bytes"
    raise ValueError(f"not an object fault kind: {kind!r}")


def inject_store_faults(store, plan: FaultPlan) -> list[str]:
    """Apply a plan's corpus faults to ``store``'s on-disk state now.

    Deterministic: which entries match is the manifest order, which
    byte a flip or truncation (or where a journal line tears) hits is
    seeded per object digest.  Manifest changes go through the store's
    one write path, :meth:`~repro.corpus.store.CorpusStore.commit`.
    Returns human-readable descriptions of every mutation made.
    """
    from repro.corpus.manifest import ManifestEntry, journal_line, manifest_lock

    actions: list[str] = []
    for spec in plan.specs:
        if spec.kind not in CORPUS_FAULT_KINDS:
            continue
        if spec.kind == "orphan-entry":
            fake = hashlib.sha256(
                f"orphan:{spec.seed}".encode()
            ).hexdigest()
            entry = ManifestEntry(
                fingerprint=f"orphan-{fake[:16]}",
                scenario=f"orphan/{spec.seed}",
                driver="generator",
                instructions=0,
                digest=fake,
                records=0,
                raw_bytes=0,
                stored_bytes=0,
                stored_sha256=hashlib.sha256(b"").hexdigest(),
            )
            with manifest_lock(store.root):
                store.commit(puts=[entry])
            actions.append(
                f"orphaned manifest entry {entry.fingerprint} "
                f"(object {fake[:12]}… never recorded)"
            )
            continue
        matched = [
            (fingerprint, entry)
            for fingerprint, entry in sorted(store.manifest().entries.items())
            if spec.matches(entry.scenario)
        ]
        for fingerprint, entry in matched:
            if spec.kind == "corrupt-entry":
                bogus = hashlib.sha256(
                    f"{entry.digest}:{spec.seed}".encode()
                ).hexdigest()
                with manifest_lock(store.root):
                    current = store.manifest().get(fingerprint)
                    if current is not None:
                        store.commit(puts=[replace(current, digest=bogus)])
                actions.append(
                    f"corrupted manifest entry for {entry.scenario}: "
                    f"digest {entry.digest[:12]}… -> {bogus[:12]}…"
                )
                continue
            if spec.kind == "torn-journal":
                line = journal_line(put=entry)
                # 1 .. len - 1 bytes: never the whole line with its newline.
                keep = 1 + _object_rng_offset(
                    entry.digest, spec.seed, len(line) - 1
                )
                with manifest_lock(store.root):
                    store.commit(drops=[fingerprint])
                    with open(store.journal_path, "ab") as handle:
                        handle.write(line[:keep])
                actions.append(
                    f"tore the journal line binding {entry.scenario}: "
                    f"{keep} of {len(line)} bytes written"
                )
                continue
            path = store.object_path(entry.digest)
            if not os.path.exists(path):
                continue
            actions.append(
                f"{entry.scenario}: "
                + inject_object_fault(path, entry.digest, spec.kind, spec.seed)
            )
    return actions


def hold_manifest_lock(root: str, seconds: float) -> None:
    """Hold the store's manifest lock for ``seconds`` (lock antagonist)."""
    from repro.corpus.manifest import manifest_lock

    with manifest_lock(root, timeout=max(seconds, 1.0)):
        time.sleep(seconds)

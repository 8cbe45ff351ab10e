"""Content-addressed trace corpus: record once, replay everywhere.

The store is a directory::

    <root>/manifest.json            fingerprints → object metadata
    <root>/objects/<aa>/<sha256>.trace   CALTRC02 compressed traces

Identity is two-level:

* the **spec fingerprint** — sha256 over the scenario-spec document and
  the recording geometry — keys the manifest: same workload definition,
  same fingerprint, across machines and sessions;
* the **content digest** — sha256 of the trace's *canonical CALTRC01
  byte stream* (the v1 serialisation of header, records and footer) —
  names the object file.  Hashing the canonical stream rather than the
  on-disk bytes makes identity independent of the storage codec: a
  recompressed or transcoded object keeps its name, and ``verify`` can
  check a CALTRC02 file against the digest its v1 twin would have.  The
  digest decodes through :meth:`TraceReader.column_batches`, the same
  decoder every replay uses, and repacks each batch into the v1 record
  layout before hashing it.

:meth:`CorpusStore.ensure` is the whole workflow: manifest hit → read
the object once, check its sha256 against the ``stored_sha256`` taken
when it was built, and parse the run summary from the footer of those
same bytes; miss → record the spec live (through its driver), store
compressed, bind the fingerprint.  Recording is deterministic, so
concurrent builders racing on the same spec converge on byte-identical
objects.  Figure sweeps resolve their workloads through
:meth:`CorpusStore.slowdown` (see :mod:`repro.analysis.suite`), which
reads corpus footers instead of re-synthesising per figure.

The trust boundary: a hit trusts the footer of verified bytes — the
counts the recorder's :class:`~repro.memory.kernel.TimingAccountant`
wrote — without replaying them; ``verify`` is where a replay is checked
against each footer.  Any change to what the recorder's footer, the
``TimingAccountant`` or the ``LadderKernel`` compute must therefore bump
:data:`FINGERPRINT_VERSION`, so stored footers of the old code are never
trusted by the new.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import span as telemetry_span
from repro.traces.format import (
    EV_END,
    MAGIC,
    RECORD,
    RECORD_DTYPE,
    TraceReader,
)
from repro.traces.recorder import _geometry_dict, record_spec
from repro.traces.registry import CORPUS, TraceScenarioSpec, policy_to_str
from repro.traces.replayer import recorded_result, replay_timing
from repro.workloads.generator import RunResult, Scenario, relative_slowdown
from repro.workloads.specs import BenchmarkProfile

from repro.corpus.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    Manifest,
    ManifestEntry,
    load_manifest,
    manifest_lock,
    save_manifest,
)
from repro.traces.format import TraceFormatError, TraceIntegrityError

#: Environment override for the default store root.
ENV_ROOT = "REPRO_CORPUS_DIR"

#: Default store root (relative to the invoking process's cwd, like the
#: runner's EXPERIMENTS.md output); CI caches this directory.
DEFAULT_ROOT = ".repro-corpus"

#: Bump when the fingerprint payload changes shape — or when what the
#: recorder's footer, the ``TimingAccountant`` or the ``LadderKernel``
#: compute changes, since a corpus hit trusts stored footers.
FINGERPRINT_VERSION = 1

#: ``gc`` reaps unreferenced files only after this age: a younger
#: ``.recording`` may be a live concurrent builder's temp file, and a
#: younger unreferenced ``.trace`` may be a just-published object whose
#: builder has not yet written its manifest entry.
STALE_RECORDING_SECONDS = 3600

#: Subdirectory (under the store root) receiving damaged bytes: bad
#: objects and corrupt manifests are moved here, never destroyed, so a
#: failure is diagnosable after the store healed itself.
QUARANTINE_DIR = "quarantine"

#: Append-only JSONL ledger of self-heal events, inside the quarantine
#: directory.  Each line: scenario, digest, reason, action.
HEAL_LOG_NAME = "events.jsonl"

#: ``gc`` keeps quarantined damage younger than this many days for
#: post-mortem diagnosis; older blobs are reclaimed.  The events.jsonl
#: ledger itself is never swept — it is the record of *why* bytes were
#: quarantined, and it stays useful after the bytes are gone.
QUARANTINE_KEEP_DAYS = 7.0

#: Exceptions that mean "the bytes under this consumer are damaged" —
#: the self-heal triggers.  Everything else (bugs, BaseException) still
#: propagates.
DAMAGE_ERRORS = (TraceFormatError, TraceIntegrityError, OSError, ValueError)


def spec_fingerprint(
    spec: TraceScenarioSpec, config: HierarchyConfig = WESTMERE
) -> str:
    """Stable identity of one recordable workload.

    Covers everything that determines the logical record stream: the
    full spec document (profile, policy, seeds, lengths, driver) and the
    recording geometry.  Deliberately excludes the storage codec — a
    format migration does not orphan the corpus.
    """
    payload = {
        "fingerprint_version": FINGERPRINT_VERSION,
        "spec": spec.to_dict(),
        "geometry": _geometry_dict(config),
    }
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def canonical_digest(source) -> tuple[str, int, dict]:
    """sha256, length and footer of a trace's canonical CALTRC01 stream.

    Streams the file (any container version) and hashes the exact bytes
    its v1 serialisation would hold — header ``format`` normalised to
    ``CALTRC01`` so a transcoded twin hashes identically.  Records come
    from :meth:`TraceReader.column_batches`; each batch is repacked into
    the packed ``<BQI`` layout and hashed in one update.  A record that
    layout cannot hold (a negative address, an ``arg`` of 2**32 or more)
    raises :class:`TraceFormatError`.  The footer is returned as well
    (the stream was fully drained to hash it, so callers wanting record
    counts need no second pass).
    """
    digest = hashlib.sha256()
    length = 0

    def feed(data: bytes) -> None:
        nonlocal length
        digest.update(data)
        length += len(data)

    with TraceReader(source) as reader:
        header = dict(reader.header)
        if "format" in header:
            header["format"] = MAGIC.decode("ascii")
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        feed(MAGIC)
        feed(struct.pack("<I", len(header_bytes)))
        feed(header_bytes)
        position = 0  # stream index of the batch's first record
        for batch in reader.column_batches():
            address, arg = batch.address, batch.arg
            bad = np.flatnonzero((address < 0) | (arg > 0xFFFFFFFF))
            if bad.size:
                row = int(bad[0])
                raise reader.error(
                    f"record {position + row} (address {int(address[row])}, "
                    f"arg {int(arg[row])}) does not fit the canonical <BQI "
                    "record layout"
                )
            rows = np.empty(len(batch), dtype=RECORD_DTYPE)
            rows["kind"] = batch.kind
            rows["address"] = address
            rows["arg"] = arg
            feed(rows.tobytes())
            position += len(batch)
        footer = reader.read_footer()
        footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
        feed(RECORD.pack(EV_END, 0, len(footer_bytes)))
        feed(footer_bytes)
    return digest.hexdigest(), length, footer


def _stat_key(path: str) -> tuple[int, int, int] | None:
    """``(inode, mtime_ns, size)`` of ``path``; ``None`` if absent."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


def _stored_mismatch(entry: ManifestEntry) -> str:
    return (
        f"object {entry.digest[:12]}… stored bytes do not match the "
        f"manifest ({entry.stored_bytes} bytes, sha256 "
        f"{entry.stored_sha256[:12]}…)"
    )


@dataclass(frozen=True)
class CorpusObject:
    """Outcome of one :meth:`CorpusStore.ensure` resolution."""

    path: str
    entry: ManifestEntry
    built: bool  # False: manifest hit, no recording happened
    #: The spec's run summary: on a hit the verified footer's, on a
    #: build the recording's own (``None`` from resolvers that do not
    #: carry it).
    result: RunResult | None = None


class CorpusStore:
    """A content-addressed on-disk corpus of recorded traces.

    The store is *self-healing*: every read path (``ensure`` hits and
    so ``run_result``, ``verify --repair``) checks the bytes it is about
    to trust, and on any damage — hash mismatch, truncation, missing
    file, unreadable container, corrupt manifest — quarantines the bad
    bytes under ``<root>/quarantine/``, drops the manifest binding and
    re-records from the deterministic spec.  The spec, not the stored
    bytes, is the source of truth; healing therefore always converges on
    an object byte-identical to an undamaged build.

    A hit trusts the footer of verified bytes: one sha256 of the stored
    object, then the footer's run summary, with no decode or replay.
    ``verify`` re-derives what a hit trusts — the canonical digest, and
    a replay checked against the footer.  A change to what the
    recorder's footer, ``TimingAccountant`` or ``LadderKernel`` compute
    must bump :data:`FINGERPRINT_VERSION`.
    """

    def __init__(self, root: str):
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.manifest_path = os.path.join(root, MANIFEST_NAME)
        self.quarantine_dir = os.path.join(root, QUARANTINE_DIR)
        self.heal_log_path = os.path.join(self.quarantine_dir, HEAL_LOG_NAME)
        #: Resolution counters for this store instance (reporting; the
        #: acceptance invariant "second run records nothing" is
        #: ``built == 0``).  ``healed`` counts self-heal repairs.
        self.hits = 0
        self.built = 0
        self.healed = 0
        #: Bytes freed by the most recent :meth:`gc` call.
        self.reclaimed_bytes = 0
        #: The last parsed manifest and the :func:`_stat_key` of the
        #: file it was parsed from.
        self._manifest: Manifest | None = None
        self._manifest_key: tuple[int, int, int] | None = None

    # -- paths ---------------------------------------------------------------

    def object_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, digest[:2], f"{digest}.trace")

    def manifest(self) -> Manifest:
        """The manifest, parsed once per version of the file.

        The parse is cached against the file's ``(inode, mtime, size)``.
        Every save is an ``os.replace``, so a write from any process
        gives the file a new inode and the next call re-reads it.
        Callers get a copy: their ``put``/``pop`` never reach the cache.
        """
        if (
            self._manifest is None
            or _stat_key(self.manifest_path) != self._manifest_key
        ):
            return self._reread_manifest()
        return self._manifest.copy()

    def _reread_manifest(self) -> Manifest:
        """Parse the manifest file now — healing a corrupt one.

        Writers call this under the manifest lock, so a read-modify-write
        never starts from a cached parse.  A manifest that fails to parse
        is quarantined (every binding is lost, but the object files stay;
        re-``ensure`` rebuilds bindings by re-recording, converging on
        the identical objects) rather than wedging every consumer with a
        ``ValueError``.
        """
        key = _stat_key(self.manifest_path)  # before the read: never stale
        try:
            manifest = load_manifest(self.manifest_path)
        except ValueError as error:
            quarantined = self._quarantine_file(
                self.manifest_path, "manifest.corrupt.json"
            )
            self._log_heal(
                scenario="<manifest>",
                digest="",
                reason=str(error),
                action=f"quarantined manifest to {quarantined}; "
                "starting empty (bindings rebuild on demand)",
            )
            manifest = Manifest()
            key = _stat_key(self.manifest_path)
        self._manifest, self._manifest_key = manifest, key
        return manifest.copy()

    # -- the core workflow ---------------------------------------------------

    def ensure(
        self,
        spec: TraceScenarioSpec,
        config: HierarchyConfig = WESTMERE,
    ) -> CorpusObject:
        """Resolve a spec to a recorded trace, building on first use.

        A manifest hit reads the object once and trusts it only if its
        length and sha256 are the ``stored_bytes``/``stored_sha256`` the
        manifest promises; its :attr:`CorpusObject.result` is then parsed
        from the footer of those same bytes.  Any damage is quarantined
        and healed by re-recording.
        """
        fingerprint = spec_fingerprint(spec, config)
        entry = self.manifest().get(fingerprint)
        if entry is not None:
            path = self.object_path(entry.digest)
            data = self._read_stored(path, entry)
            if data is None:
                # Only on damage: the canonical check names what broke.
                problem = self._object_problem(path, entry)
                problem = problem or _stored_mismatch(entry)
            else:
                try:
                    result = recorded_result(io.BytesIO(data))
                except DAMAGE_ERRORS as error:
                    problem = (
                        f"object {entry.digest[:12]}… footer unreadable: "
                        f"{error}"
                    )
                else:
                    self.hits += 1
                    tel = telemetry_active()
                    if tel is not None:
                        tel.inc("corpus_resolutions_total", outcome="hit")
                    return CorpusObject(
                        path=path, entry=entry, built=False, result=result
                    )
            self._heal(entry, problem)
        return self._build(fingerprint, spec, config)

    # -- self-healing --------------------------------------------------------

    @staticmethod
    def _read_stored(path: str, entry: ManifestEntry) -> bytes | None:
        """The object's bytes if they are the ones the manifest stored."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if (
            len(data) != entry.stored_bytes
            or hashlib.sha256(data).hexdigest() != entry.stored_sha256
        ):
            return None
        return data

    def _object_problem(self, path: str, entry: ManifestEntry) -> str | None:
        """Why this object's canonical stream cannot be trusted, or
        ``None`` if it re-hashes to the manifest's digest and length."""
        if not os.path.exists(path):
            return f"object {entry.digest[:12]}… missing ({path})"
        try:
            digest, raw_bytes, _footer = canonical_digest(path)
        except DAMAGE_ERRORS as error:
            return f"object {entry.digest[:12]}… unreadable: {error}"
        if digest != entry.digest:
            return (
                f"digest mismatch — manifest {entry.digest[:12]}…, on-disk "
                f"stream hashes to {digest[:12]}…"
            )
        if raw_bytes != entry.raw_bytes:
            return (
                f"canonical length {raw_bytes} != manifest {entry.raw_bytes}"
            )
        return None

    def _audit(self, path: str, entry: ManifestEntry) -> str | None:
        """The full check of ``verify``/``repair``: the canonical stream,
        the stored bytes a hit hashes, and a replay of the records
        against the footer a hit trusts."""
        problem = self._object_problem(path, entry)
        if problem is None and self._read_stored(path, entry) is None:
            problem = _stored_mismatch(entry)
        if problem is None:
            try:
                replay_timing(path, verify=True)
            except DAMAGE_ERRORS as error:
                problem = (
                    f"object {entry.digest[:12]}… replay disagrees with "
                    f"its footer: {error}"
                )
        return problem

    def _quarantine_file(self, path: str, name: str) -> str | None:
        """Move ``path`` into the quarantine dir; returns the new path."""
        if not os.path.exists(path):
            return None
        os.makedirs(self.quarantine_dir, exist_ok=True)
        target = os.path.join(self.quarantine_dir, name)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(self.quarantine_dir, f"{name}.{suffix}")
        try:
            os.replace(path, target)
        except OSError:
            return None  # deleted under us; nothing left to preserve
        tel = telemetry_active()
        if tel is not None:
            tel.inc("corpus_quarantined_files_total")
        return target

    def _log_heal(
        self, scenario: str, digest: str, reason: str, action: str
    ) -> None:
        """Append one event to the heal ledger (single atomic write)."""
        os.makedirs(self.quarantine_dir, exist_ok=True)
        line = json.dumps(
            {
                "scenario": scenario,
                "digest": digest,
                "reason": reason,
                "action": action,
            },
            sort_keys=True,
        )
        with open(self.heal_log_path, "a") as handle:
            handle.write(line + "\n")
        self.healed += 1
        tel = telemetry_active()
        if tel is not None:
            tel.inc("corpus_heal_events_total")

    def heal_log_size(self) -> int:
        """Current byte length of the heal ledger (a resumable cursor)."""
        try:
            return os.path.getsize(self.heal_log_path)
        except OSError:
            return 0

    def heal_events(self, since: int = 0) -> list[dict]:
        """Heal-ledger events appended after byte offset ``since``."""
        try:
            with open(self.heal_log_path) as handle:
                handle.seek(since)
                return [
                    json.loads(line)
                    for line in handle
                    if line.strip()
                ]
        except OSError:
            return []

    def heal_summary(self) -> dict:
        """Summary counts over the whole heal ledger.

        Returns ``{"events", "quarantined", "scenarios"}`` — total
        ledger lines, how many preserved bytes in quarantine (vs. just
        dropping a binding), and per-scenario event counts.  An absent
        ledger summarises to zero events.
        """
        events = self.heal_events()
        quarantined = sum(
            1
            for event in events
            if event.get("action", "").startswith("quarantined")
        )
        scenarios: dict[str, int] = {}
        for event in events:
            name = event.get("scenario", "?")
            scenarios[name] = scenarios.get(name, 0) + 1
        return {
            "events": len(events),
            "quarantined": quarantined,
            "scenarios": scenarios,
        }

    def _heal(self, entry: ManifestEntry, reason: str) -> None:
        """Quarantine a damaged object and drop its manifest binding."""
        path = self.object_path(entry.digest)
        quarantined = self._quarantine_file(path, f"{entry.digest}.trace")
        with manifest_lock(self.root):
            manifest = self._reread_manifest()
            current = manifest.get(entry.fingerprint)
            if current is not None and current.digest == entry.digest:
                manifest.entries.pop(entry.fingerprint)
                save_manifest(manifest, self.manifest_path)
        self._log_heal(
            scenario=entry.scenario,
            digest=entry.digest,
            reason=reason,
            action=(
                f"quarantined to {quarantined}; entry dropped"
                if quarantined
                else "entry dropped (no bytes left to quarantine)"
            ),
        )

    def _build(
        self,
        fingerprint: str,
        spec: TraceScenarioSpec,
        config: HierarchyConfig,
    ) -> CorpusObject:
        os.makedirs(self.objects_dir, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=self.objects_dir, suffix=".recording"
        )
        os.close(fd)
        try:
            with telemetry_span("corpus/record", scenario=spec.name) as tspan:
                result = record_spec(
                    spec, temp_path, config=config, compress=True
                )
                # One decode pass over the fresh recording.  (A hashing
                # tee inside the writer could fold this into the
                # recording pass; the cold path runs once per workload
                # ever, so the extra read is accepted for the recorder's
                # simplicity.)
                digest, raw_bytes, footer = canonical_digest(temp_path)
                with open(temp_path, "rb") as handle:
                    stored = handle.read()
                stored_bytes = len(stored)
                stored_sha256 = hashlib.sha256(stored).hexdigest()
                records = footer.get("records", 0)
                tspan.set("records", records)
                tspan.set("stored_bytes", stored_bytes)
            path = self.object_path(digest)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # Atomic publish; racing builders of a deterministic spec
            # produce byte-identical objects, so last-write-wins is safe.
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        entry = ManifestEntry(
            fingerprint=fingerprint,
            scenario=spec.name,
            driver=spec.driver,
            instructions=spec.instructions,
            digest=digest,
            records=records,
            raw_bytes=raw_bytes,
            stored_bytes=stored_bytes,
            stored_sha256=stored_sha256,
            spec=spec.to_dict(),
        )
        with manifest_lock(self.root):
            manifest = self._reread_manifest()  # under the lock: merge
            manifest.put(entry)
            save_manifest(manifest, self.manifest_path)
        self.built += 1
        tel = telemetry_active()
        if tel is not None:
            tel.inc("corpus_resolutions_total", outcome="recorded")
        return CorpusObject(path=path, entry=entry, built=True, result=result)

    # -- figure-side consumers ----------------------------------------------

    def run_result(
        self,
        spec: TraceScenarioSpec,
        config: HierarchyConfig = WESTMERE,
    ) -> RunResult:
        """The spec's live statistics, from the corpus.

        A hit's verified footer or a build's own recording (see
        :meth:`ensure`); damage heals inside ``ensure``, and nothing is
        replayed.
        """
        return self.ensure(spec, config).result

    def slowdown(
        self,
        profile: BenchmarkProfile,
        scenario: Scenario,
        instructions: int,
        baseline_config: HierarchyConfig = WESTMERE,
        variant_config: HierarchyConfig | None = None,
    ) -> float:
        """:func:`repro.workloads.generator.slowdown` with both runs
        resolved through the store.

        The baseline and the variant are each a build's own recording or
        a hit's verified footer, which holds the live run's counts
        bit-identically, so the figure quantity equals the live one
        exactly — while repeated invocations (and other figures sharing
        the baseline) read stored footers instead of re-synthesising.
        """
        base = self.run_result(figure_spec(profile, Scenario.baseline(), instructions))
        variant = self.run_result(figure_spec(profile, scenario, instructions))
        return relative_slowdown(
            profile, base, variant, baseline_config, variant_config
        )

    # -- maintenance ---------------------------------------------------------

    def build_registry(
        self,
        names: list[str] | None = None,
        instructions: int | None = None,
        config: HierarchyConfig = WESTMERE,
    ) -> list[CorpusObject]:
        """Ensure every (named) registry mix is recorded; returns outcomes."""
        outcomes = []
        for name in names or sorted(CORPUS):
            spec = CORPUS[name]
            if instructions is not None:
                spec = spec.scaled(instructions)
            outcomes.append(self.ensure(spec, config))
        return outcomes

    def verify(self) -> list[str]:
        """Audit every referenced object; returns problem descriptions.

        Each object's canonical stream must re-hash to its digest, its
        stored bytes to ``stored_sha256``, and a replay of its records
        must reproduce its footer — the footer every hit trusts.
        """
        problems: list[str] = []
        tel = telemetry_active()
        for _fingerprint, entry in sorted(self.manifest().entries.items()):
            problem = self._audit(self.object_path(entry.digest), entry)
            if tel is not None:
                tel.inc(
                    "corpus_verifications_total",
                    outcome="damaged" if problem is not None else "ok",
                )
            if problem is not None:
                problems.append(f"{entry.scenario}: {problem}")
        return problems

    def _entry_spec(self, entry: ManifestEntry) -> TraceScenarioSpec | None:
        """The recorded spec document, decoded — or ``None`` if absent
        or itself damaged (old manifests, injected orphans)."""
        if not entry.spec:
            return None
        try:
            return TraceScenarioSpec.from_dict(entry.spec)
        except Exception:
            return None

    def repair(
        self, config: HierarchyConfig = WESTMERE
    ) -> tuple[list[str], list[str]]:
        """Bulk self-heal: every damaged entry is quarantined and, when
        its manifest-recorded spec still fingerprints to the entry,
        re-recorded; unrecoverable entries (no spec, foreign geometry)
        are dropped with a diagnostic.  Returns ``(problems, actions)``
        — one action per problem.
        """
        problems: list[str] = []
        actions: list[str] = []
        for fingerprint, entry in sorted(self.manifest().entries.items()):
            problem = self._audit(self.object_path(entry.digest), entry)
            if problem is None:
                continue
            problems.append(f"{entry.scenario}: {problem}")
            self._heal(entry, problem)
            spec = self._entry_spec(entry)
            if spec is None:
                actions.append(
                    f"{entry.scenario}: entry dropped (no recorded spec — "
                    f"unrecoverable; re-record from the registry)"
                )
                continue
            if spec_fingerprint(spec, config) != fingerprint:
                actions.append(
                    f"{entry.scenario}: entry dropped (spec fingerprints "
                    f"differently under this geometry — re-ensure with the "
                    f"recording config)"
                )
                continue
            rebuilt = self._build(fingerprint, spec, config)
            if rebuilt.entry.digest == entry.digest:
                actions.append(
                    f"{entry.scenario}: re-recorded, digest "
                    f"{entry.digest[:12]}… restored byte-identically"
                )
            else:
                actions.append(
                    f"{entry.scenario}: re-recorded as "
                    f"{rebuilt.entry.digest[:12]}… (the manifest digest "
                    f"itself was damaged)"
                )
        return problems, actions

    def gc(self, keep_days: float = QUARANTINE_KEEP_DAYS) -> list[str]:
        """Remove unreferenced objects, stale entries and old quarantine.

        Quarantined blobs (damaged objects and corrupt manifests parked
        under ``<root>/quarantine/`` by the self-heal paths) are swept
        once older than ``keep_days`` — young enough damage stays
        inspectable, but a long-lived store no longer accumulates every
        corruption it ever survived.  The heal ledger (events.jsonl) is
        always kept.  Bytes freed by this call (objects *and*
        quarantine) are reported in :attr:`reclaimed_bytes`.
        """
        removed: list[str] = []
        self.reclaimed_bytes = 0
        with manifest_lock(self.root):
            manifest = self._reread_manifest()
            stale = [
                fingerprint
                for fingerprint, entry in manifest.entries.items()
                if not os.path.exists(self.object_path(entry.digest))
            ]
            for fingerprint in stale:
                entry = manifest.entries.pop(fingerprint)
                removed.append(f"entry {entry.scenario} ({fingerprint[:12]}…)")
            if stale:
                save_manifest(manifest, self.manifest_path)
            referenced = manifest.digests()
        if os.path.isdir(self.objects_dir):
            import time

            stale_before = time.time() - STALE_RECORDING_SECONDS
            for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
                for filename in filenames:
                    digest, ext = os.path.splitext(filename)
                    path = os.path.join(dirpath, filename)
                    if ext == ".trace" and digest in referenced:
                        continue
                    # Anything else is either a concurrent builder's
                    # artifact (an in-progress .recording, or an object
                    # published moments before its manifest entry lands)
                    # or a crash leftover; age separates the two.
                    try:
                        if os.path.getmtime(path) > stale_before:
                            continue
                        size = os.path.getsize(path)
                        os.remove(path)
                    except OSError:
                        continue  # renamed/removed mid-walk
                    removed.append(path)
                    self.reclaimed_bytes += size
        if os.path.isdir(self.quarantine_dir):
            import time

            keep_after = time.time() - keep_days * 86400.0
            for filename in sorted(os.listdir(self.quarantine_dir)):
                if filename == HEAL_LOG_NAME:
                    continue
                path = os.path.join(self.quarantine_dir, filename)
                if not os.path.isfile(path):
                    continue
                try:
                    if os.path.getmtime(path) > keep_after:
                        continue
                    size = os.path.getsize(path)
                    os.remove(path)
                except OSError:
                    continue  # swept by a concurrent gc
                removed.append(path)
                self.reclaimed_bytes += size
        return removed


def default_store() -> CorpusStore:
    """The process-wide default store (``$REPRO_CORPUS_DIR`` or
    ``./.repro-corpus``)."""
    return CorpusStore(os.environ.get(ENV_ROOT, DEFAULT_ROOT))


def figure_spec(
    profile: BenchmarkProfile, scenario: Scenario, instructions: int
) -> TraceScenarioSpec:
    """The corpus spec of one figure-sweep cell.

    Mirrors :func:`repro.workloads.generator.slowdown`'s live-run
    parameters exactly (seed 0, full warmup, default quarantine), so the
    corpus-resolved figure equals the live figure bit-for-bit.  The spec
    is identified by what keys the live ``runs`` memo at seed 0 — the
    profile, the scenario (binary seed included) and the instruction
    count — so one spec and one memo entry name the same run.
    """
    return TraceScenarioSpec(
        name=f"fig/{profile.name}/{scenario.describe().replace(' ', '_')}"
        f"/b{scenario.binary_seed}",
        description="figure-sweep workload (corpus-resolved)",
        profile=profile,
        policy=policy_to_str(scenario.policy),
        with_cform=scenario.with_cform,
        min_bytes=scenario.min_bytes,
        max_bytes=scenario.max_bytes,
        binary_seed=scenario.binary_seed,
        instructions=instructions,
    )


def registry_fingerprint(config: HierarchyConfig = WESTMERE) -> str:
    """One combined fingerprint over the whole scenario registry.

    Changes whenever any registry spec (or the recording geometry,
    fingerprint scheme or manifest version) changes — the CI cache key
    for the corpus directory.
    """
    combined = hashlib.sha256(f"manifest {MANIFEST_VERSION}\n".encode())
    for name in sorted(CORPUS):
        combined.update(spec_fingerprint(CORPUS[name], config).encode())
    return combined.hexdigest()
